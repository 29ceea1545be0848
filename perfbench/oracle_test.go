package main

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// The expected answers below are worked out by hand from the paper's
// figures (workload.PaperInstance: Figures 1, 11 and 12) and the prose
// of its examples, not taken from the program's output.

const (
	att  = "dc=att, dc=com"
	res  = "dc=research, dc=att, dc=com"
	jag  = "uid=jag, ou=userProfiles, " + res
	np   = "ou=networkPolicies, " + res
	wh   = "QHPName=workinghours, " + jag
	wkd  = "QHPName=weekend, " + jag
	ca50 = "CANumber=9733608750, " + wh
	ca51 = "CANumber=9733608751, " + wh
	vm   = "CANumber=vm-jag, " + wkd
)

func paperModel() *dirModel { return newDirModel(workload.PaperInstance().Entries()) }

func keysOf(dns ...string) []string {
	out := []string{}
	for _, dn := range dns {
		out = append(out, model.MustParseDN(dn).Key())
	}
	return out
}

func at(base, filter string) atom {
	attr, op, val := splitFilter(filter)
	return atom{base: base, scope: "sub", attr: attr, op: op, value: val}
}

func TestOracleRouteExample22(t *testing.T) {
	m := paperModel()
	cases := []struct {
		name string
		c    call
		want routeAnswer
	}{
		// Weekend: both QHPs apply at 11:00 on day 6; weekend has the
		// lower priority value, and its only appearance is voice mail.
		{"weekend", call{"jag", 1100, 6}, routeAnswer{sub: key(jag), qhp: key(wkd), apps: keysOf(vm)}},
		// Weekday working hours: the office phone (priority 1) before
		// the secretary (priority 2).
		{"working hours", call{"jag", 1000, 2}, routeAnswer{sub: key(jag), qhp: key(wh), apps: keysOf(ca50, ca51)}},
		// 03:00 on a weekday: outside working hours, not a weekend day.
		{"no QHP", call{"jag", 300, 3}, routeAnswer{miss: "no-qhp"}},
		{"no subscriber", call{"nobody", 1000, 2}, routeAnswer{miss: "no-subscriber"}},
	}
	for _, tc := range cases {
		if got := m.oracleRoute("ou=userProfiles, "+res, tc.c); got.String() != tc.want.String() {
			t.Errorf("%s: got %s, want %s", tc.name, got, tc.want)
		}
	}
}

func key(dn string) string { return model.MustParseDN(dn).Key() }

func TestOracleModelAppliesWrites(t *testing.T) {
	m := paperModel()
	base := "ou=userProfiles, " + res
	// Removing the weekend QHP and its appearance leaves working hours
	// as the only QHP applying on a Saturday morning.
	m.remove(key(vm))
	m.remove(key(wkd))
	want := routeAnswer{sub: key(jag), qhp: key(wh), apps: keysOf(ca50, ca51)}
	if got := m.oracleRoute(base, call{"jag", 1100, 6}); got.String() != want.String() {
		t.Fatalf("after removal: got %s, want %s", got, want)
	}
	// Adding a probe subscriber makes it dialable.
	for _, e := range probeSubtree("probe0", 6) {
		m.add(e)
	}
	got := m.oracleRoute(base, call{"probe0", 1100, 6})
	if got.miss != "" || len(got.apps) != 1 {
		t.Fatalf("probe0: got %s", got)
	}
}

func TestOracleQueriesPaperExamples(t *testing.T) {
	m := paperModel()
	tp := func(b string) atom { return at(b, "objectClass=trafficProfile") }
	smtp := boolQ{op: "&", q1: at(att, "destinationPort=25"), q2: tp(att)}
	mailPolicies := embedRef{op: "vd", q1: at(att, "objectClass=SLAPolicyRules"), q2: smtp, attr: "SLATPRef"}
	cases := []struct {
		name string
		q    oq
		want []string
	}{
		// Example 5.2: traffic profiles used in network policies.
		{"ex5.2 a", hier{op: "a", q1: tp(att), q2: at(att, "ou=networkPolicies")},
			keysOf("TPName=lsplitOff, ou=trafficProfile, "+np, "TPName=csplitOff, ou=trafficProfile, "+np,
				"TPName=ftpFromL, ou=trafficProfile, "+np, "TPName=smtpFromL, ou=trafficProfile, "+np)},
		// Example 5.3: the nearest dcObject above the SMTP profile.
		{"ex5.3 dc", hier{op: "dc", q1: at(att, "objectClass=dcObject"), q2: smtp, q3: at(att, "objectClass=dcObject")},
			keysOf(res)},
		// Example 6.1: policies with more than one validity period.
		{"ex6.1 g", simpleAgg{q: at(res, "objectClass=SLAPolicyRules"), sel: &aggSel{kind: "count>", attr: "SLAPVPRef", k: 1}},
			keysOf("SLAPolicyName=dso, ou=SLAPolicyRules, " + np)},
		// Example 7.1: policies whose profiles govern SMTP traffic ...
		{"ex7.1 vd", mailPolicies, keysOf("SLAPolicyName=mail, ou=SLAPolicyRules, " + np)},
		// ... and the action of the most preferred of them.
		{"ex7.1 dv", embedRef{op: "dv", q1: at(att, "objectClass=SLADSAction"),
			q2: simpleAgg{q: mailPolicies, sel: &aggSel{kind: "min=minmin", attr: "SLARulePriority"}}, attr: "SLADSActRef"},
			keysOf("DSActionName=bestEffort, ou=SLADSAction, " + np)},
	}
	for _, tc := range cases {
		sort.Strings(tc.want)
		if got := answerKeys(m, tc.q); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s %s:\n got %q\nwant %q", tc.name, tc.q, got, tc.want)
		}
	}
}

func TestOracleQueriesEachOperator(t *testing.T) {
	m := paperModel()
	ca := at("dc=com", "objectClass=callAppearance")
	qhp := at("dc=com", "objectClass=QHP")
	pol := at("dc=com", "objectClass=SLAPolicyRules")
	cases := []struct {
		name string
		q    oq
		want []string
	}{
		// p: appearances whose parent QHP names Saturday.
		{"p", hier{op: "p", q1: ca, q2: at("dc=com", "daysOfWeek=6")}, keysOf(vm)},
		// c: QHPs with an appearance timing out within 25 s (the secretary).
		{"c", hier{op: "c", q1: qhp, q2: at("dc=com", "timeOut<=25")}, keysOf(wh)},
		// d: dcObjects with a QHP below them; corona has none.
		{"d", hier{op: "d", q1: at("dc=com", "objectClass=dcObject"), q2: qhp}, keysOf("dc=com", att, res)},
		// ac: appearances below a subscriber with no Saturday QHP between.
		{"ac", hier{op: "ac", q1: ca, q2: at("dc=com", "objectClass=TOPSSubscriber"), q3: at("dc=com", "daysOfWeek=6")},
			keysOf(ca50, ca51)},
		// Structural count($2): jag has three appearances, not four.
		{"d count3", hier{op: "d", q1: at("dc=com", "objectClass=TOPSSubscriber"), q2: ca, sel: &aggSel{kind: "count($2)>=", k: 3}},
			keysOf(jag)},
		{"d count4", hier{op: "d", q1: at("dc=com", "objectClass=TOPSSubscriber"), q2: ca, sel: &aggSel{kind: "count($2)>=", k: 4}},
			[]string{}},
		// max($2.timeOut) < 40: working hours (30, 20), not weekend (60).
		{"c max", hier{op: "c", q1: qhp, q2: ca, sel: &aggSel{kind: "max($2)<", attr: "timeOut", k: 40}}, keysOf(wh)},
		// g with min(min(...)): the QHP with the smallest priority.
		{"g min", simpleAgg{q: qhp, sel: &aggSel{kind: "min=minmin", attr: "priority"}}, keysOf(wkd)},
		// vd with count($2): only dso references two validity periods.
		{"vd count", embedRef{op: "vd", q1: pol, q2: at("dc=com", "objectClass=policyValidityPeriod"), attr: "SLAPVPRef",
			sel: &aggSel{kind: "count($2)>=", k: 2}}, keysOf("SLAPolicyName=dso, ou=SLAPolicyRules, " + np)},
		// dv: every action is used by some priority-2 policy.
		{"dv", embedRef{op: "dv", q1: at("dc=com", "objectClass=SLADSAction"), q2: at("dc=com", "SLARulePriority=2"), attr: "SLADSActRef"},
			keysOf("DSActionName=bestEffort, ou=SLADSAction, "+np, "DSActionName=denyAll, ou=SLADSAction, "+np)},
		// -, |: weekend has no start time; the union covers both QHPs.
		{"diff", boolQ{op: "-", q1: qhp, q2: at("dc=com", "startTime>=800")}, keysOf(wkd)},
		{"or", boolQ{op: "|", q1: at("dc=com", "startTime>=800"), q2: at("dc=com", "daysOfWeek=7")}, keysOf(wh, wkd)},
	}
	for _, tc := range cases {
		want := append([]string{}, tc.want...)
		sort.Strings(want)
		if got := answerKeys(m, tc.q); !reflect.DeepEqual(got, want) {
			t.Errorf("%s %s:\n got %q\nwant %q", tc.name, tc.q, got, want)
		}
	}
}

func TestProbeHasRepeatedPair(t *testing.T) {
	if !hasRepeatedPair(probeSubtree("probe0", 3)) {
		t.Fatal("probe subtree has no repeated pair")
	}
	if hasRepeatedPair(subtreeOf(workload.PaperInstance(), jag)) {
		t.Fatal("jag's subtree reported a repeated pair")
	}
}

// A QHP restricted to a caller group never applies to the benchmark's
// calls, which come from no group (tops.Lookup reads it the same way).
func TestOracleQHPCallerGroup(t *testing.T) {
	q, err := model.NewEntryFromDN(model.DefaultSchema(), model.MustParseDN(wkd))
	if err != nil {
		t.Fatal(err)
	}
	q.AddClass("QHP")
	q.Add("daysOfWeek", model.Int(6))
	if !qhpApplies(q, call{"jag", 1100, 6}) {
		t.Fatal("open weekend QHP does not apply on day 6")
	}
	q.Add("callerGroup", model.String("family"))
	if qhpApplies(q, call{"jag", 1100, 6}) {
		t.Fatal("caller-group QHP applies to a call from no group")
	}
}
