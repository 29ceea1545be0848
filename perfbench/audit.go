package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/planner"
)

// auditWorkload: the paper's L1–L3 queries over the whole directory with
// Options.Optimize. The engine's operators (HSPC, HSAD, HSADc, simple
// and structural aggregate selection, ERAggDV/VD), plist and extsort,
// and page I/O dominate; fixed per-query cost is under 1%.
type auditWorkload struct {
	dir     *directory
	queries []string
	want    [][]string // oracle answers, reverse-DN key order
}

func sub(filter string) atom {
	attr, op, val := splitFilter(filter)
	return atom{base: "dc=com", scope: "sub", attr: attr, op: op, value: val}
}

func splitFilter(f string) (attr, op, val string) {
	for i := 0; i < len(f); i++ {
		switch f[i] {
		case '<', '>':
			return f[:i], f[i : i+2], f[i+2:]
		case '=':
			return f[:i], "=", f[i+1:]
		}
	}
	panic("perfbench: bad filter " + f)
}

// surnames are workload.GenTOPS's surnames.
var surnames = []string{"jagadish", "lakshmanan", "milo", "srivastava", "vista"}

// auditQueries lists the audit's 38 queries: each template over a fixed
// set of parameter values, so the query mix is the same for every seed
// and only the directory and the order of the queries vary. The
// templates cover each operator class of Figures 8–10 over the TOPS and
// QoS subtrees.
func auditQueries() []oq {
	var qs []oq
	for _, day := range []int{2, 4, 6} {
		// p: call appearances whose QHP applies on day D.
		qs = append(qs, hier{op: "p", q1: sub("objectClass=callAppearance"), q2: sub(fmt.Sprintf("daysOfWeek=%d", day))})
		// vd with count($2): policies valid through at least two day-D periods.
		qs = append(qs, embedRef{op: "vd", q1: sub("objectClass=SLAPolicyRules"), q2: sub(fmt.Sprintf("PVDayOfWeek=%d", day)),
			attr: "SLAPVPRef", sel: &aggSel{kind: "count($2)>=", k: 2}})
	}
	for _, t := range []int{15, 30, 45} {
		// c: QHPs with an appearance timing out within T seconds.
		qs = append(qs, hier{op: "c", q1: sub("objectClass=QHP"), q2: sub(fmt.Sprintf("timeOut<=%d", t))})
		// c with max($2.timeOut): QHPs whose appearances all time out under T.
		qs = append(qs, hier{op: "c", q1: sub("objectClass=QHP"), q2: sub("objectClass=callAppearance"),
			sel: &aggSel{kind: "max($2)<", attr: "timeOut", k: int64(t)}})
	}
	for i, name := range surnames[:3] {
		// a: appearances of subscribers with surname S.
		qs = append(qs, hier{op: "a", q1: sub("objectClass=callAppearance"), q2: sub("surName=" + name)})
		// ac: appearances of surname-S subscribers not reached through a day-D QHP.
		qs = append(qs, hier{op: "ac", q1: sub("objectClass=callAppearance"), q2: sub("surName=" + name),
			q3: sub(fmt.Sprintf("daysOfWeek=%d", 1+i))})
		// dv: actions used by priority-R policies.
		qs = append(qs, embedRef{op: "dv", q1: sub("objectClass=SLADSAction"), q2: sub(fmt.Sprintf("SLARulePriority=%d", 1+i)), attr: "SLADSActRef"})
	}
	for _, port := range []int{21, 25, 80} {
		profiles := boolQ{op: "&", q1: sub(fmt.Sprintf("sourcePort=%d", port)), q2: sub("objectClass=trafficProfile")}
		// dc (Example 5.3): domains whose nearest profiles govern port P.
		qs = append(qs, hier{op: "dc", q1: sub("objectClass=dcObject"), q2: profiles, q3: sub("objectClass=dcObject")})
		// vd: policies referencing a port-P profile.
		qs = append(qs, embedRef{op: "vd", q1: sub("objectClass=SLAPolicyRules"), q2: sub(fmt.Sprintf("sourcePort=%d", port)), attr: "SLATPRef"})
		// Example 7.1: the action of the most preferred policy governing port P.
		pol := embedRef{op: "vd", q1: sub("objectClass=SLAPolicyRules"), q2: profiles, attr: "SLATPRef"}
		best := simpleAgg{q: pol, sel: &aggSel{kind: "min=minmin", attr: "SLARulePriority"}}
		qs = append(qs, embedRef{op: "dv", q1: sub("objectClass=SLADSAction"), q2: best, attr: "SLADSActRef"})
	}
	for i, x := range []int{900, 1100} {
		// d: subscribers with a QHP starting at or after X.
		qs = append(qs, hier{op: "d", q1: sub("objectClass=TOPSSubscriber"), q2: sub(fmt.Sprintf("startTime>=%d", x))})
		// -, |: QHPs neither starting after X nor applying on day D.
		qs = append(qs, boolQ{op: "-", q1: sub("objectClass=QHP"),
			q2: boolQ{op: "|", q1: sub(fmt.Sprintf("startTime>=%d", x)), q2: sub(fmt.Sprintf("daysOfWeek=%d", 2+2*i))}})
	}
	for k := 0; k <= 1; k++ {
		// g (Example 6.1): policies with more than K validity periods.
		qs = append(qs, simpleAgg{q: sub("objectClass=SLAPolicyRules"), sel: &aggSel{kind: "count>", attr: "SLAPVPRef", k: int64(k)}})
	}
	for _, k := range []int{5, 7} {
		// d with count($2): subscribers with at least K call appearances.
		qs = append(qs, hier{op: "d", q1: sub("objectClass=TOPSSubscriber"), q2: sub("objectClass=callAppearance"),
			sel: &aggSel{kind: "count($2)>=", k: int64(k)}})
	}
	return qs
}

// auditWarmup is how many queries (from the front of the round's
// order) the untimed warm-up runs.
const auditWarmup = 8

func (w *auditWorkload) prepare(seed int64) error {
	w.dir = genDirectory(seed)
	qs := auditQueries()
	rand.New(rand.NewSource(seed)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	m := newDirModel(w.dir.inst.Entries())
	for _, q := range qs {
		w.queries = append(w.queries, q.String())
		w.want = append(w.want, answerKeys(m, q))
	}
	return nil
}

func (w *auditWorkload) round(rec *recorder) error {
	start := time.Now()
	d, err := core.Open(w.dir.inst, core.Options{Optimize: true})
	if err != nil {
		return err
	}
	rec.setupDone(time.Since(start))
	var plan *planner.Info
	if rec.trace {
		if _, err := traceSetup(rec, w.dir.inst, d); err != nil {
			return err
		}
		plan = &planner.Info{StrictForest: w.dir.inst.Validate(true) == nil}
	}
	for i, text := range w.queries[:auditWarmup] {
		res, err := d.Search(text)
		if err != nil {
			return fmt.Errorf("warm-up query %s: %w", text, err)
		}
		if err := checkAnswer(res, w.want[i]); err != nil {
			return fmt.Errorf("warm-up query %s: %w", text, err)
		}
	}
	runtime.GC()
	for i, text := range w.queries {
		a0 := allocBytes()
		t0 := time.Now()
		res, err := d.Search(text)
		lat := time.Since(t0)
		alloc := allocBytes() - a0
		if rec.trace {
			rec.add("core.alloc_kb_per_query", float64(alloc)/1024)
		}
		rec.count("query", false)
		if err != nil {
			return fmt.Errorf("query %s: %w", text, err)
		}
		if err := checkAnswer(res, w.want[i]); err != nil {
			return fmt.Errorf("query %s: %w", text, err)
		}
		rec.timedOp(lat, res.IO.IO(), alloc)
		if rec.trace {
			if err := traceQuery(rec, d, text, plan); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkAnswer compares a result with the oracle's answer and checks
// that it is in strictly ascending reverse-DN key order (sorted, no
// duplicates).
func checkAnswer(res *core.Result, want []string) error {
	for i := 1; i < len(res.Entries); i++ {
		if res.Entries[i-1].Key() >= res.Entries[i].Key() {
			return fmt.Errorf("result not in strictly ascending reverse-DN order at %d: %s", i, res.Entries[i].DN())
		}
	}
	if len(res.Entries) != len(want) {
		return fmt.Errorf("%d entries, oracle %d", len(res.Entries), len(want))
	}
	for i, e := range res.Entries {
		if e.Key() != want[i] {
			return fmt.Errorf("entry %d is %s, oracle has key %q", i, e.DN(), want[i])
		}
	}
	return nil
}
