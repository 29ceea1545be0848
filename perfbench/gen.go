package main

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
	"repro/internal/workload"
)

// The directory every workload opens: workload.GenTOPS subscribers and a
// workload.GenQoS policy tree under one dc=com root (Figures 1, 11 and
// 12 at scale), about 10.5k entries on 3.7k pages of 4 KiB.
const (
	topsBase    = "ou=userProfiles, dc=research, dc=att, dc=com"
	subscribers = 1000 // resident TOPS subscribers
	freshPool   = 100  // extra generated subscribers held back for provision's adds
	qosDomains  = 8
	qosPolicies = 100 // SLAPolicyRules per domain
)

// probeUIDs name the fixed subscribers that trip the repeated-pair
// removal fault (store.applyRemove deletes one attribute-index key per
// (attribute, value) pair, so an entry holding a pair twice cannot be
// removed). They do not depend on the seed, so every run attempts and
// fails exactly the same removals.
var probeUIDs = []string{"probe0", "probe1"}

// directory is one generated input: the instance to open plus the
// subscriber subtrees provision adds.
type directory struct {
	inst  *model.Instance
	fresh [][]*model.Entry // held-back subscriber subtrees, parent first
	uids  []string         // resident generated subscribers, in uid order
}

// genDirectory builds the directory for a seed.
func genDirectory(seed int64) *directory {
	all := workload.GenTOPS(workload.TOPSConfig{Subscribers: subscribers + freshPool, Seed: seed})
	inst := model.NewInstance(all.Schema())
	d := &directory{inst: inst}
	held := make(map[string]int) // subscriber key -> index into d.fresh
	for i := subscribers; i < subscribers+freshPool; i++ {
		held[model.MustParseDN(subDN(uidOf(i))).Key()] = i - subscribers
	}
	d.fresh = make([][]*model.Entry, freshPool)
	for _, e := range all.Entries() { // reverse-DN key order: parents first
		if idx, ok := heldUnder(e.DN(), held); ok {
			d.fresh[idx] = append(d.fresh[idx], e)
			continue
		}
		inst.MustAdd(e)
	}
	for i := 0; i < subscribers; i++ {
		d.uids = append(d.uids, uidOf(i))
	}
	qos := workload.GenQoS(workload.QoSConfig{Domains: qosDomains, PoliciesPerDomain: qosPolicies, Seed: seed + 1})
	for _, e := range qos.Entries() {
		if _, ok := inst.GetKey(e.Key()); ok {
			continue // dc=com and dc=att, dc=com are shared roots
		}
		inst.MustAdd(e)
	}
	for i, uid := range probeUIDs {
		for _, e := range probeSubtree(uid, int64(3+3*i)) {
			inst.MustAdd(e)
		}
	}
	return d
}

func uidOf(i int) string         { return fmt.Sprintf("sub%04d", i) }
func subDN(uid string) string    { return fmt.Sprintf("uid=%s, %s", uid, topsBase) }
func qhpDN(uid, q string) string { return fmt.Sprintf("QHPName=%s, %s", q, subDN(uid)) }

// heldUnder reports whether dn is, or lies below, a held-back subscriber.
func heldUnder(dn model.DN, held map[string]int) (int, bool) {
	for ; len(dn) > 0; dn = dn.Parent() {
		if idx, ok := held[dn.Key()]; ok {
			return idx, true
		}
	}
	return 0, false
}

// probeSubtree is a GenTOPS-shaped subscriber whose one QHP names the
// same day of week twice — the shape GenTOPS itself emits when its two
// daysOfWeek draws coincide.
func probeSubtree(uid string, day int64) []*model.Entry {
	s := model.DefaultSchema()
	mk := func(dn string, classes ...string) *model.Entry {
		e, err := model.NewEntryFromDN(s, model.MustParseDN(dn))
		if err != nil {
			panic(err)
		}
		for _, c := range classes {
			e.AddClass(c)
		}
		return e
	}
	sub := mk(subDN(uid), "inetOrgPerson", "TOPSSubscriber")
	sub.Add("surName", model.String("probe"))
	sub.Add("commonName", model.String("user "+uid))
	qhp := mk(qhpDN(uid, "qhp0"), "QHP")
	qhp.Add("priority", model.Int(1))
	qhp.Add("daysOfWeek", model.Int(day))
	qhp.Add("daysOfWeek", model.Int(day))
	ca := mk("CANumber=9990000000, "+qhpDN(uid, "qhp0"), "callAppearance")
	ca.Add("priority", model.Int(1))
	ca.Add("timeOut", model.Int(30))
	return []*model.Entry{sub, qhp, ca}
}

// hasRepeatedPair reports whether any entry of a subtree holds one
// (attribute, value) pair twice. Such subscribers are never chosen for
// seeded removals: their removal fails (see probeUIDs), and a failure
// that depended on the seed would make the failed share vary by run.
func hasRepeatedPair(entries []*model.Entry) bool {
	for _, e := range entries {
		ps := e.Pairs() // sorted, so repeats are adjacent
		for i := 1; i < len(ps); i++ {
			if ps[i].Attr == ps[i-1].Attr && ps[i].Value.Equal(ps[i-1].Value) {
				return true
			}
		}
	}
	return false
}

// call is one dial: callee plus the caller's context of Example 2.2.
type call struct {
	uid  string
	time int64 // HHMM
	day  int64 // 1..7
}

func randomCall(r *rand.Rand, uid string) call {
	return call{uid: uid, time: int64(r.Intn(24)*100 + r.Intn(60)), day: int64(1 + r.Intn(7))}
}

// uniformCalls draws n dials with callees uniform over the residents.
func uniformCalls(r *rand.Rand, uids []string, n int) []call {
	out := make([]call, n)
	for i := range out {
		out[i] = randomCall(r, uids[r.Intn(len(uids))])
	}
	return out
}

// zipfCalls draws n dials with Zipf-distributed callees. The popularity
// rank is a seeded permutation of the subscribers, so the hot set is
// not the uid order, and it is drawn afresh every zipfBlock dials. The
// top-ranked subscriber takes about a third of the dials, so the cost
// of one hot set depends on that subscriber's answers; averaged over
// several hot sets it varies far less from seed to seed.
func zipfCalls(r *rand.Rand, uids []string, n int) []call {
	z := rand.NewZipf(r, zipfS, 1, uint64(len(uids)-1))
	var perm []int
	out := make([]call, n)
	for i := range out {
		if i%zipfBlock == 0 {
			perm = r.Perm(len(uids))
		}
		out[i] = randomCall(r, uids[perm[z.Uint64()]])
	}
	return out
}

// subtreeOf returns the entries of inst at or below dn in key order,
// which puts every parent before its children.
func subtreeOf(inst *model.Instance, dn string) []*model.Entry {
	key := model.MustParseDN(dn).Key()
	var out []*model.Entry
	inst.Range(key, model.SubtreeHigh(key), func(e *model.Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}
