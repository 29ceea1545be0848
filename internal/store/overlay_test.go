package store

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/query"
)

// mutate applies a representative batch of entry-level ops to both the
// store (via ApplyOps on a fork) and the in-memory oracle instance.
func mutateBoth(t *testing.T, st *Store, in *model.Instance) (*Store, *pager.Disk) {
	t.Helper()
	s := in.Schema()
	mk := func(dn string, classes []string, avs ...func(*model.Entry)) *model.Entry {
		e, err := model.NewEntryFromDN(s, model.MustParseDN(dn))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range classes {
			e.AddClass(c)
		}
		for _, f := range avs {
			f(e)
		}
		return e
	}
	newPerson := func(uid, sn string) *model.Entry {
		return mk(fmt.Sprintf("uid=%s, ou=userProfiles, dc=research, dc=att, dc=com", uid),
			[]string{"inetOrgPerson", "TOPSSubscriber"},
			func(e *model.Entry) {
				e.Add("surName", model.String(sn))
				e.Add("commonName", model.String("x "+sn))
			})
	}
	ops := []EntryOp{
		// Deletes: a leaf QHP and a person.
		{Remove: model.MustParseDN("QHPName=q0, uid=u0001, ou=userProfiles, dc=research, dc=att, dc=com")},
		{Remove: model.MustParseDN("uid=u0003, ou=userProfiles, dc=research, dc=att, dc=com")},
		// Adds: fresh people with a surname the build never saw.
		{Add: newPerson("u9000", "newcomer")},
		{Add: newPerson("u9001", "newcomer")},
		{Add: mk("QHPName=q9, uid=u9000, ou=userProfiles, dc=research, dc=att, dc=com",
			[]string{"QHP"}, func(e *model.Entry) {
				e.Add("priority", model.Int(42))
			})},
		// Update: delete + re-add the same DN with changed values.
		{Remove: model.MustParseDN("uid=u0002, ou=userProfiles, dc=research, dc=att, dc=com")},
		{Add: newPerson("u0002", "renamed")},
	}
	for _, op := range ops {
		if op.Add != nil {
			if err := in.Add(op.Add); err != nil {
				t.Fatal(err)
			}
		} else if !in.Remove(op.Remove) {
			t.Fatalf("oracle remove %s: not found", op.Remove)
		}
	}
	fork := st.Disk().Fork()
	ns, err := st.ApplyOps(fork, ops)
	if err != nil {
		t.Fatal(err)
	}
	return ns, fork
}

var overlayCases = append([]string{
	// Shapes that exercise the mutated values specifically.
	"(dc=com ? sub ? surName=newcomer)",
	"(dc=com ? sub ? surName=*come*)",
	"(dc=com ? sub ? surName=renamed)",
	"(dc=com ? sub ? priority>=42)",
	"(uid=u9000, ou=userProfiles, dc=research, dc=att, dc=com ? base ? objectClass=inetOrgPerson)",
	"(uid=u0003, ou=userProfiles, dc=research, dc=att, dc=com ? base ? objectClass=*)",
	"(uid=u9000, ou=userProfiles, dc=research, dc=att, dc=com ? one ? objectClass=QHP)",
}, atomicCases...)

func TestApplyOpsMatchesOracle(t *testing.T) {
	for _, indexed := range []bool{true, false} {
		in := buildTestInstance(t, 60)
		d := pager.NewDisk(pager.DefaultPageSize)
		st, err := Build(d, in, Options{AttrIndex: indexed})
		if err != nil {
			t.Fatal(err)
		}
		ns, _ := mutateBoth(t, st, in)
		for _, c := range overlayCases {
			q := query.MustParse(c).(*query.Atomic)
			want := oracle(in, q)
			l, err := ns.Eval(q)
			if err != nil {
				t.Fatalf("indexed=%v %s: %v", indexed, c, err)
			}
			if got := keysOf(t, l); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("indexed=%v %s:\n got %v\nwant %v", indexed, c, got, want)
			}
			// Every forced access path must agree.
			for _, path := range []string{PathScan, PathIndex} {
				lp, err := ns.EvalPath(q, path)
				if err != nil {
					t.Fatalf("indexed=%v %s path=%s: %v", indexed, c, path, err)
				}
				if got := keysOf(t, lp); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("indexed=%v %s path=%s:\n got %v\nwant %v", indexed, c, path, got, want)
				}
			}
		}
		// The unmutated store still answers from its own (old) snapshot.
		q := query.MustParse("(dc=com ? sub ? surName=newcomer)").(*query.Atomic)
		l, err := st.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := keysOf(t, l); len(got) != 0 {
			t.Errorf("indexed=%v: published store sees post-fork entries: %v", indexed, got)
		}
	}
}

func TestApplyOpsReopenRoundTrip(t *testing.T) {
	in := buildTestInstance(t, 40)
	d := pager.NewDisk(pager.DefaultPageSize)
	st, err := Build(d, in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	ns, fork := mutateBoth(t, st, in)
	man, err := ns.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if _, err := fork.WriteTo(&img); err != nil {
		t.Fatal(err)
	}
	disk, err := pager.ReadDisk(&img)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Reopen(disk, in.Schema(), man)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Count() != ns.Count() {
		t.Fatalf("reopened count %d != %d", ro.Count(), ns.Count())
	}
	for _, c := range overlayCases {
		q := query.MustParse(c).(*query.Atomic)
		want := oracle(in, q)
		l, err := ro.Eval(q)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if got := keysOf(t, l); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("reopened %s:\n got %v\nwant %v", c, got, want)
		}
	}
}

func TestApplyOpsGatesAndErrors(t *testing.T) {
	in := buildTestInstance(t, 10)
	d := pager.NewDisk(pager.DefaultPageSize)
	st, err := Build(d, in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	s := in.Schema()
	apply := func(ops ...EntryOp) error {
		_, err := st.ApplyOps(st.Disk().Fork(), ops)
		return err
	}
	// Duplicate add.
	dup, err := model.NewEntryFromDN(s, model.MustParseDN("dc=att, dc=com"))
	if err != nil {
		t.Fatal(err)
	}
	if err := apply(EntryOp{Add: dup}); err == nil {
		t.Error("duplicate add accepted")
	}
	// Remove of a missing DN.
	if err := apply(EntryOp{Remove: model.MustParseDN("dc=nowhere")}); !errors.Is(err, ErrNoEntry) {
		t.Errorf("missing remove: %v", err)
	}
	// Vector-indexed entries fall back to a full rebuild.
	vec, err := model.NewEntryFromDN(s, model.MustParseDN("uid=v1, ou=userProfiles, dc=research, dc=att, dc=com"))
	if err != nil {
		t.Fatal(err)
	}
	vec.AddClass("inetOrgPerson")
	s.MustDefineAttr("profileEmbedding", model.VectorType(4))
	vec.Add("profileEmbedding", model.VectorValue([]float32{1, 2, 3, 4}))
	if err := apply(EntryOp{Add: vec}); !errors.Is(err, ErrNeedsRebuild) {
		t.Errorf("vector add: %v", err)
	}
	// Oversized records fall back to a full rebuild.
	big, err := model.NewEntryFromDN(s, model.MustParseDN("uid=big, ou=userProfiles, dc=research, dc=att, dc=com"))
	if err != nil {
		t.Fatal(err)
	}
	big.AddClass("inetOrgPerson")
	huge := make([]byte, 2048)
	for i := range huge {
		huge[i] = 'a'
	}
	big.Add("commonName", model.String(string(huge)))
	if err := apply(EntryOp{Add: big}); !errors.Is(err, ErrNeedsRebuild) {
		t.Errorf("oversized add: %v", err)
	}
}

// TestApplyOpsTouchesFewPages pins the tentpole property: an entry-level
// mutation dirties O(log N) pages on the fork, not the O(N) a full
// rebuild writes.
func TestApplyOpsTouchesFewPages(t *testing.T) {
	in := buildTestInstance(t, 400)
	d := pager.NewDisk(pager.DefaultPageSize)
	st, err := Build(d, in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	e, err := model.NewEntryFromDN(in.Schema(), model.MustParseDN("uid=zz, ou=userProfiles, dc=research, dc=att, dc=com"))
	if err != nil {
		t.Fatal(err)
	}
	e.AddClass("inetOrgPerson")
	e.Add("surName", model.String("tiny"))
	fork := d.Fork()
	if _, err := st.ApplyOps(fork, []EntryOp{{Add: e}}); err != nil {
		t.Fatal(err)
	}
	dirty, total := fork.DirtyCount(), d.NumPages()
	if dirty > 64 {
		t.Errorf("single add dirtied %d pages; want O(log N)", dirty)
	}
	if dirty*10 > total {
		t.Errorf("single add dirtied %d of %d pages; a delta buys nothing", dirty, total)
	}
}

// TestApplyOpsRemovesRepeatedPair: an entry may hold one (attribute,
// value) pair twice, and both copies map to one composite index key.
// Removing such an entry — master-resident or overlay-resident — must
// delete that key once and leave answers, the attribute index and its
// statistics equal to a rebuild's.
func TestApplyOpsRemovesRepeatedPair(t *testing.T) {
	in := buildTestInstance(t, 30)
	twice := func(dn string) *model.Entry {
		e, err := model.NewEntryFromDN(in.Schema(), model.MustParseDN(dn))
		if err != nil {
			t.Fatal(err)
		}
		e.AddClass("QHP")
		e.Add("priority", model.Int(5))
		e.Add("daysOfWeek", model.Int(3))
		e.Add("daysOfWeek", model.Int(3))
		return e
	}
	resident := twice("QHPName=q7, uid=u0001, ou=userProfiles, dc=research, dc=att, dc=com")
	if err := in.Add(resident); err != nil {
		t.Fatal(err)
	}
	st, err := Build(pager.NewDisk(pager.DefaultPageSize), in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	added := twice("QHPName=q8, uid=u0002, ou=userProfiles, dc=research, dc=att, dc=com")
	st, err = st.ApplyOps(st.Disk().Fork(), []EntryOp{{Add: added}})
	if err != nil {
		t.Fatal(err)
	}
	st, err = st.ApplyOps(st.Disk().Fork(), []EntryOp{{Remove: resident.DN()}, {Remove: added.DN()}})
	if err != nil {
		t.Fatalf("removing entries with a repeated pair: %v", err)
	}
	if !in.Remove(resident.DN()) {
		t.Fatal("oracle remove failed")
	}
	rebuilt, err := Build(pager.NewDisk(pager.DefaultPageSize), in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := append([]string{"(dc=com ? sub ? daysOfWeek=3)", "(dc=com ? sub ? priority=5)"}, overlayCases...)
	for _, c := range cases {
		q := query.MustParse(c).(*query.Atomic)
		want := oracle(in, q)
		for _, s := range []*Store{st, rebuilt} {
			for _, path := range []string{PathScan, PathIndex} {
				l, err := s.EvalPath(q, path)
				if err != nil {
					t.Fatalf("%s path=%s: %v", c, path, err)
				}
				if got := keysOf(t, l); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s path=%s (rebuilt %v):\n got %v\nwant %v", c, path, s == rebuilt, got, want)
				}
			}
		}
	}
	indexKeys := func(s *Store) []string {
		var keys []string
		if err := s.attr.Scan(nil, nil, func(k, _ []byte) bool {
			keys = append(keys, string(k))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return keys
	}
	if got, want := indexKeys(st), indexKeys(rebuilt); fmt.Sprint(got) != fmt.Sprint(want) || st.attr.Len() != len(want) {
		t.Errorf("attribute index: %d keys (Len %d), rebuild has %d", len(got), st.attr.Len(), len(want))
	}
	for _, a := range []string{"daysofweek", "priority"} {
		got, want := st.stats.attrs[a], rebuilt.stats.attrs[a]
		if got == nil || want == nil {
			t.Fatalf("%s: no statistics (%v, %v)", a, got, want)
		}
		gi := append([]int64(nil), got.intVals...)
		wi := append([]int64(nil), want.intVals...)
		sort.Slice(gi, func(i, j int) bool { return gi[i] < gi[j] })
		sort.Slice(wi, func(i, j int) bool { return wi[i] < wi[j] })
		if got.postings != want.postings || fmt.Sprint(gi) != fmt.Sprint(wi) {
			t.Errorf("%s statistics: %d postings %v, rebuild %d %v", a, got.postings, gi, want.postings, wi)
		}
	}
}
