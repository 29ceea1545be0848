package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/store"
)

// provisionWorkload: subscriber churn. Writes alternate between adding a
// new subscriber subtree and removing a resident one; each write is
// acknowledged only after a synchronous delta-capable Checkpoint to a
// durable.Store with default retention — dirserve's -mutable
// -delta-checkpoints path. Dials run between writes, and the round ends
// with core.Recover. The write path dominates: model clone and
// validate, store.ApplyOps on a pager fork, durable commit and fsync.
type provisionWorkload struct {
	dir   *directory
	warm  []call
	steps []provStep
	work  string // scratch directory for the durable stores
}

const (
	provWrites       = 36 // writes per round, alternating add and remove
	provDialsBetween = 10 // dials after each write
	provWarmDials    = 200
)

// probeWrites are the write positions (removals) that target the
// probe subscribers; they fail every time while the repeated-pair
// removal fault stands.
var probeWrites = map[int]string{7: probeUIDs[0], 17: probeUIDs[1]}

// provStep is one write and the dials that follow it.
type provStep struct {
	add    []*model.Entry // subtree to add, parent first
	remove string         // subscriber DN to remove with its subtree
	probe  bool           // a removal expected to fail
	dials  []call
}

// provSizes are the subtree sizes (entries) of the subscribers the
// writes add and remove, in order. Choosing subscribers by size keeps
// the work per write the same for every seed; the seed picks which
// subscribers of each size.
var provSizes = []int{5, 9, 13, 7, 11, 6, 10, 8, 12, 9, 7, 11}

// candidate is a subscriber subtree a write can add or remove.
type candidate struct {
	uid     string
	entries []*model.Entry
}

// pickSize removes and returns the first candidate of the wanted size,
// or of the nearest size present.
func pickSize(pool *[]candidate, size int) candidate {
	best := 0
	for i, c := range *pool {
		if abs(len(c.entries)-size) < abs(len((*pool)[best].entries)-size) {
			best = i
		}
	}
	c := (*pool)[best]
	*pool = append((*pool)[:best], (*pool)[best+1:]...)
	return c
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (w *provisionWorkload) prepare(seed int64) error {
	w.dir = genDirectory(seed)
	r := rand.New(rand.NewSource(seed))
	var fresh, removable []candidate
	for i, entries := range w.dir.fresh {
		fresh = append(fresh, candidate{uidOf(subscribers + i), entries})
	}
	for _, uid := range w.dir.uids {
		if entries := subtreeOf(w.dir.inst, subDN(uid)); !hasRepeatedPair(entries) {
			removable = append(removable, candidate{uid, entries})
		}
	}
	r.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	r.Shuffle(len(removable), func(i, j int) { removable[i], removable[j] = removable[j], removable[i] })
	w.warm = uniformCalls(r, w.dir.uids, provWarmDials)
	present := append([]string(nil), w.dir.uids...)
	drop := func(uid string) {
		for i, u := range present {
			if u == uid {
				present = append(present[:i], present[i+1:]...)
				return
			}
		}
	}
	for i := 0; i < provWrites; i++ {
		var st provStep
		size := provSizes[(i/2)%len(provSizes)]
		switch {
		case i%2 == 0:
			c := pickSize(&fresh, size)
			st.add = c.entries
			present = append(present, c.uid)
		case probeWrites[i] != "":
			st.remove, st.probe = subDN(probeWrites[i]), true
		default:
			c := pickSize(&removable, size)
			st.remove = subDN(c.uid)
			drop(c.uid)
		}
		st.dials = uniformCalls(r, present, provDialsBetween)
		w.steps = append(w.steps, st)
	}
	w.work = filepath.Join(workDir, fmt.Sprintf("provision-%d", os.Getpid()))
	return nil
}

// workDir holds the durable stores; perfbench runs from the checkout
// root and keeps its files below it.
var workDir = filepath.Join(".bench_build", "run")

func (w *provisionWorkload) round(rec *recorder) error {
	dataDir := filepath.Join(w.work, fmt.Sprintf("round-%d", rec.rounds))
	defer os.RemoveAll(w.work)
	fs, err := pager.DirFS(dataDir)
	if err != nil {
		return err
	}
	opts := core.Options{DeltaCheckpoints: true, CacheBytes: cacheBytes}
	start := time.Now()
	d, err := core.Open(w.dir.inst, opts)
	if err != nil {
		return err
	}
	ds, err := durable.Open(fs, durable.Options{})
	if err != nil {
		return err
	}
	if _, err := d.Checkpoint(ds); err != nil {
		return err
	}
	rec.setupDone(time.Since(start))
	var replay *store.Store
	if rec.trace {
		if replay, err = traceSetup(rec, w.dir.inst, d); err != nil {
			return err
		}
	}
	m := newDirModel(w.dir.inst.Entries())
	for _, c := range w.warm {
		if err := checkRoute(lookup(d, c), m.oracleRoute(topsBase, c)); err != nil {
			return fmt.Errorf("warm-up dial: %w", err)
		}
	}
	runtime.GC()

	st0 := ds.Stats()
	acked, deltas := 0, 0
	for i, step := range w.steps {
		ops := step.ops(m)
		if rec.trace {
			traceModel(rec, d.Instance())
		}
		gen, count := d.Generation(), d.Count()
		stats := ds.Stats()
		a0 := allocBytes()
		t0 := time.Now()
		err := d.UpdateEntries(ops...)
		upd := time.Since(t0)
		dirty := 0
		var ckpt time.Duration
		if err == nil {
			dirty = d.Disk().DirtyCount()
			t1 := time.Now()
			_, cerr := d.Checkpoint(ds)
			ckpt = time.Since(t1)
			rec.count("checkpoint", cerr != nil)
			if cerr != nil {
				return fmt.Errorf("write %d: checkpoint: %w", i, cerr)
			}
		}
		lat := time.Since(t0)
		alloc := allocBytes() - a0
		rec.count("write", err != nil)
		if err != nil {
			// A refused write must leave the directory as it was.
			if d.Generation() != gen || d.Count() != count {
				return fmt.Errorf("write %d failed (%v) but moved the directory: gen %d→%d, entries %d→%d",
					i, err, gen, d.Generation(), count, d.Count())
			}
			// Only the known fault may refuse a probe removal: the second
			// index delete of a repeated pair finds no key.
			if !step.probe || !errors.Is(err, btree.ErrNotFound) {
				return fmt.Errorf("write %d: %w", i, err)
			}
		} else {
			acked++
			step.apply(m, ops)
			if d.Generation() != gen+1 || d.Count() != len(m.byKey) {
				return fmt.Errorf("write %d: gen %d→%d, entries %d, model %d", i, gen, d.Generation(), d.Count(), len(m.byKey))
			}
			rec.timedOp(lat, int64(dirty), alloc)
			after := ds.Stats()
			base, _ := ds.BaseOf(d.Generation())
			if base != 0 {
				deltas++
			}
			if rec.trace {
				rec.add("core.alloc_kb_per_write", float64(alloc)/1024)
				rec.add("core.update_entries_ms", ms(upd))
				rec.add("core.checkpoint_ms", ms(ckpt))
				rec.add("pager.dirty_pages_per_write", float64(dirty))
				kb := float64(after.CommitBytes-stats.CommitBytes) / 1024
				if base != 0 {
					rec.add("durable.delta_kb", kb)
				} else {
					rec.add("durable.full_image_kb", kb)
				}
				rec.add("durable.fsync_kb_per_write", float64(after.BytesFsynced-stats.BytesFsynced)/1024)
				t2 := time.Now()
				next, err := replay.ApplyOps(replay.Disk().Fork(), ops)
				rec.add("store.apply_ops_ms", ms(time.Since(t2)))
				if err != nil {
					return fmt.Errorf("write %d: replaying through store.ApplyOps: %w", i, err)
				}
				replay = next
			}
		}
		for _, c := range step.dials {
			if err := timedDial(rec, d, c, m.oracleRoute(topsBase, c), false); err != nil {
				return fmt.Errorf("dial after write %d: %w", i, err)
			}
		}
	}
	st1 := ds.Stats()
	ckptKB := float64(st1.CommitBytes-st0.CommitBytes) / 1024 / float64(acked)
	rec.sample("ckpt_kb_per_write", ckptKB)

	segments := ds.DeltaChainLen() + 1
	t0 := time.Now()
	rd, info, err := core.Recover(ds, opts)
	recoverTime := time.Since(t0)
	rec.count("recover", err != nil)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	rec.sample("recover_s", recoverTime.Seconds())
	if info.Gen != d.Generation() || info.Skipped != 0 {
		return fmt.Errorf("recovered generation %d (skipped %d), live %d", info.Gen, info.Skipped, d.Generation())
	}
	if err := sameContents(m, d, rd); err != nil {
		return err
	}
	if rec.trace {
		rec.add("durable.ckpt_kb_per_write", ckptKB)
		rec.add("durable.delta_fraction", float64(deltas)/float64(acked))
		rec.add("durable.recover_segments", float64(segments))
		rec.add("core.recover_ms", ms(recoverTime))
	}
	return nil
}

// ops turns a step into entry operations against the model's current
// contents: an add inserts parent first, a removal deletes the whole
// subtree children first.
func (st provStep) ops(m *dirModel) []store.EntryOp {
	var ops []store.EntryOp
	if st.add != nil {
		for _, e := range st.add {
			ops = append(ops, store.EntryOp{Add: e})
		}
		return ops
	}
	var keys []string
	var walk func(k string)
	walk = func(k string) {
		keys = append(keys, k)
		for c := range m.children[k] {
			walk(c)
		}
	}
	walk(model.MustParseDN(st.remove).Key())
	// A descendant's key extends its ancestor's, so descending key
	// order removes children before their parents.
	sort.Slice(keys, func(i, j int) bool { return keys[i] > keys[j] })
	for _, k := range keys {
		ops = append(ops, store.EntryOp{Remove: m.byKey[k].DN()})
	}
	return ops
}

// apply records an acknowledged write in the model.
func (st provStep) apply(m *dirModel, ops []store.EntryOp) {
	for _, op := range ops {
		if op.Add != nil {
			m.add(op.Add)
		} else {
			m.remove(op.Remove.Key())
		}
	}
}

// traceModel times the model-layer work a write does on the live
// instance: the deep clone and the strict-forest validation.
func traceModel(rec *recorder, inst *model.Instance) {
	t0 := time.Now()
	_ = inst.Clone()
	rec.add("model.clone_ms", ms(time.Since(t0)))
	t0 = time.Now()
	_ = inst.Validate(true)
	rec.add("model.validate_ms", ms(time.Since(t0)))
}

// dumpQuery selects every entry of the directory.
const dumpQuery = "(dc=com ? sub ? objectClass=*)"

// sameContents checks that the live and the recovered directory both
// answer the full dump with exactly the model's entries.
func sameContents(m *dirModel, live, recovered *core.Directory) error {
	keys := make([]string, 0, len(m.byKey))
	for k := range m.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for name, d := range map[string]*core.Directory{"live": live, "recovered": recovered} {
		res, err := d.Search(dumpQuery)
		if err != nil {
			return fmt.Errorf("%s dump: %w", name, err)
		}
		if err := checkAnswer(res, keys); err != nil {
			return fmt.Errorf("%s dump: %w", name, err)
		}
		for _, e := range res.Entries {
			if !e.Equal(m.byKey[e.Key()]) {
				return fmt.Errorf("%s entry %s differs from the model", name, e.DN())
			}
		}
	}
	return nil
}
