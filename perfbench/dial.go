package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/apps/tops"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pager"
	"repro/internal/planner"
	"repro/internal/qcache"
	"repro/internal/query"
	"repro/internal/store"
)

// dialWorkload: in-process tops.Lookup (three one-level searches) on
// uniformly drawn callees, result cache off. Fixed per-query cost
// dominates: parse, validate, arena, B-tree descent, entry decode.
const (
	dialsPerRound = 10000
	dialWarmup    = 600
)

type dialWorkload struct {
	dir              *directory
	warm, calls      []call
	wantWarm, wantOp []routeAnswer
}

func (w *dialWorkload) prepare(seed int64) error {
	w.dir = genDirectory(seed)
	r := rand.New(rand.NewSource(seed))
	w.warm = uniformCalls(r, w.dir.uids, dialWarmup)
	w.calls = uniformCalls(r, w.dir.uids, dialsPerRound)
	m := newDirModel(w.dir.inst.Entries())
	w.wantWarm = oracleRoutes(m, w.warm)
	w.wantOp = oracleRoutes(m, w.calls)
	return nil
}

func oracleRoutes(m *dirModel, calls []call) []routeAnswer {
	out := make([]routeAnswer, len(calls))
	for i, c := range calls {
		out[i] = m.oracleRoute(topsBase, c)
	}
	return out
}

func (w *dialWorkload) round(rec *recorder) error {
	start := time.Now()
	d, err := core.Open(w.dir.inst, core.Options{})
	if err != nil {
		return err
	}
	rec.setupDone(time.Since(start))
	if rec.trace {
		if _, err := traceSetup(rec, w.dir.inst, d); err != nil {
			return err
		}
	}
	for i, c := range w.warm {
		if err := checkRoute(lookup(d, c), w.wantWarm[i]); err != nil {
			return fmt.Errorf("warm-up dial %d: %w", i, err)
		}
	}
	runtime.GC()
	for i, c := range w.calls {
		if err := timedDial(rec, d, c, w.wantOp[i], true); err != nil {
			return fmt.Errorf("dial %d: %w", i, err)
		}
	}
	return nil
}

// timedDial runs one in-process dial, checks it against the oracle and
// records it — as the workload's timed operation when primary, else as
// a named "dial_ms" sample. Page I/O is the store reads the dial caused.
func timedDial(rec *recorder, d *core.Directory, c call, want routeAnswer, primary bool) error {
	disk := d.Disk()
	before := disk.Stats().Reads
	var cache0 qcache.Stats
	if rec.trace {
		cache0 = d.CacheStats()
	}
	a0 := allocBytes()
	t0 := time.Now()
	route, err := tops.Lookup(d, topsBase, tops.Call{CalleeUID: c.uid, Time: c.time, DayOfWeek: c.day})
	lat := time.Since(t0)
	alloc := allocBytes() - a0
	pages := disk.Stats().Reads - before
	rec.count("dial", false)
	if err := checkRoute(lookupResult{route, err}, want); err != nil {
		return err
	}
	if primary {
		rec.timedOp(lat, pages, alloc)
	} else {
		rec.sample("dial_ms", ms(lat))
		rec.sample("dial_pages", float64(pages))
	}
	if rec.trace {
		rec.add("core.alloc_kb_per_dial", float64(alloc)/1024)
		rec.addCache(cache0, d.CacheStats())
		return traceDialQueries(rec, d, c, route)
	}
	return nil
}

type lookupResult struct {
	route *tops.Route
	err   error
}

func lookup(d *core.Directory, c call) lookupResult {
	r, err := tops.Lookup(d, topsBase, tops.Call{CalleeUID: c.uid, Time: c.time, DayOfWeek: c.day})
	return lookupResult{r, err}
}

// checkRoute compares a dial's outcome with the oracle's. A miss the
// oracle also finds is a correct answer.
func checkRoute(got lookupResult, want routeAnswer) error {
	var ans routeAnswer
	switch {
	case errors.Is(got.err, tops.ErrNoQHP):
		ans.miss = "no-qhp"
	case errors.Is(got.err, tops.ErrNoSubscriber):
		ans.miss = "no-subscriber"
	case got.err != nil:
		return got.err
	default:
		ans.sub, ans.qhp = got.route.Subscriber.Key(), got.route.QHP.Key()
		for _, a := range got.route.Appearances {
			ans.apps = append(ans.apps, a.Key())
		}
	}
	if ans.String() != want.String() {
		return fmt.Errorf("route %q, oracle %q", ans, want)
	}
	return nil
}

// dialTexts are the one-level searches tops.Lookup issued for a dial.
func dialTexts(c call, route *tops.Route) []string {
	texts := []string{fmt.Sprintf("(%s ? one ? uid=%s)", topsBase, c.uid)}
	if route != nil {
		texts = append(texts,
			fmt.Sprintf("(%s ? one ? objectClass=QHP)", route.Subscriber.DN()),
			fmt.Sprintf("(%s ? one ? objectClass=callAppearance)", route.QHP.DN()))
	}
	return texts
}

// traceDialQueries replays a dial's searches through the layers one at
// a time: parse, validate, SearchQuery, and a traced evaluation for the
// store's atomic spans.
func traceDialQueries(rec *recorder, d *core.Directory, c call, route *tops.Route) error {
	for _, text := range dialTexts(c, route) {
		if err := traceQuery(rec, d, text, nil); err != nil {
			return err
		}
	}
	return nil
}

// traceQuery times the query layers for one text. A non-nil plan is
// the planner's information for timing its algebraic pass on its own.
func traceQuery(rec *recorder, d *core.Directory, text string, plan *planner.Info) error {
	t0 := time.Now()
	q, err := query.Parse(text)
	rec.add("query.parse_us", us(time.Since(t0)))
	if err != nil {
		return err
	}
	t0 = time.Now()
	err = query.Validate(d.Schema(), q)
	rec.add("query.validate_us", us(time.Since(t0)))
	if err != nil {
		return err
	}
	if plan != nil {
		t0 = time.Now()
		_ = planner.Optimize(q, *plan)
		rec.add("planner.optimize_us", us(time.Since(t0)))
	}
	// With the result cache on, the search right after the operation
	// would be a cache hit; only the traced, cache-bypassing evaluation
	// is replayed there.
	if d.CacheStats().MaxBytes == 0 {
		t0 = time.Now()
		if _, err := d.SearchQuery(q); err != nil {
			return err
		}
		rec.add("core.search_us", us(time.Since(t0)))
	}
	_, root, err := d.SearchQueryTraced(context.Background(), q)
	if err != nil {
		return err
	}
	rec.addSpans(root)
	return obsCheck(root)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// obsCheck asserts the span tree's page-I/O conservation law.
func obsCheck(root *obs.Span) error {
	if root == nil {
		return fmt.Errorf("traced search returned no span tree")
	}
	return root.CheckConservation()
}

// traceSetup splits set-up into its layers: store.Build on a fresh
// pager.Disk, strict-forest validation of the instance, and the size of
// the opened device. It returns the store it built.
func traceSetup(rec *recorder, inst *model.Instance, d *core.Directory) (*store.Store, error) {
	disk := pager.NewDisk(0)
	t0 := time.Now()
	st, err := store.Build(disk, inst, store.Options{AttrIndex: true})
	if err != nil {
		return nil, err
	}
	rec.add("store.build_s", time.Since(t0).Seconds())
	rec.add("store.build_pages", float64(disk.Stats().IO()))
	t0 = time.Now()
	_ = inst.Validate(true)
	rec.add("model.validate_ms", ms(time.Since(t0)))
	rec.add("pager.device_pages", float64(d.Disk().NumPages()))
	return st, nil
}
