package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dirserver"
	"repro/internal/model"
	"repro/internal/qcache"
)

// wireWorkload: the dial sequence over loopback TCP through
// dirserver.Server and one pooled dirserver.Client, callees
// Zipf-distributed, server result cache sized so the hot set fits but
// the whole directory does not. Wire encoding and the qcache dominate.
const (
	wireDials  = 16000
	wireWarmup = 1000
	zipfS      = 1.4  // Zipf exponent of the callees, the skew of the E18 cache experiment
	zipfBlock  = 2000 // dials between redraws of the popularity order
	// cacheBytes is the result-cache budget of dial-wire's server and of
	// provision's directory: the dial-wire hot set fits, the whole
	// directory's dial answers do not.
	cacheBytes = 1 << 20
)

type wireWorkload struct {
	dir              *directory
	warm, calls      []call
	wantWarm, wantOp []routeAnswer
}

func (w *wireWorkload) prepare(seed int64) error {
	w.dir = genDirectory(seed)
	r := rand.New(rand.NewSource(seed))
	all := zipfCalls(r, w.dir.uids, wireWarmup+wireDials)
	w.warm, w.calls = all[:wireWarmup], all[wireWarmup:]
	m := newDirModel(w.dir.inst.Entries())
	w.wantWarm = oracleRoutes(m, w.warm)
	w.wantOp = oracleRoutes(m, w.calls)
	return nil
}

// wireClient dials by name through the protocol: the same three
// one-level searches as tops.Lookup, with the QHP choice made on the
// client from the entries the server returns. tops.Lookup needs an
// in-process *core.Directory, so this routing is the benchmark's own
// and reads QHPs as the route oracle does (qhpApplies, priorityOf).
type wireClient struct {
	cl   *dirserver.Client
	addr string
	// split accumulates the traced time split of each call when set.
	split func(rtt time.Duration, rt *dirserver.RemoteTrace)
}

func (c *wireClient) search(ctx context.Context, text string) ([]*model.Entry, error) {
	if c.split == nil {
		return c.cl.Call(ctx, c.addr, "query", text)
	}
	t0 := time.Now()
	// An empty trace ID keeps the server on its untraced, cached path
	// while the reply still carries its serve and queue times.
	entries, _, rt, err := c.cl.CallTraced(ctx, c.addr, "query", text, "", 0)
	if err == nil {
		c.split(time.Since(t0), rt)
	}
	return entries, err
}

func (c *wireClient) dial(ctx context.Context, k call) (routeAnswer, error) {
	subs, err := c.search(ctx, fmt.Sprintf("(%s ? one ? uid=%s)", topsBase, k.uid))
	if err != nil {
		return routeAnswer{}, err
	}
	var sub *model.Entry
	for _, e := range subs {
		if e.HasClass("TOPSSubscriber") {
			sub = e
			break
		}
	}
	if sub == nil {
		return routeAnswer{miss: "no-subscriber"}, nil
	}
	qhps, err := c.search(ctx, fmt.Sprintf("(%s ? one ? objectClass=QHP)", sub.DN()))
	if err != nil {
		return routeAnswer{}, err
	}
	var best *model.Entry
	for _, q := range qhps {
		if qhpApplies(q, k) && (best == nil || priorityOf(q) < priorityOf(best)) {
			best = q
		}
	}
	if best == nil {
		return routeAnswer{miss: "no-qhp"}, nil
	}
	cas, err := c.search(ctx, fmt.Sprintf("(%s ? one ? objectClass=callAppearance)", best.DN()))
	if err != nil {
		return routeAnswer{}, err
	}
	sort.SliceStable(cas, func(i, j int) bool { return priorityOf(cas[i]) < priorityOf(cas[j]) })
	ans := routeAnswer{sub: sub.Key(), qhp: best.Key()}
	for _, a := range cas {
		ans.apps = append(ans.apps, a.Key())
	}
	return ans, nil
}

func (w *wireWorkload) round(rec *recorder) error {
	start := time.Now()
	d, err := core.Open(w.dir.inst, core.Options{CacheBytes: cacheBytes})
	if err != nil {
		return err
	}
	srv, err := dirserver.Serve(d, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	rec.setupDone(time.Since(start))
	if rec.trace {
		if _, err := traceSetup(rec, w.dir.inst, d); err != nil {
			return err
		}
	}
	cl := dirserver.NewClient(d.Schema(), dirserver.ClientConfig{MaxRetries: -1})
	defer cl.Close()
	c := &wireClient{cl: cl, addr: srv.Addr()}
	ctx := context.Background()
	for i, k := range w.warm {
		ans, err := c.dial(ctx, k)
		if err != nil {
			return fmt.Errorf("warm-up dial %d: %w", i, err)
		}
		if ans.String() != w.wantWarm[i].String() {
			return fmt.Errorf("warm-up dial %d: route %q, oracle %q", i, ans, w.wantWarm[i])
		}
	}
	if rec.trace {
		c.split = func(rtt time.Duration, rt *dirserver.RemoteTrace) {
			rec.add("dirserver.rtt_us", us(rtt))
			rec.add("dirserver.serve_us", us(rt.Serve))
			rec.add("dirserver.queue_us", us(rt.Queue))
			rec.add("dirserver.wire_us", us(rt.Wire))
		}
	}
	runtime.GC()
	for i, k := range w.calls {
		var cache0 qcache.Stats
		if rec.trace {
			cache0 = d.CacheStats()
		}
		disk := d.Disk()
		before := disk.Stats().Reads
		a0 := allocBytes()
		t0 := time.Now()
		ans, err := c.dial(ctx, k)
		lat := time.Since(t0)
		alloc := allocBytes() - a0
		pages := disk.Stats().Reads - before
		rec.count("dial", err != nil)
		if err != nil {
			return fmt.Errorf("dial %d: %w", i, err)
		}
		if ans.String() != w.wantOp[i].String() {
			return fmt.Errorf("dial %d: route %q, oracle %q", i, ans, w.wantOp[i])
		}
		rec.timedOp(lat, pages, alloc)
		if rec.trace {
			rec.addCache(cache0, d.CacheStats())
		}
	}
	if st := cl.Stats(); st.Retries != 0 {
		return fmt.Errorf("client retried %d calls", st.Retries)
	}
	return nil
}

// addCache accumulates the result cache's counters over one dial.
func (r *recorder) addCache(before, after qcache.Stats) {
	r.sums["qcache.hits"] += float64(after.Hits + after.Inflight - before.Hits - before.Inflight)
	r.sums["qcache.misses"] += float64(after.Misses - before.Misses)
	r.sums["qcache.evictions"] += float64(after.Evictions - before.Evictions)
	r.sums["qcache.dials"]++
}

// cacheMetrics turns the accumulated cache counters into the hit ratio
// and evictions per thousand dials.
func (r *recorder) cacheMetrics() {
	if n := r.sums["qcache.hits"] + r.sums["qcache.misses"]; n > 0 {
		r.add("qcache.hit_ratio", r.sums["qcache.hits"]/n)
	}
	if r.sums["qcache.dials"] > 0 {
		r.add("qcache.evictions_per_kdial", r.sums["qcache.evictions"]*1000/r.sums["qcache.dials"])
	}
}
