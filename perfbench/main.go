// Command perfbench measures the directory system on four fixed, seeded
// workloads — dial, audit, provision and dial-wire — checking every
// answer against oracles computed apart from the program.
//
//	go run . --workload dial --seed 1 --seconds 20 --trace 0
//
// A run repeats whole rounds of one seeded operation sequence until the
// time is used. Each round sets the directory up afresh, runs an untimed
// warm-up, forces a GC and then runs the timed operations, so every
// round performs the same operations in the same order and page counts
// repeat exactly. With --trace 0 the last line of standard output holds
// the end-to-end metrics; with --trace 1 the same sequences run through
// per-layer timers and the last line holds the per-layer metrics. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// minRounds keeps setup_s a median of several set-ups. A traced run
// reports means per observation and needs only one round.
const minRounds = 3

// workload is one benchmark workload: prepare builds the seeded inputs
// and oracle answers once per run; round runs one whole round.
type benchWorkload interface {
	prepare(seed int64) error
	round(rec *recorder) error
}

func main() {
	name := flag.String("workload", "", "dial | audit | provision | dial-wire")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measuring time; whole rounds run until it is used")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics instead of end-to-end ones")
	flag.StringVar(&workDir, "workdir", workDir, "directory for the durable stores provision writes")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string) (benchWorkload, error) {
	switch name {
	case "dial":
		return &dialWorkload{}, nil
	case "audit":
		return &auditWorkload{}, nil
	case "provision":
		return &provisionWorkload{}, nil
	case "dial-wire":
		return &wireWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func run(name string, seed int64, seconds float64, trace bool) error {
	w, err := newWorkload(name)
	if err != nil {
		return err
	}
	if err := w.prepare(seed); err != nil {
		return err
	}
	rec := newRecorder(trace)
	least := minRounds
	if trace {
		least = 1
	}
	start := time.Now()
	var last time.Duration
	for rounds := 0; rounds < least || time.Since(start)+last <= time.Duration(seconds*float64(time.Second)); rounds++ {
		t := time.Now()
		if err := w.round(rec); err != nil {
			return fmt.Errorf("%s round %d: %w", name, rounds+1, err)
		}
		last = time.Since(t)
		rec.endRound()
	}
	fmt.Printf("workload=%s seed=%d rounds=%d elapsed_s=%.1f GOMAXPROCS=%d nproc=%d trace=%v\n",
		name, seed, rec.rounds, time.Since(start).Seconds(), runtime.GOMAXPROCS(0), runtime.NumCPU(), trace)
	return rec.report(name)
}

// --- recording ---

// opCount is the accounting of one operation type.
type opCount struct{ Attempted, Failed int64 }

// recorder collects one run's samples.
type recorder struct {
	trace  bool
	rounds int
	ops    map[string]*opCount // dial, query, write, checkpoint, recover

	setupS  []float64
	heapMB  []float64
	opMS    []float64 // the workload's timed operation
	opBusy  time.Duration
	opPages int64
	opAlloc uint64 // heap bytes the timed operations allocated
	// roundOps and roundBusy mark where the current round began;
	// roundRate holds each finished round's ops per second of op time.
	roundOps  int
	roundBusy time.Duration
	roundRate []float64
	// named holds further samples reported by name (the workload's
	// secondary operations and its layer figures).
	named map[string][]float64
	// sums hold per-layer totals and counts: a layer metric is
	// sums[name] / sums[name+"#n"].
	sums map[string]float64
}

func newRecorder(trace bool) *recorder {
	return &recorder{trace: trace, ops: make(map[string]*opCount), named: make(map[string][]float64), sums: make(map[string]float64)}
}

func (r *recorder) count(op string, failed bool) {
	c := r.ops[op]
	if c == nil {
		c = &opCount{}
		r.ops[op] = c
	}
	c.Attempted++
	if failed {
		c.Failed++
	}
}

// timedOp records one timed operation of the workload's main kind:
// its latency, page I/O and heap allocation.
func (r *recorder) timedOp(d time.Duration, pages int64, alloc uint64) {
	r.opMS = append(r.opMS, ms(d))
	r.opBusy += d
	r.opPages += pages
	r.opAlloc += alloc
}

// endRound closes a round's throughput sample.
func (r *recorder) endRound() {
	r.rounds++
	r.roundRate = append(r.roundRate, float64(len(r.opMS)-r.roundOps)/(r.opBusy-r.roundBusy).Seconds())
	r.roundOps, r.roundBusy = len(r.opMS), r.opBusy
}

func (r *recorder) sample(name string, v float64) { r.named[name] = append(r.named[name], v) }

// add accumulates one observation of a per-layer metric.
func (r *recorder) add(name string, v float64) {
	r.sums[name] += v
	r.sums[name+"#n"]++
}

// setupDone records one set-up and the live heap right after it.
func (r *recorder) setupDone(d time.Duration) {
	r.setupS = append(r.setupS, d.Seconds())
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.heapMB = append(r.heapMB, float64(m.HeapAlloc)/(1<<20))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// allocBytes reads the process's cumulative heap allocation. Around a
// dial-wire call it includes the server goroutine's share: the one
// client waits for each reply, so nothing else runs meanwhile.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// aliases give the generic "op" metrics their per-workload names
// (op_p50_ms is dial_p50_ms on dial); they are printed, not reported.
var aliases = map[string]map[string]string{
	"dial": {"op_p50_ms": "dial_p50_ms", "op_p90_ms": "dial_p90_ms", "op_p99_ms": "dial_p99_ms", "ops_per_s": "dials_per_s",
		"op_pages": "dial_pages", "op_alloc_kb": "dial_alloc_kb"},
	"audit": {"op_p50_ms": "query_p50_ms", "op_p90_ms": "query_p90_ms", "op_p99_ms": "query_p99_ms", "ops_per_s": "queries_per_s",
		"op_pages": "query_pages", "op_alloc_kb": "query_alloc_kb"},
	"provision": {"op_p50_ms": "write_p50_ms", "op_p90_ms": "write_p90_ms", "op_p99_ms": "write_p99_ms", "ops_per_s": "writes_per_s",
		"op_pages": "dirty_pages_per_write", "op_alloc_kb": "write_alloc_kb"},
	"dial-wire": {"op_p50_ms": "dial_p50_ms", "op_p90_ms": "dial_p90_ms", "op_p99_ms": "dial_p99_ms", "ops_per_s": "dials_per_s",
		"op_pages": "dial_pages", "op_alloc_kb": "dial_alloc_kb"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints the accounting, the metrics and the ungated figures,
// then the result line. The end-to-end metrics are generic over the
// workload's timed operation (see README.md for what "op" is per
// workload).
func (r *recorder) report(name string) error {
	res := result{Correct: true, Metrics: make(map[string]metric)}
	opNames := make([]string, 0, len(r.ops))
	for k := range r.ops {
		opNames = append(opNames, k)
	}
	sort.Strings(opNames)
	for _, k := range opNames {
		c := r.ops[k]
		fmt.Printf("ops %-10s attempted=%d failed=%d\n", k, c.Attempted, c.Failed)
		res.Attempted += c.Attempted
		res.Failed += c.Failed
	}
	named := make([]string, 0, len(r.named))
	for k := range r.named {
		named = append(named, k)
	}
	sort.Strings(named)
	report := make(map[string]float64)
	for _, k := range named {
		v := r.named[k]
		report[k+".p50"] = quantile(v, 0.5)
		report[k+".p90"] = quantile(v, 0.9)
	}
	if len(r.opMS) == 0 {
		return fmt.Errorf("no timed operations")
	}
	// The op's timings are figures, not gated metrics: on a shared
	// machine their spread between identical runs exceeds the largest
	// bound a metric may have (README.md, "Why these metrics").
	report["op_p50_ms"] = quantile(r.opMS, 0.5)
	report["op_p90_ms"] = quantile(r.opMS, 0.9)
	report["op_p99_ms"] = quantile(r.opMS, 0.99)
	report["ops_per_s"] = quantile(r.roundRate, 0.5)
	if r.trace {
		r.cacheMetrics()
		for _, lm := range layerMetrics {
			v := 0.0
			if n := r.sums[lm.name+"#n"]; n > 0 {
				v = r.sums[lm.name] / n
			}
			switch lm.name {
			case "traced.op_p50_ms":
				v = quantile(r.opMS, 0.5)
			case "traced.op_p90_ms":
				v = quantile(r.opMS, 0.9)
			}
			res.Metrics[lm.name] = metric{Value: v, Unit: lm.unit}
		}
	} else {
		res.Metrics["setup_s"] = metric{quantile(r.setupS, 0.5), "s"}
		res.Metrics["live_heap_mb"] = metric{quantile(r.heapMB, 0.5), "MiB"}
		res.Metrics["op_pages"] = metric{float64(r.opPages) / float64(len(r.opMS)), "pages"}
		res.Metrics["op_alloc_kb"] = metric{float64(r.opAlloc) / 1024 / float64(len(r.opMS)), "KiB"}
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		alias := ""
		if a := aliases[name][k]; a != "" {
			alias = "= " + a
		}
		fmt.Printf("metric %-32s %14.6f %-6s %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit, alias)
	}
	keys = keys[:0]
	for k := range report {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		alias := ""
		if a := aliases[name][k]; a != "" {
			alias = "= " + a
		}
		fmt.Printf("figure %-32s %14.6f %s\n", k, report[k], alias)
	}
	if b, err := json.Marshal(map[string]any{"workload": name, "figures": report, "n": len(r.opMS)}); err == nil {
		fmt.Printf("report %s\n", b)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
