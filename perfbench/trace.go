package main

import (
	"time"

	"repro/internal/obs"
)

// layerMetrics are the per-layer metrics a --trace 1 run reports, in
// the order and with the units BENCHMARK.json lists. Every workload
// reports all of them; a layer the workload does not exercise reads 0.
// Each is a mean per observation (per query text, per query, per dial,
// per write, per round) unless its name says otherwise.
var layerMetrics = []struct{ name, unit string }{
	{"traced.op_p50_ms", "ms"}, // the timed operation under tracing: overhead = this − op_p50_ms
	{"traced.op_p90_ms", "ms"},
	{"query.parse_us", "us"},
	{"query.validate_us", "us"},
	{"planner.optimize_us", "us"},
	{"core.search_us", "us"},
	{"core.alloc_kb_per_dial", "KiB"},
	{"core.alloc_kb_per_query", "KiB"},
	{"core.alloc_kb_per_write", "KiB"},
	{"engine.hspc_ms", "ms"},
	{"engine.hsad_ms", "ms"},
	{"engine.hsadc_ms", "ms"},
	{"engine.agg_ms", "ms"},
	{"engine.erdv_ms", "ms"},
	{"engine.bool_ms", "ms"},
	{"engine.hspc_pages", "pages"},
	{"engine.hsad_pages", "pages"},
	{"engine.hsadc_pages", "pages"},
	{"engine.agg_pages", "pages"},
	{"engine.erdv_pages", "pages"},
	{"engine.bool_pages", "pages"},
	{"engine.scratch_writes", "pages"},
	{"store.atomic_ms", "ms"},
	{"store.atomic_pages", "pages"},
	{"store.build_s", "s"},
	{"store.build_pages", "pages"},
	{"store.apply_ops_ms", "ms"},
	{"model.clone_ms", "ms"},
	{"model.validate_ms", "ms"},
	{"pager.device_pages", "pages"},
	{"pager.dirty_pages_per_write", "pages"},
	{"core.update_entries_ms", "ms"},
	{"core.checkpoint_ms", "ms"},
	{"core.recover_ms", "ms"},
	{"durable.ckpt_kb_per_write", "KiB"},
	{"durable.delta_fraction", "ratio"},
	{"durable.full_image_kb", "KiB"},
	{"durable.delta_kb", "KiB"},
	{"durable.fsync_kb_per_write", "KiB"},
	{"durable.recover_segments", "count"},
	{"qcache.hit_ratio", "ratio"},
	{"qcache.evictions_per_kdial", "count"},
	{"dirserver.rtt_us", "us"},
	{"dirserver.serve_us", "us"},
	{"dirserver.queue_us", "us"},
	{"dirserver.wire_us", "us"},
}

// opClass maps a span's operator to the engine algorithm that runs it:
// HSPC for p/c, HSAD for a/d, HSADc for ac/dc, simple aggregate
// selection for g, ERAggDV/VD for vd/dv, the boolean merges for &, |
// and -. Atomic and LDAP leaves are store evaluations.
func opClass(op string) string {
	switch op {
	case "p", "c":
		return "hspc"
	case "a", "d":
		return "hsad"
	case "ac", "dc":
		return "hsadc"
	case "g":
		return "agg"
	case "vd", "dv":
		return "erdv"
	case "&", "|", "-":
		return "bool"
	case "atomic", "ldap":
		return "atomic"
	}
	return ""
}

// spanTotals is one query's span tree folded into self time and self
// page I/O per operator class.
type spanTotals struct {
	self  map[string]time.Duration
	pages map[string]int64
}

func foldSpans(root *obs.Span) spanTotals {
	t := spanTotals{self: make(map[string]time.Duration), pages: make(map[string]int64)}
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		self := s.Dur
		for _, c := range s.Children {
			self -= c.Dur
			walk(c)
		}
		cls := opClass(s.Op)
		t.self[cls] += self
		t.pages[cls] += s.SelfIO().IO()
	}
	if root != nil {
		walk(root)
	}
	return t
}

// addSpans records one query's span tree: engine classes per query,
// atomic store evaluations, and the arena's scratch writes.
func (r *recorder) addSpans(root *obs.Span) {
	t := foldSpans(root)
	for _, cls := range []string{"hspc", "hsad", "hsadc", "agg", "erdv", "bool"} {
		r.add("engine."+cls+"_ms", ms(t.self[cls]))
		r.add("engine."+cls+"_pages", float64(t.pages[cls]))
	}
	r.add("store.atomic_ms", ms(t.self["atomic"]))
	r.add("store.atomic_pages", float64(t.pages["atomic"]))
	if root != nil {
		r.add("engine.scratch_writes", float64(root.IO.Writes))
	}
}
