package main

// metricDef names one reported metric. For a per-layer metric, moves
// names the end-to-end metric it should move and on names the workload
// where it should (BENCHMARK.json holds only names, units and
// directions; this table is where the mapping lives).
type metricDef struct {
	name, unit string
	layer      bool
	moves, on  string
}

// endToEnd lists the metrics a user of the system sees, reported by
// every workload from untraced runs.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "first_result_s", unit: "s"},
	{name: "step_p50_s", unit: "s"},
	{name: "step_p90_s", unit: "s"},
	{name: "session_s", unit: "s"},
	{name: "sessions_per_s", unit: "1/s"},
	{name: "refresh_p50_s", unit: "s"},
	{name: "refresh_p90_s", unit: "s"},
	{name: "result_tuples", unit: "count"},
	{name: "questions", unit: "count"},
	{name: "success_rate", unit: "ratio"},
	{name: "peak_rss_mb", unit: "MB"},
}

const (
	t9    = "t9-assist"
	serve = "extract-serve"
	live  = "live-books"
	every = "every workload"
)

// perLayer lists the single-layer metrics of the traced run. Times and
// counts are per unit of work: per session on t9-assist and
// extract-serve, per refresh on live-books.
var perLayer = []metricDef{
	{name: "server.create_s", unit: "s", moves: "session_s", on: serve},
	{name: "server.result_s", unit: "s", moves: "session_s", on: serve},
	{name: "server.result_bytes", unit: "bytes", moves: "sessions_per_s", on: serve},
	{name: "server.step_s", unit: "s", moves: "step_p50_s", on: serve},
	{name: "server.step_busy_s", unit: "s", moves: "step_p50_s", on: serve},
	{name: "server.wire_s", unit: "s", moves: "step_p90_s", on: serve},
	{name: "server.requests", unit: "count", moves: "success_rate", on: serve},
	{name: "server.failed", unit: "count", moves: "success_rate", on: serve},

	{name: "assistant.step_s", unit: "s", moves: "step_p50_s", on: t9},
	{name: "assistant.iterations", unit: "count", moves: "session_s", on: t9},
	{name: "assistant.finalize_s", unit: "s", moves: "session_s", on: t9},
	{name: "assistant.apply_delta_s", unit: "s", moves: "refresh_p50_s", on: live},
	{name: "assistant.reevaluate_s", unit: "s", moves: "refresh_p50_s", on: live},

	{name: "engine.self_s", unit: "s", moves: "first_result_s", on: t9},
	{name: "engine.tuples_built", unit: "count", moves: "first_result_s", on: t9},
	{name: "engine.limit_fallbacks", unit: "count", moves: "result_tuples", on: t9},
	{name: "engine.nodes_evaluated", unit: "count", moves: "step_p50_s", on: t9},
	{name: "engine.cache_hit_rate", unit: "ratio", moves: "step_p50_s", on: t9},
	{name: "engine.pool_utilization", unit: "ratio", moves: "step_p90_s", on: t9},
	{name: "engine.delta_reuse_rate", unit: "ratio", moves: "refresh_p50_s", on: t9 + ", " + live},
	{name: "engine.tuples_recomputed", unit: "count", moves: "refresh_p50_s", on: live},
	{name: "engine.corpus_prior_hits", unit: "count", moves: "refresh_p50_s", on: live},
	{name: "engine.cache_bytes", unit: "bytes", moves: "peak_rss_mb", on: t9},
	{name: "compact.superset_ratio", unit: "ratio", moves: "result_tuples", on: t9},

	{name: "feature.verify_s", unit: "s", moves: "first_result_s", on: t9},
	{name: "feature.refine_s", unit: "s", moves: "first_result_s", on: t9},
	{name: "feature.verify_calls", unit: "count", moves: "step_p50_s", on: t9},
	{name: "feature.refine_calls", unit: "count", moves: "step_p50_s", on: t9},
	{name: "feature.memo_hit_rate", unit: "ratio", moves: "step_p50_s", on: t9},

	{name: "similarity.calls", unit: "count", moves: "first_result_s", on: t9},
	{name: "similarity.busy_s", unit: "s", moves: "first_result_s", on: t9},
	{name: "similarity.match_rate", unit: "ratio", moves: "result_tuples", on: t9},

	{name: "store.commit_s", unit: "s", moves: "refresh_p50_s", on: live},
	{name: "store.fsyncs_per_commit", unit: "count", moves: "refresh_p90_s", on: live},
	{name: "store.fsync_s", unit: "s", moves: "refresh_p90_s", on: live},
	{name: "store.write_amp", unit: "ratio", moves: "refresh_p50_s", on: live},
	{name: "store.page_loads", unit: "count", moves: "refresh_p50_s", on: live},
	{name: "store.page_releases", unit: "count", moves: "refresh_p50_s", on: live},
	{name: "store.index_calls", unit: "count", moves: "refresh_p50_s", on: live},
	{name: "store.index_s", unit: "s", moves: "refresh_p50_s", on: live},
	{name: "store.postings_calls", unit: "count", moves: "refresh_p50_s", on: live},
	{name: "store.postings_s", unit: "s", moves: "refresh_p50_s", on: live},
	{name: "store.ingest_s", unit: "s", moves: "setup_s", on: live},
	{name: "store.open_s", unit: "s", moves: "setup_s", on: live},
	{name: "store.space_amp", unit: "ratio", moves: "setup_s", on: live},

	{name: "runtime.alloc_mb", unit: "MB", moves: "peak_rss_mb", on: every},
	{name: "runtime.gc_cycles", unit: "count", moves: "step_p90_s", on: every},
	{name: "runtime.gc_pause_s", unit: "s", moves: "step_p90_s", on: every},

	{name: "trace.overhead_s", unit: "s", moves: "none (measurement cost)", on: every},
	{name: "trace.spans", unit: "count", moves: "none (measurement cost)", on: every},
}

// higherIsBetter names the metrics that improve upward; every other
// metric is better lower.
var higherIsBetter = map[string]bool{
	"sessions_per_s":           true,
	"success_rate":             true,
	"engine.cache_hit_rate":    true,
	"engine.pool_utilization":  true,
	"engine.delta_reuse_rate":  true,
	"engine.corpus_prior_hits": true,
	"feature.memo_hit_rate":    true,
	"similarity.match_rate":    true,
}

func (m metricDef) better() string {
	if higherIsBetter[m.name] {
		return "higher"
	}
	return "lower"
}

func init() {
	for i := range perLayer {
		perLayer[i].layer = true
	}
}
