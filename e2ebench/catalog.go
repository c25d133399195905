package main

// metricDef describes one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestCatalogMatchesBenchmarkJSON).
type metricDef struct {
	name, unit, better string
	// moves names the end-to-end metric and workload the metric should
	// move, and where it should not.
	moves string
}

// endToEndMetrics are gated against the parent commit. Their meaning per
// workload is tabled in README.md.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"pass_ms", "ms", "lower", ""},
	{"fast_ms", "ms", "lower", ""},
	{"slow_ms", "ms", "lower", ""},
	{"peak_rss_mb", "MB", "lower", ""},
}

const (
	onOptical  = "exec_s, sctm_s on optical-kernels"
	onCore     = "sctm_s on mesh-study and optical-kernels; stream_correct_s on stream-trace"
	onStream   = "stream_replay_s, stream_correct_s on stream-trace; none on mesh-study"
	onMesh     = "exec_s, sctm_s on mesh-study; none on optical-kernels or stream-trace"
	onOnoc     = "sctm_s on optical-kernels, stream_correct_s on stream-trace; none on mesh-study"
	onCache    = "hit_p50_ms, req_per_s on daemon-mix"
	onSweep    = "miss_tail_ms on daemon-mix"
	onAnalytic = "miss_p50_ms on daemon-mix (estimate ops); sctm_s only once rounds are seeded from it"
)

// perLayerMetrics are reported by traced runs, one per layer call or count.
var perLayerMetrics = []metricDef{
	{"workload.generate_s", "s", "lower", onOptical + " (small share)"},
	{"cpu.exec_s", "s", "lower", "exec_s on optical-kernels; on mesh-study only together with enoc.*"},
	{"cpu.capture_s", "s", "lower", "sctm_s on optical-kernels"},
	{"cpu.sim_cycles", "count", "lower", onOptical + " (a model output: must not change)"},
	{"cpu.cycles_per_s", "1/s", "higher", onOptical},
	{"cpu.alloc_mb", "MB", "lower", onOptical},
	{"trace.finish_s", "s", "lower", "sctm_s on optical-kernels; none on mesh-study"},
	{"trace.encode_events_per_s", "1/s", "higher", "stream-trace input writing (not timed end to end)"},
	{"trace.decode_events_per_s", "1/s", "higher", onStream},
	{"trace.file_bytes", "bytes", "lower", onStream},
	{"trace.alloc_mb", "MB", "lower", onStream},
	{"core.schedule_s", "s", "lower", onCore},
	{"core.naive_s", "s", "lower", "study_s on mesh-study and optical-kernels; stream_replay_s on stream-trace"},
	{"core.coupled_s", "s", "lower", "study_s on mesh-study and optical-kernels"},
	{"core.rounds", "count", "lower", onCore},
	{"core.converged", "count", "higher", onCore},
	{"core.replayed_events", "count", "lower", onCore},
	{"core.round_s", "s", "lower", onCore},
	{"core.replay_events_per_s", "1/s", "higher", onCore},
	{"core.sctm_vs_exec", "ratio", "higher", "sctm_s against exec_s on mesh-study and optical-kernels"},
	{"core.alloc_mb", "MB", "lower", onCore},
	{"core.sctm_err_pct", "%", "lower", "accuracy of sctm_s on mesh-study and optical-kernels"},
	{"enoc.cycles", "count", "lower", onMesh},
	{"enoc.ns_per_cycle", "ns", "lower", onMesh},
	{"enoc.hops", "count", "lower", onMesh},
	{"onoc.cycles", "count", "lower", onOnoc},
	{"onoc.ns_per_cycle", "ns", "lower", onOnoc},
	{"analytic.estimate_s", "s", "lower", onAnalytic},
	{"simcache.misses", "count", "lower", onCache},
	{"simcache.hits", "count", "higher", onCache},
	{"simcache.waits", "count", "higher", onCache},
	{"simcache.hit_ratio", "ratio", "higher", onCache},
	{"service.exec_ms", "ms", "lower", "miss_p50_ms on daemon-mix"},
	{"service.correct_ms", "ms", "lower", "miss_p50_ms on daemon-mix"},
	{"service.study_ms", "ms", "lower", "miss_p50_ms, miss_tail_ms on daemon-mix"},
	{"service.estimate_ms", "ms", "lower", "miss_p50_ms on daemon-mix"},
	{"service.overhead_ms", "ms", "lower", onCache},
	{"service.req_per_s", "1/s", "higher", "req_per_s on daemon-mix"},
	{"service.miss_tail_ms", "ms", "lower", "miss_tail_ms on daemon-mix"},
	{"sched.admitted", "count", "lower", onCache},
	{"sched.cancelled", "count", "lower", onCache},
	{"sweep.unique_jobs", "count", "lower", onSweep},
	{"sweep.pruned", "count", "higher", onSweep},
	{"sweep.simulated", "count", "lower", onSweep},
	{"sweep.elapsed_ms", "ms", "lower", onSweep},
}
