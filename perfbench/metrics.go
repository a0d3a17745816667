package main

// metricDef names one reported metric and its unit. The lists below
// are the benchmark's metric vocabulary; BENCHMARK.json declares the
// same names and units, and a test keeps the two in step.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what a user of the system sees, measured with tracing
// off. Every workload reports all of them; README.md gives each
// workload's meaning of an operation. The latency tail is a per-layer
// metric: the serve workload's p90 moves between runs by more than any
// bound BENCHMARK.json may set.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"goodput_rps", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"retained_heap_mb", "MB"},
}

// perLayer is what the traced run reports. A layer a workload does not
// run reports 0.
var perLayer = []metricDef{
	{"scene.generate_s", "s"},
	{"spam.compile_s", "s"},
	{"spam.dataset_s", "s"},
	{"spam.serial_ms", "ms"},
	{"spam.sim_instr.RTF", "instr"},
	{"spam.sim_instr.LCC", "instr"},
	{"spam.sim_instr.FA", "instr"},
	{"spam.sim_instr.MODEL", "instr"},
	{"spam.session.reused", "count"},
	{"spam.session.rerun", "count"},
	{"spam.session.fresh", "count"},
	{"spam.session.dropped", "count"},
	{"spam.session.seeds_diffed", "count"},
	{"spam.session.reuse_ratio", "ratio"},
	{"spam.session.update_instr", "instr"},
	{"tlp.phase_ms.RTF", "ms"},
	{"tlp.phase_ms.LCC", "ms"},
	{"tlp.phase_ms.FA", "ms"},
	{"tlp.phase_ms.MODEL", "ms"},
	{"tlp.queue_wait_ms.p50", "ms"},
	{"tlp.queue_wait_ms.p90", "ms"},
	{"tlp.tail_ms", "ms"},
	{"tlp.utilization", "ratio"},
	{"tlp.tasks", "count"},
	{"tlp.attempts", "count"},
	{"tlp.retries", "count"},
	{"tlp.quarantined", "count"},
	{"tlp.pool.throttle_waits", "count"},
	{"tlp.pool.peak_mem_est", "bytes"},
	{"ops5.build_ms", "ms"},
	{"ops5.run_ms", "ms"},
	{"ops5.builds", "count"},
	{"ops5.init_instr", "instr"},
	{"ops5.match_instr", "instr"},
	{"ops5.resolve_instr", "instr"},
	{"ops5.act_instr", "instr"},
	{"ops5.firings", "count"},
	{"ops5.cycles", "count"},
	{"ops5.ns_per_init_instr", "ns/instr"},
	{"ops5.ns_per_run_instr", "ns/instr"},
	{"ops5.peak_task_bytes", "bytes"},
	{"ops5.seed_bytes", "bytes"},
	{"geom.memo_hits", "count"},
	{"geom.memo_misses", "count"},
	{"geom.memo_evictions", "count"},
	{"geom.memo_hit_ratio", "ratio"},
	{"serve.handler_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.client_wait_ms", "ms"},
	{"serve.scene_cache.hits", "count"},
	{"serve.scene_cache.misses", "count"},
	{"serve.sessions.evicted", "count"},
	{"serve.shed", "count"},
	{"serve.timed_out", "count"},
	{"serve.degraded", "count"},
	{"cluster.shipped_bytes_per_task", "bytes"},
	{"cluster.ship_share", "ratio"},
	{"cluster.chunk_hit_ratio", "ratio"},
	{"cluster.continuation_share", "ratio"},
	{"cluster.steals", "count"},
	{"cluster.overhead_ms.RTF", "ms"},
	{"cluster.overhead_ms.LCC", "ms"},
	{"cluster.overhead_ms.FA", "ms"},
	{"cluster.overhead_ms.MODEL", "ms"},
	{"cluster.worker_deaths", "count"},
	{"cluster.requeued", "count"},
	{"cluster.respawns", "count"},
	{"loadgen.late_ms", "ms"},
	{"self_ms.scene", "ms"},
	{"self_ms.spam", "ms"},
	{"self_ms.tlp", "ms"},
	{"self_ms.ops5", "ms"},
	{"self_ms.cluster", "ms"},
	{"self_ms.loadgen", "ms"},
	{"self_ms.http", "ms"},
	{"self_ms.serve", "ms"},
	{"error_rate", "ratio"},
	{"latency_p90_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// selfLayers are the span layers whose self time is reported.
var selfLayers = []string{"scene", "spam", "tlp", "ops5", "cluster", "loadgen", "http", "serve"}
