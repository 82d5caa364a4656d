package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics of an untraced run (--trace 0). All are host
// costs of the workload's fixed simulated experiment, medians over the
// run's repetitions except peak_rss_mb.
var endToEnd = []metricDef{
	{"host_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MiB"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run (--trace 1). Every workload
// reports every one; a layer a workload does not reach reads 0. The
// README maps each to the end-to-end metric and workload it should
// move.
var perLayer = []metricDef{
	{"simclock.events", "count"},
	{"simclock.ns_per_event", "ns"},
	{"simclock.max_pending", "count"},
	{"simclock.windows", "count"},
	{"simclock.posts", "count"},
	{"simclock.stalls", "count"},
	{"gpusim.kernels", "count"},
	{"gpusim.events_stream", "count"},
	{"gpusim.events_device", "count"},
	{"gpusim.events_collective", "count"},
	{"gpusim.events_host", "count"},
	{"gpusim.alloc_b_per_kernel", "B"},
	{"parallel.compiles", "count"},
	{"parallel.distinct_shapes", "count"},
	{"parallel.shape_reuse", "ratio"},
	{"parallel.compile_us_p50", "us"},
	{"parallel.compile_us_p99", "us"},
	{"parallel.compile_allocs", "count"},
	{"liger.rounds", "count"},
	{"liger.decompositions", "count"},
	{"liger.empty_secondary", "count"},
	{"runtimes.submits", "count"},
	{"runtimes.submit_us_p50", "us"},
	{"runtimes.submit_us_p99", "us"},
	{"serve.iterations", "count"},
	{"serve.mean_pool", "seqs"},
	{"serve.preemptions", "count"},
	{"serve.recomputed_tokens", "tokens"},
	{"kvcache.calls", "count"},
	{"kvcache.call_ns_p50", "ns"},
	{"kvcache.call_ns_p99", "ns"},
	{"kvcache.peak_blocks", "blocks"},
	{"serve.dispatches", "count"},
	{"serve.hedges", "count"},
	{"serve.retries", "count"},
	{"serve.shed", "count"},
	{"cluster.kv_transfers", "count"},
	{"cluster.kv_transfer_mb", "MiB"},
	{"cluster.failovers", "count"},
	{"trace.spans", "count"},
	{"trace.record_s", "s"},
	{"trace.untraced_s", "s"},
	{"trace.chrome_export_s", "s"},
	{"trace.chrome_mb", "MiB"},
	{"analyze.analyze_s", "s"},
	{"metrics.snapshot_s", "s"},
	{"trace.overhead_x", "ratio"},
	{"go.gc_cpu_pct", "%"},
	{"go.mallocs", "count"},
	{"go.gc_cycles", "count"},
	{"simclock.cpu_pct", "%"},
	{"gpusim.cpu_pct", "%"},
	{"costmodel.cpu_pct", "%"},
	{"nccl.cpu_pct", "%"},
	{"parallel.cpu_pct", "%"},
	{"liger.cpu_pct", "%"},
	{"runtimes.cpu_pct", "%"},
	{"serve.cpu_pct", "%"},
	{"kvcache.cpu_pct", "%"},
	{"generate.cpu_pct", "%"},
	{"cluster.cpu_pct", "%"},
	{"trace.cpu_pct", "%"},
	{"analyze.cpu_pct", "%"},
	{"metrics.cpu_pct", "%"},
	{"other.cpu_pct", "%"},
	{"sim.thr_gain_v100", "ratio"},
	{"sim.thr_gain_a100", "ratio"},
	{"sim.paper_err_pct", "%"},
	{"sim.ttft_p50_ms", "ms"},
	{"sim.tpot_p50_ms", "ms"},
	{"sim.goodput_retained", "ratio"},
	{"sim.makespan_s", "s"},
	{"bench.points", "count"},
	{"bench.points_failed_pct", "%"},
	{"bench.trace_overhead_s", "s"},
	{"host.nproc", "count"},
	{"host.gomaxprocs", "count"},
}
