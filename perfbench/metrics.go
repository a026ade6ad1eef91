package main

// metricDef names a reported metric and its unit; BENCHMARK.json lists
// the same names and units (metrics_test.go keeps them in step).
type metricDef struct{ name, unit string }

// Modeled times come from the gpusim/cpusim cost model, a deterministic
// clock distinct from wall time, so they carry their own unit.
const modeledUnit = "model-ms"

var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"max_rate_rps", "1/s"},
	{"modeled_ms", modeledUnit},
	{"residual_max", "rel"},
	{"setup_s", "s"},
	{"rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"tridserve.wire_ms_p50", "ms"},
	{"tridserve.wire_share", "ratio"},
	{"tridserve.req_bytes", "B"},
	{"tridserve.resp_bytes", "B"},
	{"tridserve.empty_200", "count"},
	{"tridserve.nonfinite_x", "count"},
	{"pool.wait_ms_p99", "ms"},
	{"pool.solve_ms_p50", "ms"},
	{"pool.rejected", "count"},
	{"pool.fallback_solves", "count"},
	{"pool.breaker_trips", "count"},
	{"adi.self_ms_p50", "ms"},
	{"adi.allocs_per_step", "count"},
	{"core.solve_ms_p50", "ms"},
	{"core.allocs_per_solve", "count"},
	{"core.k", "count"},
	{"core.replay_over_cpu", "ratio"},
	{"cpu.solve_ms_p50", "ms"},
	{"gpusim.load_transactions", "count"},
	{"gpusim.store_transactions", "count"},
	{"gpusim.eliminations", "count"},
	{"gpusim.barriers", "count"},
	{"gpusim.launches", "count"},
	{"gpusim.bytes_moved_computed", "B"},
	{"gpusim.coalescing_efficiency", "ratio"},
	{"dist.comm_mb", "MB"},
	{"dist.comm_modeled_ms", modeledUnit},
	{"dist.transfers", "count"},
	{"dist.halo_exchanges", "count"},
	{"dist.modeled_serial_ms", modeledUnit},
	{"dist.overlap_ratio", "ratio"},
	{"dist.device_busy_imbalance", "ratio"},
	{"dist.solve_over_cpu", "ratio"},
	{"dist.allocs_per_solve", "count"},
	{"dist.alloc_mb_per_solve", "MB"},
	{"dist.integrity_retries", "count"},
	{"dist.hedges", "count"},
	{"dist.migrations", "count"},
	{"dist.degraded", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"trace.overhead_frac", "ratio"},
}
