package main

// metricDef names one metric. The lists below and BENCHMARK.json must
// agree name for name and unit for unit; TestSmokeEmitsEveryName checks
// it.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system would see, measured with
// tracing off. Every workload reports all of them and none is ever 0
// (BENCHMARK.json fixes a relative regression bound on each, which a
// zero median cannot carry — see README.md for what that moved).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"ok_frac", "ratio"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by the traced run.
// A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// End-to-end quantities that cannot carry a relative bound: the tail
	// does not repeat within any bound the pipeline allows on two of the
	// six workloads, one is 0 on a healthy run, two exist on wire-durable
	// only.
	{"p99_us", "us"},
	{"p99_window_us", "us"},
	{"failed_frac", "ratio"},
	{"recovery_s", "s"},
	{"disk_bytes_per_op", "B"},

	{"client.self_us", "us"},
	{"client.allocs_per_op", "count"},
	{"client.alloc_bytes_per_op", "B"},
	{"http.self_us", "us"},
	{"http.req_bytes", "B"},
	{"http.resp_bytes", "B"},
	{"dispatcher.self_us", "us"},
	{"dispatcher.window_wait_us", "us"},
	{"dispatcher.mean_batch", "count"},
	{"dispatcher.commit_p50_us", "us"},
	{"dispatcher.commit_p99_us", "us"},
	{"dispatcher.degraded", "count"},

	{"core.batch_us", "us"},
	{"core.tuple_overhead_us", "us"},
	{"core.single_us", "us"},
	{"core.ro_group_p50_us", "us"},
	{"core.occ_group_p50_us", "us"},
	{"core.write_group_p50_us", "us"},
	{"core.single_read_p50_us", "us"},
	{"core.single_write_p50_us", "us"},
	{"core.ro_optimistic_frac", "ratio"},
	{"core.occ_retry_per_commit", "ratio"},
	{"core.occ_fallback_per_commit", "ratio"},
	{"core.batch_vs_sequential", "ratio"},

	{"locks.requested_per_op", "count"},
	{"locks.acquired_per_op", "count"},

	{"wal.append_us", "us"},
	{"wal.sync_us", "us"},
	{"wal.snapshot_s", "s"},
	{"wal.fsyncs_per_req", "ratio"},
	{"wal.appends_per_req", "ratio"},
	{"wal.bytes_per_append", "B"},
	{"wal.snapshots", "count"},
	{"wal.recover_records_per_s", "1/s"},

	{"synth.synthesize_ms", "ms"},
	{"synth.prepare_ms", "ms"},
	{"setup.preload_ms", "ms"},

	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_pause_ms_per_s", "ms/s"},
	{"runtime.gc_cycles", "count"},

	{"loadgen.timer_granularity_us", "us"},
	{"loadgen.lag_p50_us", "us"},
	{"loadgen.lag_p90_us", "us"},
	{"loadgen.lag_p99_us", "us"},
	{"loadgen.dropped", "count"},

	{"trace.top_span_us", "us"},
	{"trace.noise_us", "us"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
}

// metricValue is one reported number, as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name while a workload runs.
type metricSet map[string]float64

// us converts nanoseconds to microseconds.
func us(ns float64) float64 { return ns / 1e3 }

// ratio is a/b, and 0 when b is 0 (nothing was attempted).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// export renders the metrics defs names, in order; a name that was never
// set reads 0 (the metric does not apply to the workload).
func (m metricSet) export(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return out
}
