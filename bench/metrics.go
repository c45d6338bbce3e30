package main

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions (bench_test.go keeps the two in step) and adds the
// regression bounds.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Deterministic metrics depend only on the seed and the workload:
	// -compare requires them equal for equal seeds rather than judging
	// them against a bound.
	Deterministic bool
}

// value is a metric reading as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics a user of dtmsched sees. Every workload reports
// all of them: a "job" is one engine job — an engine.Run call on the
// offline workloads, one window's execution on the serve workloads — an
// "op" is a job offline and a committed transaction when serving, and the
// deterministic metrics are taken over the workload's fixed minimum work.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "txn_per_s", Unit: "txn/s", Better: "higher"},
	{Name: "job_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "job_ms_p98", Unit: "ms", Better: "lower"},
	{Name: "allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "makespan_mean", Unit: "steps", Better: "lower", Deterministic: true},
	{Name: "goodput_txn_per_step", Unit: "txn/step", Better: "higher", Deterministic: true},
	{Name: "response_steps_mean", Unit: "steps", Better: "lower", Deterministic: true},
}

// certifyCells are the offline-certify cells whose Measure time is
// reported one by one: three tree metrics (line, star, fog–cloud) and
// three non-tree ones, so closed-form tree bounds and pruned exact solves
// each show separately.
var certifyCells = []string{"clique64", "grid12", "line64", "star4x8", "cluster4x8", "fogcloud4x8"}

// perLayer are the traced run's layer metrics. Times and counts are per
// root span — per job on the offline workloads, per stream on the serve
// workloads — and a layer a workload never runs reads 0. Counts come from
// the fixed minimum work, so they repeat exactly for a seed.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, c := range certifyCells {
		defs = append(defs, metricDef{Name: "lower.measure_ms." + c, Unit: "ms", Better: "lower"})
	}
	return append(defs, []metricDef{
		{Name: "engine.measure_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.measure_share", Unit: "ratio", Better: "lower"},
		{Name: "lower.exact_objects", Unit: "count", Better: "higher"},
		{Name: "lower.bounded_objects", Unit: "count", Better: "lower"},
		{Name: "lower.ratio_mean", Unit: "ratio", Better: "lower"},
		{Name: "depgraph.build_ms", Unit: "ms", Better: "lower"},
		{Name: "depgraph.build_share", Unit: "ratio", Better: "lower"},
		{Name: "core.schedule_self_ms", Unit: "ms", Better: "lower"},
		{Name: "hier.shard_ms", Unit: "ms", Better: "lower"},
		{Name: "hier.merge_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.verify_ms", Unit: "ms", Better: "lower"},
		{Name: "sim.steps", Unit: "steps", Better: "lower"},
		{Name: "sim.object_moves", Unit: "count", Better: "lower"},
		{Name: "engine.overhead_ms", Unit: "ms", Better: "lower"},
		{Name: "obs.record_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.window_busy_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.window_busy_share", Unit: "ratio", Better: "higher"},
		{Name: "engine.window_idle_us_p50", Unit: "us", Better: "lower"},
		{Name: "engine.window_idle_us_p99", Unit: "us", Better: "lower"},
		{Name: "engine.window_verify_us_p50", Unit: "us", Better: "lower"},
		{Name: "engine.window_verify_us_p99", Unit: "us", Better: "lower"},
		{Name: "stream.window_gap_us_p50", Unit: "us", Better: "lower"},
		{Name: "stream.window_gap_us_p99", Unit: "us", Better: "lower"},
		{Name: "stream.serve_ms", Unit: "ms", Better: "lower"},
		{Name: "stream.loop_self_ms", Unit: "ms", Better: "lower"},
		{Name: "stream.source_ns_per_txn", Unit: "ns", Better: "lower"},
		{Name: "stream.windows", Unit: "count", Better: "lower"},
		{Name: "stream.window_txns_mean", Unit: "txn", Better: "higher"},
		{Name: "stream.queue_peak", Unit: "count", Better: "lower"},
		{Name: "stream.blocked", Unit: "count", Better: "lower"},
		{Name: "stream.rejected", Unit: "count", Better: "lower"},
		{Name: "stream.requeued", Unit: "count", Better: "lower"},
		{Name: "stream.shed", Unit: "count", Better: "lower"},
		{Name: "stream.degraded_windows", Unit: "count", Better: "lower"},
		{Name: "stream.breaker_trips", Unit: "count", Better: "lower"},
		{Name: "stream.comm_cost", Unit: "hops", Better: "lower"},
		{Name: "faults.plan_ms", Unit: "ms", Better: "lower"},
		{Name: "faults.plan_share", Unit: "ratio", Better: "lower"},
		{Name: "faults.plan_faults", Unit: "count", Better: "lower"},
		{Name: "faults.retries", Unit: "count", Better: "lower"},
		{Name: "faults.reroutes", Unit: "count", Better: "lower"},
		{Name: "faults.deferred_commits", Unit: "count", Better: "lower"},
		{Name: "faults.wasted_comm", Unit: "hops", Better: "lower"},
		{Name: "tm.generate_ms", Unit: "ms", Better: "lower"},
		{Name: "bench.span_coverage_min", Unit: "ratio", Better: "higher"},
		{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
	}...)
}()

// reading attaches units to raw values, filling every metric of defs
// (absent ones read 0).
func reading(defs []metricDef, raw map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: raw[d.Name], Unit: d.Unit}
	}
	return out
}
