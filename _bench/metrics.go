package main

// metricDef is one metric the benchmark reports. BENCHMARK.json lists the
// same names, units, directions and bounds, and README.md the same names
// with the layer each measures and what it should move; the smoke test
// keeps the three in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the end-to-end regression bound, as a share of the parent's
	// median.
	Bound float64
	// Unscaled marks a time the run's reference factor does not scale:
	// setup_s is scaled build by build in setUp, and calib.ref_ms is the
	// raw reference time. Every other time and rate is scaled to nominal
	// machine speed (see calib.go).
	Unscaled bool
}

// endToEnd metrics are measured with tracing off and reported by every
// workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Unscaled: true},
	{Name: "mem_bytes_per_point", Unit: "B", Better: "lower", Bound: 0.1},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.2},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.2},
	{Name: "query_p90_ms", Unit: "ms", Better: "lower", Bound: 0.2},
}

// perLayer metrics come from the traced run. A metric a workload does not
// exercise (hull work under ORD, writes without a write mix) reads 0.
var perLayer = []metricDef{
	{Name: "server.cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "server.hit_us", Unit: "us", Better: "lower"},
	{Name: "server.miss_us", Unit: "us", Better: "lower"},
	{Name: "server.miss_self_us", Unit: "us", Better: "lower"},
	{Name: "server.query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.query_samples", Unit: "count", Better: "higher"},
	{Name: "server.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},
	{Name: "server.write_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.write_p90_us", Unit: "us", Better: "lower"},
	{Name: "server.write_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.cache_dropped_per_write", Unit: "count", Better: "lower"},
	{Name: "transport.overhead_us", Unit: "us", Better: "lower"},
	{Name: "facade.ord_us", Unit: "us", Better: "lower"},
	{Name: "facade.oru_ms", Unit: "ms", Better: "lower"},
	{Name: "facade.insert_us", Unit: "us", Better: "lower"},
	{Name: "facade.delete_us", Unit: "us", Better: "lower"},
	{Name: "facade.count_dominators_us", Unit: "us", Better: "lower"},
	{Name: "core.ord_us", Unit: "us", Better: "lower"},
	{Name: "core.fetched", Unit: "count", Better: "lower"},
	{Name: "core.heap_pops", Unit: "count", Better: "lower"},
	{Name: "core.output_per_fetched", Unit: "ratio", Better: "higher"},
	{Name: "core.oru_ms", Unit: "ms", Better: "lower"},
	{Name: "core.regions_partitioned", Unit: "count", Better: "lower"},
	{Name: "core.regions_finalized", Unit: "count", Better: "lower"},
	{Name: "core.finalized_per_partitioned", Unit: "ratio", Better: "higher"},
	{Name: "core.explore_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.rhobar_restarts", Unit: "count", Better: "lower"},
	{Name: "core.rho_beyond_rhobar", Unit: "count", Better: "lower"},
	{Name: "core.layers_computed", Unit: "count", Better: "lower"},
	{Name: "skyband.rhobar_ms", Unit: "ms", Better: "lower"},
	{Name: "skyband.rhobar_fetched", Unit: "count", Better: "lower"},
	{Name: "skyband.rho_skyband_ms", Unit: "ms", Better: "lower"},
	{Name: "skyband.candidates", Unit: "count", Better: "lower"},
	{Name: "hull.add_ms", Unit: "ms", Better: "lower"},
	{Name: "hull.membercount_ms", Unit: "ms", Better: "lower"},
	{Name: "hull.membercount_calls", Unit: "count", Better: "lower"},
	{Name: "hull.layers_ms", Unit: "ms", Better: "lower"},
	{Name: "hull.layer0_members", Unit: "count", Better: "lower"},
	{Name: "rtree.bulkload_ms", Unit: "ms", Better: "lower"},
	{Name: "rtree.height", Unit: "count", Better: "lower"},
	{Name: "collection.from_points_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "calib.ref_ms", Unit: "ms", Better: "lower", Unscaled: true},
	{Name: "trace.span_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "trace.query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.query_p90_ms", Unit: "ms", Better: "lower"},
}
