package main

import "fmt"

// metricDef names one reported metric.  BENCHMARK.json lists the same
// names, units and directions (TestBenchmarkJSONMatches pins them).
type metricDef struct {
	name, unit, better string
	// For per-layer metrics: the end-to-end metric and workload the
	// layer should move, and one it should leave alone.
	moves, steady string
}

// endToEnd is printed by an untraced run (--trace 0).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "read_p50_ms", unit: "ms", better: "lower"},
	{name: "read_p90_ms", unit: "ms", better: "lower"},
	{name: "write_p50_ms", unit: "ms", better: "lower"},
	{name: "write_p90_ms", unit: "ms", better: "lower"},
	{name: "throughput_rps", unit: "1/s", better: "higher"},
	{name: "cpu_us_per_req", unit: "us", better: "lower"},
	{name: "success_ratio", unit: "ratio", better: "higher"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// perLayer is printed by a traced run (--trace 1).  Every workload prints
// every metric; a layer a workload does not run (distrib on a single
// process) reads 0.
var perLayer = []metricDef{
	{name: "loadgen.late_p50_ms", unit: "ms", better: "lower",
		moves: "read_p50_ms on every workload: it is part of each latency", steady: "throughput_rps (closed loop)"},
	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower",
		moves: "read_p90_ms on hot-read, where service times are smallest", steady: "throughput_rps (closed loop)"},
	{name: "loadgen.read_p99_ms", unit: "ms", better: "lower",
		moves: "read_p90_ms on cluster-spill (tail diagnostic)", steady: "read_p50_ms on hot-read"},
	{name: "loadgen.write_p99_ms", unit: "ms", better: "lower",
		moves: "write_p90_ms on cluster-spill (tail diagnostic)", steady: "read_p50_ms anywhere"},
	{name: "loadgen.trace_overhead_read_p50_ms", unit: "ms", better: "lower",
		moves: "nothing: it is traced minus untraced read_p50_ms within one traced run", steady: "any end-to-end metric (untraced)"},

	{name: "http.self_p50_us", unit: "us", better: "lower",
		moves: "read_p50_ms on hot-read", steady: "read_p50_ms on cluster-spill (compute dominates)"},
	{name: "http.resp_bytes_per_req", unit: "B", better: "lower",
		moves: "read_p50_ms on hot-read", steady: "read_p50_ms on cluster-spill (compute dominates)"},

	{name: "engine.read_p50_us", unit: "us", better: "lower",
		moves: "read_p50_ms on hot-read (hit path) and cluster-spill (miss path)", steady: "write_p50_ms on hot-read"},
	{name: "engine.write_p50_us", unit: "us", better: "lower",
		moves: "write_p50_ms on write-churn", steady: "write_p50_ms on hot-read (its writes have nothing to repair)"},
	{name: "engine.hit_ratio", unit: "ratio", better: "higher",
		moves: "read_p50_ms on cluster-spill", steady: "read_p50_ms on hot-read (already 1)"},
	{name: "engine.computes_per_req", unit: "count", better: "lower",
		moves: "cpu_us_per_req on write-churn and cluster-spill", steady: "cpu_us_per_req on hot-read (no computes)"},
	{name: "engine.shed_ratio", unit: "ratio", better: "lower",
		moves: "success_ratio on every workload", steady: "read_p50_ms while it is 0"},

	{name: "genfunc.compile_ms", unit: "ms", better: "lower",
		moves: "setup_s on every workload", steady: "read_p50_ms on hot-read (programs stay compiled)"},
	{name: "genfunc.ranks_ms", unit: "ms", better: "lower",
		moves: "read_p50_ms on cluster-spill and write-churn", steady: "read_p50_ms on hot-read (all hits)"},
	{name: "genfunc.repair_ms", unit: "ms", better: "lower",
		moves: "write_p50_ms on write-churn", steady: "write_p50_ms on hot-read"},

	{name: "andxor.decode_ms", unit: "ms", better: "lower",
		moves: "setup_s everywhere; write_p50_ms on cluster-spill", steady: "write_p50_ms on write-churn (no snapshot)"},
	{name: "andxor.encode_ms", unit: "ms", better: "lower",
		moves: "setup_s everywhere; write_p50_ms on cluster-spill", steady: "write_p50_ms on write-churn (no snapshot)"},

	{name: "distrib.read_self_p50_us", unit: "us", better: "lower",
		moves: "read_p50_ms on cluster-spill", steady: "anything on hot-read or write-churn (no distrib)"},
	{name: "distrib.write_self_p50_ms", unit: "ms", better: "lower",
		moves: "write_p50_ms on cluster-spill (WAL append + fsync)", steady: "anything on hot-read or write-churn (no distrib)"},
	{name: "distrib.rpc_p50_us", unit: "us", better: "lower",
		moves: "read_p50_ms on cluster-spill", steady: "anything on hot-read or write-churn (no distrib)"},
	{name: "distrib.rpcs_per_read", unit: "count", better: "lower",
		moves: "read_p90_ms on cluster-spill (retries, hedges)", steady: "anything on hot-read or write-churn (no distrib)"},
	{name: "distrib.rpcs_per_write", unit: "count", better: "lower",
		moves: "write_p50_ms on cluster-spill (fan-out + snapshot fetch)", steady: "anything on hot-read or write-churn (no distrib)"},
	{name: "distrib.snapshot_bytes_per_write", unit: "B", better: "lower",
		moves: "write_p50_ms on cluster-spill", steady: "anything on hot-read or write-churn (no distrib)"},
	{name: "distrib.worker_http_self_p50_us", unit: "us", better: "lower",
		moves: "read_p50_ms on cluster-spill", steady: "anything on hot-read or write-churn (no distrib)"},
}

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// collect picks defs' values out of got; a missing one is a bug.
func collect(defs []metricDef, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	return out, nil
}
