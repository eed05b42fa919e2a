package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; TestBenchmarkJSONMatches keeps them in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression.
	bound float64
	// moves names the end-to-end metric and workloads a per-layer metric
	// should move when its layer changes.
	moves string
}

var endToEnd = []metricDef{
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_tail_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "queries_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cross_mb_per_query", unit: "MB", better: "lower", bound: 0.1},
	{name: "shuffle_mb_per_query", unit: "MB", better: "lower", bound: 0.1},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

const (
	p50All     = "latency_p50_ms on all workloads"
	p50Paper   = "latency_p50_ms on paper-mix"
	p50Star    = "latency_p50_ms on star-snowflake"
	p50TwoWl   = "latency_p50_ms on paper-mix and star-snowflake"
	tailServed = "latency_tail_ms and queries_per_s on served-skewed"
	contract   = "none: the paper's Table 1 counts, fixed unless a change names them"
)

var perLayer = []metricDef{
	{name: "sqlparse.plan_ms", unit: "ms", better: "lower", moves: p50Paper + " (a control)"},
	{name: "advisor.advise_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on paper-mix and served-skewed; none on star-snowflake"},
	{name: "advisor.sample_rows", unit: "count", better: "lower", moves: "latency_p50_ms on paper-mix and served-skewed"},
	{name: "analyzer.analyze_ms", unit: "ms", better: "lower", moves: p50Star},
	{name: "analyzer.rules_applied", unit: "count", better: "lower", moves: p50Star},
	{name: "core.run_ms", unit: "ms", better: "lower", moves: "latency_p50_ms and queries_per_s on all workloads"},
	{name: "core.run_share", unit: "ratio", better: "higher", moves: "latency_p50_ms and queries_per_s on all workloads"},
	{name: "adapt.decisions", unit: "count", better: "lower", moves: tailServed},
	{name: "adapt.switches", unit: "count", better: "lower", moves: tailServed},
	{name: "edw.access_ms", unit: "ms", better: "lower", moves: p50TwoWl},
	{name: "edw.rows_touched", unit: "count", better: "lower", moves: p50TwoWl},
	{name: "edw.tprime_rows", unit: "count", better: "lower", moves: p50TwoWl},
	{name: "edw.bloom_build_ms", unit: "ms", better: "lower", moves: p50TwoWl},
	{name: "format.decode_ms", unit: "ms", better: "lower", moves: "latency_p50_ms: HWC on paper-mix and star-snowflake, text on served-skewed"},
	{name: "format.decode_mb_per_s", unit: "MB/s", better: "higher", moves: "latency_p50_ms: HWC on paper-mix and star-snowflake, text on served-skewed"},
	{name: "format.bytes_read", unit: "MB", better: "lower", moves: p50All},
	{name: "expr.filter_ms", unit: "ms", better: "lower", moves: p50Paper},
	{name: "expr.filter_rows_per_s", unit: "rows/s", better: "higher", moves: p50Paper},
	{name: "expr.pass_ratio", unit: "ratio", better: "lower", moves: p50Paper},
	{name: "jen.scan_ms", unit: "ms", better: "lower", moves: "latency_p50_ms and queries_per_s on all workloads"},
	{name: "jen.scan_rows", unit: "count", better: "lower", moves: "latency_p50_ms and queries_per_s on all workloads"},
	{name: "jen.survive_ratio", unit: "ratio", better: "lower", moves: "latency_p50_ms and queries_per_s on all workloads"},
	{name: "bloom.build_ms", unit: "ms", better: "lower", moves: "cross_mb_per_query and shuffle_mb_per_query on paper-mix (zigzag cells) and star-snowflake"},
	{name: "bloom.probe_ms", unit: "ms", better: "lower", moves: "cross_mb_per_query and shuffle_mb_per_query on paper-mix (zigzag cells) and star-snowflake"},
	{name: "bloom.pass_ratio", unit: "ratio", better: "lower", moves: "cross_mb_per_query and shuffle_mb_per_query on paper-mix (zigzag cells) and star-snowflake"},
	{name: "bloom.fp_ratio", unit: "ratio", better: "lower", moves: "cross_mb_per_query and shuffle_mb_per_query on paper-mix (zigzag cells) and star-snowflake"},
	{name: "batch.encode_ms", unit: "ms", better: "lower", moves: p50TwoWl},
	{name: "batch.decode_ms", unit: "ms", better: "lower", moves: p50TwoWl},
	{name: "batch.wire_mb", unit: "MB", better: "lower", moves: p50TwoWl},
	{name: "netsim.send_ms", unit: "ms", better: "lower", moves: p50Paper},
	{name: "netsim.frames_per_s", unit: "1/s", better: "higher", moves: p50Paper},
	{name: "netsim.messages", unit: "count", better: "lower", moves: p50Paper},
	{name: "netsim.intra_db_mb", unit: "MB", better: "lower", moves: p50Paper},
	{name: "relop.build_ms", unit: "ms", better: "lower", moves: p50Paper},
	{name: "relop.probe_ms", unit: "ms", better: "lower", moves: p50Paper},
	{name: "relop.join_rows", unit: "count", better: "lower", moves: p50Paper},
	{name: "relop.agg_ms", unit: "ms", better: "lower", moves: p50Paper},
	{name: "relop.agg_groups", unit: "count", better: "lower", moves: p50Paper},
	{name: "relop.spill_join_ms", unit: "ms", better: "lower", moves: tailServed},
	{name: "relop.spill_build_rows", unit: "count", better: "lower", moves: tailServed},
	{name: "relop.spill_probe_rows", unit: "count", better: "lower", moves: tailServed},
	{name: "relop.spill_evictions", unit: "count", better: "lower", moves: tailServed},
	{name: "skew.sketch_ms", unit: "ms", better: "lower", moves: "latency_tail_ms on served-skewed"},
	{name: "skew.hot_keys", unit: "count", better: "lower", moves: "latency_tail_ms on served-skewed"},
	{name: "shuffle.balance", unit: "ratio", better: "lower", moves: "latency_tail_ms on served-skewed"},
	{name: "sched.wait_ms", unit: "ms", better: "lower", moves: tailServed},
	{name: "sched.running_peak", unit: "count", better: "higher", moves: tailServed},
	{name: "mem.reserved_peak_mb", unit: "MB", better: "lower", moves: tailServed},
	{name: "mem.overshoot_peak_mb", unit: "MB", better: "lower", moves: tailServed},
	{name: "jen.shuffle_tuples", unit: "count", better: "lower", moves: contract},
	{name: "db.sent_tuples", unit: "count", better: "lower", moves: contract},
	{name: "hdfs.sent_tuples", unit: "count", better: "lower", moves: contract},
}
