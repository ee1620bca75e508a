package main

// metricDef names one metric the benchmark prints: the contract every
// later change is judged against. BENCHMARK.json repeats these tables
// (TestBenchmarkJSONMatchesTables keeps the two from drifting).
type metricDef struct {
	name string
	unit string
	// better is "lower" or "higher".
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression;
	// per-layer metrics carry none.
	bound float64
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, so each name is workload-neutral and README.md
// says what it measures on each workload:
//
//	throughput_per_s  hot-front, cold-scan: verified 200/304 responses per
//	                  second in the closed loop; churn: samples made
//	                  visible per second of publish-path time (series per
//	                  round over the mean due→visible time); study:
//	                  VP-link results × days per second; collect:
//	                  simulated seconds per wall second.
//	latency_p50_ms,   hot-front: open-loop read latency from the request's
//	latency_p95_ms    due time; cold-scan: closed-loop read latency
//	                  (servingPlan.closedLatency); churn: a publish round,
//	                  due → visible to every reader; study, collect: wall
//	                  time of one job (p95 of fewer than 20 is the slowest).
//
// Saturated rates and the durations of back-to-back work (set-up,
// rounds, jobs) follow the machine's speed, which drifts by a third on
// the sandbox; they are reported at the reference machine's speed
// (speed.go). Open-loop latencies at a fixed moderate rate do not follow
// it and are reported as timed. The time-based bounds stay at the widest
// the contract allows: what is left after the correction is 2% to 12%
// from run to run (churn's rounds up to 19%), and a bound should be
// three times that.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.15},
}

// perLayer is measured from outside each layer, in the traced run only:
// by timing calls into its public functions, by middleware round its
// http.Handler or http.RoundTripper, and by differencing the counters it
// already exports. A metric that does not apply to a workload reads 0.
var perLayer = []metricDef{
	{name: "front.self_ms_p50", unit: "ms", better: "lower"},
	{name: "front.upstream_ms_p50", unit: "ms", better: "lower"},
	{name: "front.hop_ms_p50", unit: "ms", better: "lower"},
	{name: "front.conns_opened", unit: "count", better: "lower"},
	{name: "front.hedged", unit: "count", better: "lower"},
	{name: "front.retried", unit: "count", better: "lower"},
	{name: "front.unavailable", unit: "count", better: "lower"},
	{name: "front.balance", unit: "ratio", better: "higher"},

	{name: "api.serve_ms_p50", unit: "ms", better: "lower"},
	{name: "api.serve_ms_p99", unit: "ms", better: "lower"},
	{name: "api.congestion_ms_p50", unit: "ms", better: "lower"},
	{name: "api.query_ms_p50", unit: "ms", better: "lower"},
	{name: "api.agg_ms_p50", unit: "ms", better: "lower"},
	{name: "api.dashboard_ms_p50", unit: "ms", better: "lower"},
	{name: "api.not_modified_ratio", unit: "ratio", better: "higher"},
	{name: "api.resp_bytes_mean", unit: "bytes", better: "lower"},
	{name: "api.inproc_hit_us_p50", unit: "us", better: "lower"},
	{name: "api.inproc_miss_ms_p50", unit: "ms", better: "lower"},

	{name: "readcache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "readcache.evictions", unit: "count", better: "lower"},
	{name: "readcache.coalesced", unit: "count", better: "higher"},
	{name: "readcache.stale_serves", unit: "count", better: "higher"},
	{name: "readcache.bg_refreshes", unit: "count", better: "lower"},
	{name: "readcache.do_hit_ns", unit: "ns", better: "lower"},

	{name: "analysis.detector_runs", unit: "count", better: "lower"},
	{name: "analysis.incremental_folds", unit: "count", better: "lower"},
	{name: "analysis.full_recomputes", unit: "count", better: "lower"},
	{name: "analysis.points_folded", unit: "count", better: "lower"},
	{name: "analysis.full_fold_ms_p50", unit: "ms", better: "lower"},
	{name: "analysis.advance_us_p50", unit: "us", better: "lower"},
	{name: "analysis.autocorr_ms_per_link", unit: "ms", better: "lower"},
	{name: "analysis.levelshift_ms_per_link", unit: "ms", better: "lower"},

	{name: "tsdb.blocks_scanned", unit: "count", better: "lower"},
	{name: "tsdb.blocks_skipped", unit: "count", better: "higher"},
	{name: "tsdb.blocks_decoded", unit: "count", better: "lower"},
	{name: "tsdb.decoded_bytes", unit: "bytes", better: "lower"},
	{name: "tsdb.summary_only_buckets", unit: "count", better: "higher"},
	{name: "tsdb.query_view_ms_p50", unit: "ms", better: "lower"},
	{name: "tsdb.query_agg_ms_p50", unit: "ms", better: "lower"},
	{name: "tsdb.view_stamp_us_p50", unit: "us", better: "lower"},
	{name: "tsdb.restore_lazy_ms", unit: "ms", better: "lower"},
	{name: "blockenc.decode_ns_per_point", unit: "ns", better: "lower"},
	{name: "blockenc.encode_ns_per_point", unit: "ns", better: "lower"},

	{name: "tsdb.write_batch_pts_per_s", unit: "1/s", better: "higher"},
	{name: "tsdb.snapshot_ms_p50", unit: "ms", better: "lower"},
	{name: "tsdb.snapshot_segments_written", unit: "count", better: "lower"},
	{name: "tsdb.snapshot_bytes_written", unit: "bytes", better: "lower"},
	{name: "tsdb.full_snapshot_s", unit: "s", better: "lower"},
	{name: "tsdb.disk_bytes_per_point", unit: "bytes", better: "lower"},

	{name: "replication.tail_ms_p50", unit: "ms", better: "lower"},
	{name: "replication.unchanged_tail_ms_p50", unit: "ms", better: "lower"},
	{name: "replication.bytes_per_round", unit: "bytes", better: "lower"},
	{name: "replication.delta_segments", unit: "count", better: "higher"},
	{name: "replication.delta_fallbacks", unit: "count", better: "lower"},
	{name: "replication.segments_reused", unit: "count", better: "higher"},
	{name: "replication.exporter_ms_p50", unit: "ms", better: "lower"},
	{name: "replication.initial_sync_s", unit: "s", better: "lower"},

	{name: "publish.p50_ms", unit: "ms", better: "lower"},
	{name: "publish.max_ms", unit: "ms", better: "lower"},
	{name: "publish.late_rounds", unit: "count", better: "lower"},
	{name: "restart.ms_p50", unit: "ms", better: "lower"},

	{name: "netsim.events", unit: "count", better: "lower"},
	{name: "netsim.events_per_s", unit: "1/s", better: "higher"},
	{name: "netsim.warmup_s", unit: "s", better: "lower"},
	{name: "netsim.probing_s", unit: "s", better: "lower"},
	{name: "netsim.shard_speedup", unit: "ratio", better: "higher"},
	{name: "bdrmap.links", unit: "count", better: "higher"},
	{name: "tslp.points", unit: "count", better: "higher"},
	{name: "lossprobe.targets", unit: "count", better: "higher"},

	{name: "scenario.build_s", unit: "s", better: "lower"},
	{name: "core.longitudinal_s", unit: "s", better: "lower"},
	{name: "experiments.tables_s", unit: "s", better: "lower"},
	{name: "pipeline.workers", unit: "count", better: "higher"},

	{name: "loadgen.client_self_ms_p50", unit: "ms", better: "lower"},
	{name: "loadgen.late_ms_p99", unit: "ms", better: "lower"},
	{name: "loadgen.read_ms_p50", unit: "ms", better: "lower"},
	{name: "loadgen.read_ms_p99", unit: "ms", better: "lower"},
	{name: "loadgen.sent", unit: "count", better: "higher"},
	{name: "loadgen.slo_miss_ratio", unit: "ratio", better: "lower"},
	{name: "loadgen.error_ratio", unit: "ratio", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "trace.self_sum_ratio", unit: "ratio", better: "higher"},
	{name: "trace.spans", unit: "count", better: "higher"},
	{name: "machine.speed_index", unit: "ratio", better: "higher"},
}
