package main

// declared is one metric the benchmark prints. The same names, units and
// directions are listed in BENCHMARK.json; the smoke test keeps the two in
// step.
type declared struct {
	name, unit, better string
}

// endToEndMetrics are what a user of the database sees; every workload
// reports every one, with tracing off, at reference machine speed (see
// calibrate.go). Their regression bounds live in BENCHMARK.json.
//
// No p99 is here. Where a class is cheap statements (writes and
// heartbeats on view_maintenance and remote_reads, reads on
// session_ingest) its tail is the collector's and the scheduler's, and
// its run-to-run spread stayed at 10-20 % whatever the estimator (pooled,
// per segment, p95); every end-to-end metric must hold its bound on every
// workload. A metric that cannot is demoted to the per-layer list
// (e2e.read_p99_us, e2e.write_p99_us, e2e.advance_p99_us), not left noisy
// among the bounded ones.
var endToEndMetrics = []declared{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"read_p50_us", "us", "lower"},
	{"write_p50_us", "us", "lower"},
	{"advance_p50_us", "us", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// perLayerMetrics come from the traced pass. A layer a workload does not
// use reports 0 there: that is the prediction README.md's table makes.
var perLayerMetrics = []declared{
	{"relation.insert_us", "us", "lower"},
	{"relation.scan_us_per_krow", "us", "lower"},
	{"relation.rows_sorted_us_per_krow", "us", "lower"},
	{"relation.remove_expired_us_per_tuple", "us", "lower"},
	{"index.hash_probe_us", "us", "lower"},
	{"index.ordered_range_us_per_row", "us", "lower"},
	{"index.maintain_us", "us", "lower"},
	{"index.texpheap_pop_us_per_tuple", "us", "lower"},
	{"pqueue.push_us", "us", "lower"},
	{"pqueue.pop_due_us_per_tuple", "us", "lower"},
	{"wheel.push_us", "us", "lower"},
	{"wheel.advance_us_per_tuple", "us", "lower"},
	{"algebra.eval_us.point", "us", "lower"},
	{"algebra.eval_us.range", "us", "lower"},
	{"algebra.eval_us.join", "us", "lower"},
	{"algebra.eval_us.agg", "us", "lower"},
	{"algebra.eval_us.diff", "us", "lower"},
	{"algebra.rows_in_per_row_out", "ratio", "lower"},
	{"engine.query_self_us", "us", "lower"},
	{"engine.insert_self_us", "us", "lower"},
	{"engine.advance_self_us_per_tuple", "us", "lower"},
	{"engine.advance_empty_us", "us", "lower"},
	{"engine.cache_hit_ratio", "ratio", "higher"},
	{"engine.cache_hit_us", "us", "lower"},
	{"engine.cache_epoch_invalidations", "count", "lower"},
	{"engine.cache_evictions", "count", "lower"},
	{"engine.sched_pending_per_live_row", "ratio", "lower"},
	{"engine.heap_bytes_per_live_row", "B", "lower"},
	{"engine.expired_total", "count", "higher"},
	{"engine.triggers_fired", "count", "higher"},
	{"wal.append_sync_us", "us", "lower"},
	{"wal.bytes_per_user_byte", "ratio", "lower"},
	{"wal.syncs_per_write", "ratio", "lower"},
	{"wal.replay_us_per_record", "us", "lower"},
	{"wal.recover_s", "s", "lower"},
	{"sql.parse_us.insert", "us", "lower"},
	{"sql.parse_us.select", "us", "lower"},
	{"sql.plan_us", "us", "lower"},
	{"sql.exec_overhead_us", "us", "lower"},
	{"view.read_hit_us", "us", "lower"},
	{"view.recompute_us", "us", "lower"},
	{"view.recompute_ratio", "ratio", "lower"},
	{"view.recompute_ratio.join", "ratio", "lower"},
	{"view.recompute_ratio.hist", "ratio", "lower"},
	{"view.recompute_ratio.diff_patch", "ratio", "lower"},
	{"view.recompute_ratio.diff", "ratio", "lower"},
	{"view.patches_applied", "count", "higher"},
	{"view.sql_read_overhead_us", "us", "lower"},
	{"wire.roundtrip_us.time", "us", "lower"},
	{"wire.codec_us_per_krow", "us", "lower"},
	{"wire.bytes_per_row", "B", "lower"},
	{"wire.self_us", "us", "lower"},
	{"wire.round_trips_per_read", "ratio", "lower"},
	{"wire.local_read_us", "us", "lower"},
	{"monitor.tick_us", "us", "lower"},
	{"e2e.read_p99_us", "us", "lower"},
	{"e2e.write_p99_us", "us", "lower"},
	{"e2e.advance_p99_us", "us", "lower"},
	{"expdb.allocs_per_stmt", "count", "lower"},
	{"expdb.bytes_per_stmt", "B", "lower"},
	{"expdb.gc_cycles", "count", "lower"},
	{"expdb.gc_pause_total_ms", "ms", "lower"},
	{"expdb.trace_overhead_pct", "%", "lower"},
	{"expdb.span_timer_us", "us", "lower"},
	{"expdb.span_sum_error_pct", "%", "lower"},
	{"expdb.negative_self_spans", "count", "lower"},
}

// exactCounts are the per-layer metrics that are counts or ratios of
// counts made by one client with no timers: for a given seed they repeat
// exactly, run after run and machine after machine. The smoke test holds
// them to that.
var exactCounts = []string{
	"algebra.rows_in_per_row_out",
	"engine.cache_hit_ratio",
	"engine.cache_epoch_invalidations",
	"engine.cache_evictions",
	"engine.sched_pending_per_live_row",
	"engine.expired_total",
	"engine.triggers_fired",
	"wal.bytes_per_user_byte",
	"wal.syncs_per_write",
	"view.recompute_ratio",
	"view.recompute_ratio.join",
	"view.recompute_ratio.hist",
	"view.recompute_ratio.diff_patch",
	"view.recompute_ratio.diff",
	"view.patches_applied",
	"wire.bytes_per_row",
	"wire.round_trips_per_read",
}
