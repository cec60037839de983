package main

// metricDef describes one metric the benchmark prints. BENCHMARK.json at the
// repository root lists the same names, units, directions and gate bounds;
// the package test fails if the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool // true when a larger value is better
	// Bound is what -compare allows: the worsening of the change's median as
	// a share of the base's (an absolute difference when Abs). User metrics
	// only.
	Bound float64
	Abs   bool
	// Gate is the metric's bound in BENCHMARK.json's end_to_end list, which
	// the pipeline enforces; 0 when the metric is not in that list and is
	// printed with the per-layer metrics instead (README.md says why).
	Gate float64
}

// workloadNames are the four workloads in the order they are documented.
var workloadNames = []string{"write", "lookup", "scan", "served"}

// userMetrics are the 15 numbers a user of the engine feels. Every one a
// workload has is measured with tracing off through rx.Open / client.Dial,
// printed by name, stored by -out and judged per workload by -compare with
// its Bound: 10 % by default, 15 % for a p99, 2 % for a ratio of counts,
// absolute for the two shares.
//
// The pipeline's gate is narrower. It takes one list for all four workloads
// (so a metric only some workloads have cannot be in it), no metric that
// can be 0, and one bound per metric that has to be three times the widest
// run-to-run spread any workload shows — and the two workloads that sync a
// log on every commit have spread up to 16 % on this host.
var userMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.10, Gate: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Higher: true, Bound: 0.10, Gate: 0.25},
	{Name: "ingest_mb_per_s", Unit: "MB/s", Higher: true, Bound: 0.10, Gate: 0.25},
	{Name: "stored_bytes_per_user_byte", Unit: "ratio", Bound: 0.02, Gate: 0.02},
	{Name: "query_p50_ms", Unit: "ms", Bound: 0.10},
	{Name: "query_p99_ms", Unit: "ms", Bound: 0.15},
	{Name: "get_p50_ms", Unit: "ms", Bound: 0.10},
	{Name: "get_p99_ms", Unit: "ms", Bound: 0.15},
	{Name: "insert_p50_ms", Unit: "ms", Bound: 0.10},
	{Name: "insert_p99_ms", Unit: "ms", Bound: 0.15},
	{Name: "update_p50_ms", Unit: "ms", Bound: 0.10},
	{Name: "update_p99_ms", Unit: "ms", Bound: 0.15},
	{Name: "recovery_s", Unit: "s", Bound: 0.10},
	{Name: "late_share", Unit: "share", Bound: 0.005, Abs: true},
	{Name: "failed_share", Unit: "share", Bound: 0, Abs: true},
}

// endToEnd is BENCHMARK.json's end_to_end list: the user metrics every
// workload reports and the pipeline gates on.
func endToEnd() []metricDef {
	var out []metricDef
	for _, d := range userMetrics {
		if d.Gate > 0 {
			out = append(out, d)
		}
	}
	return out
}

// perLayer is BENCHMARK.json's per_layer list, the result line of a traced
// run: the user metrics outside the gate, then one group per engine module.
func perLayer() []metricDef {
	var out []metricDef
	for _, d := range userMetrics {
		if d.Gate == 0 {
			out = append(out, d)
		}
	}
	return append(out, layerMetrics...)
}

// layerMetrics are the traced pass's output, one group per engine module.
var layerMetrics = []metricDef{
	{Name: "xmlparse.busy_ms", Unit: "ms"},
	{Name: "xmlparse.mb_per_s", Unit: "MB/s", Higher: true},
	{Name: "xmlparse.allocs_per_doc", Unit: "count"},
	{Name: "pack.busy_ms", Unit: "ms"},
	{Name: "pack.records_per_doc", Unit: "count"},
	{Name: "pack.bytes_per_user_byte", Unit: "ratio"},
	{Name: "pack.decode_mb_per_s", Unit: "MB/s", Higher: true},
	{Name: "quickxscan.keygen_ms", Unit: "ms"},
	{Name: "quickxscan.eval_mb_per_s", Unit: "MB/s", Higher: true},
	{Name: "quickxscan.live_peak", Unit: "count"},
	{Name: "quickxscan.docs_evaluated", Unit: "count"},
	{Name: "xpath.parse_us", Unit: "us"},
	{Name: "core.plan_us", Unit: "us"},
	{Name: "core.exec_self_ms", Unit: "ms"},
	{Name: "core.candidate_docs_per_result", Unit: "ratio"},
	{Name: "core.est_over_actual", Unit: "ratio"},
	{Name: "core.method_share.scan", Unit: "share"},
	{Name: "core.method_share.index", Unit: "share"},
	{Name: "core.checkpoint_ms", Unit: "ms"},
	{Name: "core.recover_redo_records", Unit: "count"},
	{Name: "session.plan_cache_hit_ratio", Unit: "ratio", Higher: true},
	{Name: "stats.refresh_ms", Unit: "ms"},
	{Name: "valueindex.probe_us", Unit: "us"},
	{Name: "valueindex.entries_per_result", Unit: "ratio"},
	{Name: "valueindex.maint_us_per_update", Unit: "us"},
	{Name: "nodeindex.lookup_us", Unit: "us"},
	{Name: "nodeindex.entries_per_doc", Unit: "count"},
	{Name: "btree.get_us", Unit: "us"},
	{Name: "btree.put_us", Unit: "us"},
	{Name: "btree.height", Unit: "count"},
	{Name: "btree.pages", Unit: "count"},
	{Name: "heap.fetch_us", Unit: "us"},
	{Name: "heap.insert_us", Unit: "us"},
	{Name: "heap.pages", Unit: "count"},
	{Name: "heap.fill_ratio", Unit: "ratio", Higher: true},
	{Name: "serialize.busy_ms", Unit: "ms"},
	{Name: "serialize.mb_per_s", Unit: "MB/s", Higher: true},
	{Name: "buffer.hit_ratio", Unit: "ratio", Higher: true},
	{Name: "buffer.evictions", Unit: "count"},
	{Name: "buffer.write_backs", Unit: "count"},
	{Name: "buffer.pinned_hw", Unit: "count"},
	{Name: "buffer.fetch_hot_ns", Unit: "ns"},
	{Name: "pagestore.reads", Unit: "count"},
	{Name: "pagestore.writes", Unit: "count"},
	{Name: "pagestore.syncs", Unit: "count"},
	{Name: "pagestore.read_ms", Unit: "ms"},
	{Name: "pagestore.write_ms", Unit: "ms"},
	{Name: "pagestore.bytes_written_per_user_byte", Unit: "ratio"},
	{Name: "pagestore.checksum_verifies", Unit: "count"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio"},
	{Name: "wal.writes", Unit: "count"},
	{Name: "wal.syncs_per_commit", Unit: "ratio"},
	{Name: "wal.sync_ms_p50", Unit: "ms"},
	{Name: "wal.sync_ms_p99", Unit: "ms"},
	{Name: "wal.bytes_at_crash", Unit: "bytes"},
	{Name: "lock.timeouts", Unit: "count"},
	{Name: "lock.deadlock_reruns", Unit: "count"},
	{Name: "lock.waiters_peak", Unit: "count"},
	{Name: "server.overhead_us", Unit: "us"},
	{Name: "server.rejected_busy", Unit: "count"},
	{Name: "server.requests", Unit: "count"},
	{Name: "wire.bytes_per_row", Unit: "bytes"},
	{Name: "wire.bytes_per_op", Unit: "bytes"},
	{Name: "wire.frames_per_query", Unit: "count"},
	{Name: "wire.conn_writes_per_op", Unit: "count"},
	{Name: "client.reconnects", Unit: "count"},
	{Name: "memgov.high_water_bytes", Unit: "bytes"},
	{Name: "memgov.denials", Unit: "count"},
	{Name: "runtime.allocs_per_op", Unit: "count"},
	{Name: "runtime.bytes_per_op", Unit: "bytes"},
	{Name: "runtime.gc_pause_ms", Unit: "ms"},
	{Name: "runtime.heap_peak_mb", Unit: "MB"},
	{Name: "harness.gen_late_p99_ms", Unit: "ms"},
	{Name: "harness.trace_overhead_share", Unit: "share"},
	{Name: "harness.attributed_share", Unit: "share", Higher: true},
	{Name: "harness.gen_s", Unit: "s"},
}
