package main

import "repro/perfbench/ledger"

// e2eMetrics is the end-to-end half of the metric catalog: what a user
// of the workload sees, measured on untraced timed operations. Every
// workload reports every one of them; what an operation and a work item
// are depends on the workload (see the package doc).
// BENCHMARK.json lists the same names with their regression bounds, and
// TestCatalogMatchesBenchmarkJSON keeps the two equal.
var e2eMetrics = []ledger.Def{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "work_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_s", Unit: "s", Better: "lower"},
	{Name: "op_tail_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// layerMetrics is the per-layer half: one traced operation plus the
// layer probes of the layers the workload calls into. A layer the
// workload does not touch reports 0.
var layerMetrics = []ledger.Def{
	{Name: "bdd.build_s", Unit: "s", Better: "lower"},
	{Name: "bdd.ite_calls", Unit: "count", Better: "lower"},
	{Name: "bdd.ite_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "bdd.unique_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "bdd.nodes_alloc", Unit: "count", Better: "lower"},
	{Name: "bdd.nodes_peak", Unit: "count", Better: "lower"},
	{Name: "bdd.ns_per_ite", Unit: "ns", Better: "lower"},
	{Name: "adc.constraint_ms", Unit: "ms", Better: "lower"},
	{Name: "atpg.run_s", Unit: "s", Better: "lower"},
	{Name: "atpg.vectors", Unit: "count", Better: "lower"},
	{Name: "atpg.fault_p50_us", Unit: "us", Better: "lower"},
	{Name: "atpg.fault_p99_us", Unit: "us", Better: "lower"},
	{Name: "atpg.dropped_frac", Unit: "ratio", Better: "higher"},
	{Name: "atpg.extract_us_per_fault", Unit: "us", Better: "lower"},
	{Name: "atpg.shard_vectors_exchanged", Unit: "count", Better: "lower"},
	{Name: "faults.sim_calls", Unit: "count", Better: "lower"},
	{Name: "faults.sim_batches", Unit: "count", Better: "lower"},
	{Name: "faults.ns_per_fault_vector", Unit: "ns", Better: "lower"},
	{Name: "mna.ac_solves", Unit: "count", Better: "lower"},
	{Name: "mna.ac_solve_us", Unit: "us", Better: "lower"},
	{Name: "analog.ed_evals", Unit: "count", Better: "lower"},
	{Name: "analog.ac_solves_per_cell", Unit: "count", Better: "lower"},
	{Name: "analog.cell_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "analog.cell_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "core.propagator_build_s", Unit: "s", Better: "lower"},
	{Name: "core.element_test_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.element_test_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "core.census_s", Unit: "s", Better: "lower"},
	{Name: "core.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "logic.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "service.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.notify_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.journal_writes_per_job", Unit: "count", Better: "lower"},
	{Name: "service.journal_kb", Unit: "KB", Better: "lower"},
	{Name: "service.journal_write_ms", Unit: "ms", Better: "lower"},
	{Name: "guard.ckpt_flush_ms", Unit: "ms", Better: "lower"},
	{Name: "guard.ckpt_bytes_per_job", Unit: "bytes", Better: "lower"},
	{Name: "obs.collector_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "runtime.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_cycles_per_op", Unit: "count", Better: "lower"},
}
