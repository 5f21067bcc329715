// Command perfbench is the repository's perf ledger. It runs the paper's
// workloads the way a user runs them, measures end-to-end and per-layer
// metrics, gates every output for correctness and writes one schema-v3
// record (package ledger) per invocation. BENCHMARK.json at the
// repository root names the workloads and the metric catalog with units,
// directions and regression bounds; a test keeps it equal to the catalog
// in catalog.go.
//
// Run it from the repository root; run.sh builds it into .bench_build/
// first:
//
//	bash perfbench/run.sh --workload table4-serial --seed 0 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --out ledger.json
//	bash perfbench/run.sh --workload mixed-c1908 --trace 1 --trace-chrome spans.json
//
// Every metric is printed by name with its unit; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. --workload all re-executes the binary once per
// workload, in the order below, so peak RSS and GC state are per
// workload, and merges their records. Records carry the commit, seed, Go
// version, GOMAXPROCS and CPU count; fewer than 2 CPUs draws a warning.
//
// # Workloads
//
// Each workload repeats an operation with tracing off for --seconds (at
// least once) and counts the work items the operations complete.
//
//   - table4-serial: an operation is the Table 4 rows c432–c1908, free
//     and under the 15-comparator constraint Fc, each through atpg.New
//     and Generator.Run; an item is one collapsed fault classified
//     (11,352 per operation). The engine ROADMAP item 2 rewrites.
//   - table4-sharded: the same operation through atpg.RunParallel at 2
//     workers: round-barrier batched fault simulation, vector exchange
//     and lane merge.
//   - analog-ed: an operation builds the Equation 1 band-pass and Table 3
//     Chebyshev ED matrices with analog.BuildMatrix; an item is one cell
//     (159 per operation). mna and analog do all the work, bdd none.
//   - mixed-c1908: an operation is BuildMatrix plus core.CompileProgram on
//     Chebyshev → flash → c1908, the paper's whole method and the only
//     workload that exercises core; an item is one compiled program.
//   - daemon-inline: msatpgd's service in-process (service.New and Serve
//     on a loopback listener, default configuration). Two closed-loop
//     clients each POST an inline c432-profile netlist and poll the job
//     every 2 ms until it is done; an operation and an item are one job,
//     submit to observed completion. A run submits --seconds × 7.5 jobs.
//
// # Metrics
//
// End to end, measured on the untraced operations:
//
//	setup_s      median of repeated set-ups before the first operation:
//	             iscas.Generate + faults.Collapse (Table 4), building the
//	             filters with their values (analog-ed), the same plus
//	             core.NewMixed (mixed-c1908), service.New until /healthz
//	             answers (daemon-inline); input generation is excluded
//	work_per_s   items per second of the median operation's rate
//	             (daemon-inline, whose jobs overlap: jobs per second from
//	             the first submission to the last completion)
//	op_p50_s     median operation latency
//	op_tail_s    the highest latency percentile that keeps ten operations
//	             beyond it; runs with fewer than 20 operations report the
//	             median, as no percentile above it qualifies
//	peak_rss_mb  peak resident set of the workload's process
//
// Failed operations (errors, aborted or timed-out faults, failed jobs,
// non-2xx responses) are counted in the result's "failed" against
// "attempted".
//
// Per layer, with --trace 1: after the timed operations one more
// operation runs with benchmark-side spans around every call into the
// program (one lane per workload configuration; --trace-chrome writes
// them as a Chrome trace). A layer's time is its spans' self time, the
// span minus the part its child spans cover. Counts come from the obs
// counters the program already publishes (obs.Default, delta over the
// traced operation). Layer probes then time single layers on fixed
// inputs: OBDD construction per ITE call, vector extraction, one
// fault-simulation batch, one AC solve, a journal rewrite, checkpoint
// flushes, and the obs collector's own cost. A layer the workload never
// calls reports 0. obs.trace_overhead_frac compares the traced operation
// with the median untraced one. BENCHMARK.json lists the whole catalog.
//
// # Inputs
//
// --seed generates the inputs; the program receives only the generated
// circuits, comparator bindings, component values and netlists. Seed 0
// is the paper's inputs. Other seeds redraw the digital inputs the 15
// comparators drive (Table 4), scale every filter element within ±5%
// (analog-ed, mixed-c1908) and generate other c432-profile job netlists
// (daemon-inline).
//
// # Correctness gate
//
// Every run checks its outputs outside the timed region and exits 1 on
// a failed check. At seed 0: the Table 4 untestable and vector counts of
// EXPERIMENTS.md (workers=2 vector counts pinned separately), the
// Equation 1 and Table 3 ED matrices at printed precision, the mixed
// program's 34 analog tests, 16 conversion tests and 103 vectors, and the
// canonical c432 job (golden.json). For every seed: each run's vectors
// are re-simulated by an independent faults.Simulator and must detect
// exactly the faults the run claims, none it calls untestable, and obey
// Fc; each finite ED is re-measured at and within 0.1% either side of
// its value, and must move the parameter out of its box at one of them;
// repeated and traced operations must reproduce the first one; every
// 20th daemon job's canonical classification must equal a direct
// atpg.RunParallel on the same netlist byte for byte.
//
// # Comparing two commits
//
// A shared host's speed drifts by tens of percent over minutes, so only
// interleaved runs compare. Build the parent and the change, alternate
// their runs (at least 5 each, same seed and --seconds, each with --out),
// then
//
//	perfbench -sets parent1.json,parent2.json,... change1.json,change2.json,...
//
// prints each workload × metric's medians, quartiles, delta, bound and
// verdict: improved, regressed, unchanged, or unresolved when a side's
// own quartile spread exceeds the bound (unless every change run beats
// every parent run). It exits 1 only on a regression.
//
// This ledger supersedes benchgen -obs (schema v2),
// testdata/BENCH_baseline.json, CI's bench-obs job and the component
// benches of bench_test.go; removing them is left to a later change.
package main
