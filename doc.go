// Package repro is a from-scratch Go reproduction of
//
//	B. Ayari, N. BenHamida, B. Kaminska,
//	"Automatic Test Vector Generation for Mixed-Signal Circuits",
//	European Design and Test Conference (ED&TC / DATE), 1995.
//
// The system generates functional tests for mixed-signal circuits of the
// form analog block → A/D conversion block → digital block, treated as a
// single entity: analog elements are tested by worst-case deviation
// analysis, the digital block by backtrack-free OBDD stuck-at ATPG under
// the constraint function imposed by the conversion block, and analog
// faults are activated by sine stimuli (Table 1 of the paper) and
// propagated through the digital block as composite values D/D̄ with D as
// the last OBDD variable.
//
// The whole pipeline is instrumented through internal/obs (atomic
// counters, gauges, histograms, causal spans — parent-linked through
// contexts, with lane-major ids so sharded runs merge into one
// deterministic trace via Collector.NewChild/Merge — a per-work-item
// structured event log, and a runtime/metrics bridge, on the standard
// library only): cmd/msatpg writes one run record per invocation
// (internal/report: the process snapshot plus the report sections
// distilled from it) as JSON (-report), as text (-report-text) and as a
// Chrome trace_event file (-trace-chrome), and serves -live
// (internal/obs/live, the live ops surface: SSE event streaming with
// Last-Event-ID resume, a snapshot sampler serving per-interval deltas
// and rates at /samples, /healthz and /progressz run progress, and
// pprof endpoints whose CPU samples carry phase=, fault=, frame= and
// element= labels threaded through the run loop). Library callers read
// a run's metrics from the collector they pass (atpg.WithCollector).
// Performance is measured by perfbench, a separate module in perfbench/
// whose workloads and metric catalog BENCHMARK.json declares: the paper's
// workloads end to end and each engine on its own, with every run's
// outputs gated for correctness.
//
// Execution is hardened through internal/guard: every work item (fault,
// analog element, time frame) runs inside a harness that converts
// panics, node/solve budget exhaustion, cancellation and per-item or
// per-run deadlines into typed outcomes (OK, Aborted, TimedOut,
// Canceled) instead of crashes or hangs, retries aborted items with an
// escalating budget, and checkpoints completed faults so a killed run
// resumes without recomputation (msatpg -checkpoint). A deterministic
// chaos injector (internal/guard/chaos) drills the whole pipeline by
// injecting failures at named sites from a seed; msatpg exposes it via
// -chaos-* flags and reports degradation through its exit code (0 all
// classified, 1 degraded, 2 usage error).
//
// The digital run loop scales out through atpg.RunParallel (msatpg
// -workers): the collapsed fault list is partitioned across worker
// shards, each owning its own Generator and BDD manager —
// the unique/computed tables are not goroutine-safe, so the runtime
// partitions state instead of locking it — and its own collector lane.
// Discovered vectors cross the shard boundary in deterministic batches
// for cross-shard fault dropping, fault simulation of each batch fans
// out per shard, and results merge back in stable fault-index order, so
// coverage and classification are identical for every worker count and
// the merged trace is byte-stable for a fixed one. A worker death
// (panic, chaos at atpg.shard, failed setup, deadline) degrades its
// pending faults to typed aborts instead of hanging the run, and
// shard-tagged checkpoint records re-partition on resume under any
// -workers value. There is one engine: (*Generator).Run and one worker
// are the one-shard case of the same coordinator, recording straight to
// the caller's collector. core.CompileProgramParallel, the one
// implementation of the paper's flow, applies the same pool to the
// analog element×bound tests with one vehicle copy per worker, each test
// under the guard harness, and runs the digital phase on this runtime
// under the same limits and checkpoint; core.CompileProgram is its
// one-vehicle call, and msatpg's summary and -program render its result.
//
// The project's cross-cutting contracts (contexts thread through Ctx
// variants, spans end on all paths, mna construction errors are
// consulted, chaos sites come from the internal/guard/chaos registry,
// panics stay behind the guard) are enforced by a standard-library-only
// static analysis suite, internal/lint, run as cmd/msalint — a blocking
// CI job next to go vet. Deliberate exceptions carry inline
// "//lint:allow <check> <reason>" directives.
//
// See README.md for the layout, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// The benchmarks in bench_test.go regenerate every table and figure of
// the paper's evaluation.
package repro
