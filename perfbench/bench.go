package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/perfbench/ledger"
)

// Size scales a workload. The benchmark runs the defaults; tests pass a
// smaller Size through the same code path.
type Size struct {
	// Seconds is the timed phase: operations repeat until it has
	// elapsed, and at least one runs. daemon-inline submits
	// Seconds × jobsPerSecond jobs instead.
	Seconds float64
	// Circuits restricts the Table 4 rows (default c432–c1908).
	Circuits []string
	// Digital is mixed-c1908's digital block (default c1908).
	Digital string
}

func (s Size) circuits() []string {
	if len(s.Circuits) > 0 {
		return s.Circuits
	}
	return []string{"c432", "c499", "c880", "c1355", "c1908"}
}

func (s Size) digital() string {
	if s.Digital != "" {
		return s.Digital
	}
	return "c1908"
}

// env is what one workload run gets: its seed and size, the goldens the
// gate compares against, a scratch directory for durable state, and the
// tracer (nil unless this is a traced run).
type env struct {
	seed   int64
	size   Size
	golden *goldens
	dir    string
	tr     *tracer
}

// workload is one benchmark workload. run measures it and gates its
// outputs; it returns an error only when it cannot run at all.
type workload struct {
	name string
	run  func(e *env) (*result, error)
}

var workloads = []workload{
	{"table4-serial", func(e *env) (*result, error) { return runTable4(e, 1) }},
	{"table4-sharded", func(e *env) (*result, error) { return runTable4(e, 2) }},
	{"analog-ed", runAnalogED},
	{"mixed-c1908", runMixed},
	{"daemon-inline", runDaemon},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is what a workload run produced before it is turned into a
// ledger entry.
type result struct {
	setup     []float64 // set-up durations, s
	ops       []float64 // operation latencies, s
	items     []float64 // work items each operation completed
	span      float64   // closed loop: first submission to last completion, s
	attempted int
	failed    int
	allocMB   float64 // heap allocated per operation in the timed phase
	gcCycles  float64 // GC cycles per operation in the timed phase
	problems  []string
	layers    layerSet
}

func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// Set-up is repeated and reported as its median: at least minSetupReps
// times, and up to a cap until setupBudget of wall time has passed.
// Set-ups take microseconds to milliseconds, so a median over many
// repetitions is what makes setup_s comparable between runs; the first
// hundred or so of a microsecond set-up still run cold, and a median
// over 101 of them spread twice as wide between runs as one over the
// whole budget. maxSetupReps is the cap for in-memory set-ups;
// daemonSetupReps is the daemon's.
const (
	minSetupReps = 5
	maxSetupReps = 20001
	setupBudget  = time.Second
)

// timeSetup measures the program's set-up. build constructs the state
// the operations use; discard, when non-nil, releases a repetition's
// state (untimed) before the next one is built. The last repetition's
// state is kept. maxReps caps the repetitions.
func (r *result) timeSetup(maxReps int, build func() error, discard func()) error {
	start := time.Now()
	for i := 0; i < maxReps && (i < minSetupReps || time.Since(start) < setupBudget); i++ {
		if i > 0 && discard != nil {
			discard()
		}
		t0 := time.Now()
		if err := build(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	return nil
}

// opOut is what one operation did.
type opOut struct {
	items     float64 // work items completed
	attempted int
	failed    int
}

// timeOps repeats op with tracing off until the window is used up — at
// least once, and no further once the next operation would probably end
// more than half an operation past the window — recording each
// operation's latency and the heap and GC activity of the whole phase.
// Every operation starts from a collected heap, so garbage left by the
// previous one does not land in its time. An operation error stops the
// phase and is reported as a failed operation.
func (r *result) timeOps(window float64, op func() (opOut, error)) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for len(r.ops) == 0 || time.Since(start).Seconds()+r.ops[len(r.ops)-1]/2 < window {
		runtime.GC()
		t0 := time.Now()
		out, err := op()
		d := time.Since(t0)
		r.attempted += out.attempted
		r.failed += out.failed
		if err != nil {
			r.failed++
			r.problemf("operation %d: %v", len(r.ops)+1, err)
			break
		}
		r.ops = append(r.ops, d.Seconds())
		r.items = append(r.items, out.items)
	}
	runtime.ReadMemStats(&m1)
	r.recordMem(m0, m1, len(r.ops))
}

func (r *result) recordMem(m0, m1 runtime.MemStats, ops int) {
	if ops == 0 {
		return
	}
	r.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / float64(ops)
	forced := m1.NumForcedGC - m0.NumForcedGC
	r.gcCycles = float64(m1.NumGC-m0.NumGC-forced) / float64(ops)
}

// e2e builds the end-to-end section.
//
// work_per_s of sequential operations is the median operation's rate,
// not total items over total time: on a shared host a burst of
// contention slows a few operations, and a median leaves it out where a
// mean would carry it into the run's result.
func (r *result) e2e() map[string]ledger.Metric {
	var work float64
	workSamples := r.items
	if r.span > 0 {
		total := 0.0
		for _, x := range r.items {
			total += x
		}
		work = total / r.span
	} else {
		workSamples = make([]float64, len(r.ops))
		for i, d := range r.ops {
			workSamples[i] = r.items[i] / d
		}
		work = ledger.Median(workSamples)
	}
	// With fewer than 20 operations no percentile above the median keeps
	// ten samples beyond it; the tail is then the median itself.
	p50 := ledger.Median(r.ops)
	tail, _, ok := ledger.Tail(r.ops)
	if !ok {
		tail = p50
	}
	rss := peakRSSMB()
	return map[string]ledger.Metric{
		"setup_s":     sampled(ledger.Median(r.setup), "s", r.setup),
		"work_per_s":  sampled(work, "1/s", workSamples),
		"op_p50_s":    sampled(p50, "s", r.ops),
		"op_tail_s":   sampled(tail, "s", r.ops),
		"peak_rss_mb": sampled(rss, "MB", []float64{rss}),
	}
}

func sampled(v float64, unit string, samples []float64) ledger.Metric {
	return ledger.Metric{Value: v, Unit: unit, N: len(samples), Samples: samples}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// layerSet accumulates per-layer metrics. Metrics a workload never sets
// are reported as 0: the workload does no work in that layer.
type layerSet map[string]ledger.Metric

func (l layerSet) set(name string, v float64) {
	l[name] = ledger.Metric{Value: v, N: 1}
}

// dist records the p-th percentile of a distribution with its samples.
func (l layerSet) dist(name string, samples []float64, p float64) {
	if len(samples) == 0 {
		return
	}
	l[name] = ledger.Metric{Value: ledger.Percentile(samples, p), N: len(samples), Samples: samples}
}

// final fills in units and zeroes for the whole per-layer catalog.
func (l layerSet) final() map[string]ledger.Metric {
	out := make(map[string]ledger.Metric, len(layerMetrics))
	for _, def := range layerMetrics {
		m := l[def.Name]
		m.Unit = def.Unit
		out[def.Name] = m
	}
	return out
}

// tracedOp runs one operation with tracing on and returns its wall time
// and the program's own obs counters accumulated over it.
func tracedOp(fn func() error) (time.Duration, *obs.Snapshot, error) {
	before := obs.Default.Snapshot()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	return d, obs.Default.Snapshot().Sub(before), err
}

// counterLayers reads the per-layer counts the program publishes through
// obs out of the counter delta of a traced operation.
func (l layerSet) counterLayers(d *obs.Snapshot) {
	l.set("bdd.ite_calls", float64(d.Counters["bdd.ite.hit"]+d.Counters["bdd.ite.miss"]))
	l.set("bdd.ite_hit_rate", d.Derived["bdd.ite.hit_rate"])
	l.set("bdd.unique_hit_rate", d.Derived["bdd.unique.hit_rate"])
	l.set("bdd.nodes_alloc", float64(d.Counters["bdd.nodes.alloc"]))
	if d.Counters["bdd.nodes.alloc"] > 0 {
		l.set("bdd.nodes_peak", float64(d.Gauges["bdd.nodes.peak"]))
	}
	if h, ok := d.Histograms["atpg.fault.latency_ns"]; ok {
		l.set("atpg.fault_p50_us", h.Quantile(0.5)/1e3)
		l.set("atpg.fault_p99_us", h.Quantile(0.99)/1e3)
	}
	if total := d.Counters["atpg.faults.total"]; total > 0 {
		l.set("atpg.dropped_frac", float64(d.Counters["atpg.faults.dropped"])/float64(total))
	}
	l.set("atpg.vectors", float64(d.Counters["atpg.vectors"]))
	l.set("atpg.shard_vectors_exchanged", float64(d.Counters["atpg.shard.vectors_exchanged"]))
	l.set("faults.sim_calls", float64(d.Counters["faults.sim.calls"]))
	l.set("faults.sim_batches", float64(d.Counters["faults.sim.batches"]))
	l.set("mna.ac_solves", float64(d.Counters["mna.solves.ac"]))
	l.set("analog.ed_evals", float64(d.Counters["analog.ed.evals"]))
}

// spanLayers reads self times and latency distributions off the traced
// operation's benchmark-side spans.
func (l layerSet) spanLayers(spans []obs.SpanRecord) {
	self := selfTimes(spans)
	l.set("bdd.build_s", self["bdd.build"])
	l.set("adc.constraint_ms", 1e3*self["adc.constraint"])
	l.set("atpg.run_s", self["atpg.run"])
	l.set("core.propagator_build_s", self["core.propagator"])
	l.set("core.census_s", self["core.census"])
	l.set("core.compact_ms", 1e3*self["core.compact"])
	cells := durationsMs(spans, "analog.cell")
	l.dist("analog.cell_ms_p50", cells, 50)
	l.dist("analog.cell_ms_p90", cells, 90)
	tests := durationsMs(spans, "core.element_test")
	l.dist("core.element_test_ms_p50", tests, 50)
	l.dist("core.element_test_ms_p90", tests, 90)
}

// traced fills the per-layer metrics of a traced operation that took d:
// the program's counters over it (delta), self times and latency
// distributions from the benchmark-side spans, its overhead against the
// median untraced operation, and the timed phase's heap and GC activity
// per operation.
func (r *result) traced(d time.Duration, delta *obs.Snapshot, spans []obs.SpanRecord) {
	r.layers.counterLayers(delta)
	r.layers.spanLayers(spans)
	if m := ledger.Median(r.ops); m > 0 {
		r.layers.set("obs.trace_overhead_frac", d.Seconds()/m-1)
	}
	r.layers.set("runtime.alloc_mb_per_op", r.allocMB)
	r.layers.set("runtime.gc_cycles_per_op", r.gcCycles)
}
