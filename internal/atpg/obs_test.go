package atpg

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/obs"
)

// TestCoverageEdgeCases pins the two degenerate Coverage() inputs: a
// vacuous run (no faults) must read as 0, and a run in which every fault
// is provably untestable must read as 1.
func TestCoverageEdgeCases(t *testing.T) {
	empty := &Result{}
	if got := empty.Coverage(); got != 0 {
		t.Errorf("empty-fault-list coverage = %g, want 0", got)
	}
	allUntestable := &Result{
		Total:      2,
		Untestable: []faults.Fault{{Signal: 1, Consumer: -1}, {Signal: 2, Consumer: -1}},
	}
	if got := allUntestable.Coverage(); got != 1 {
		t.Errorf("all-untestable coverage = %g, want 1", got)
	}
	half := &Result{Total: 4, Detected: 2}
	if got := half.Coverage(); got != 0.5 {
		t.Errorf("coverage = %g, want 0.5", got)
	}
}

// TestRandomPhaseDeterministic asserts that WithRandomPhase draws from a
// run-local generator: two runs with the same seed produce identical
// vector sets even when other code churns the package-global math/rand
// state in between.
func TestRandomPhaseDeterministic(t *testing.T) {
	c := iscas.MustBenchmark("c432")
	fs := faults.Collapse(c)
	run := func() *Result {
		g, err := New(c, WithCollector(nil))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return g.Run(fs, WithRandomPhase(32, 12345))
	}
	a := run()
	// Churn the global generator; a run reading global state would diverge.
	for i := 0; i < 1000; i++ {
		rand.Int()
	}
	b := run()
	if a.RandomHits == 0 {
		t.Fatal("random phase detected nothing on c432; test is vacuous")
	}
	if len(a.Vectors) != len(b.Vectors) {
		t.Fatalf("vector counts differ: %d vs %d", len(a.Vectors), len(b.Vectors))
	}
	for i := range a.Vectors {
		if a.Vectors[i].String() != b.Vectors[i].String() {
			t.Fatalf("vector %d differs: %s vs %s", i, a.Vectors[i], b.Vectors[i])
		}
	}
	if a.RandomHits != b.RandomHits || a.Detected != b.Detected {
		t.Errorf("tallies differ: hits %d/%d detected %d/%d",
			a.RandomHits, b.RandomHits, a.Detected, b.Detected)
	}
}

// TestRunStatsSnapshot is the obs regression test of the issue: after a
// c432 ATPG run the snapshot must report a nonzero ITE cache hit rate, a
// positive peak node gauge, a populated per-fault latency histogram and
// the run spans.
func TestRunStatsSnapshot(t *testing.T) {
	c := iscas.MustBenchmark("c432")
	col := obs.NewCollector()
	g, err := New(c, WithCollector(col))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fs := faults.Collapse(c)
	res := g.Run(fs)
	s := col.Snapshot()
	if s.Counters["bdd.ite.hit"] == 0 || s.Counters["bdd.ite.miss"] == 0 {
		t.Errorf("ITE cache counters empty: hit=%d miss=%d",
			s.Counters["bdd.ite.hit"], s.Counters["bdd.ite.miss"])
	}
	rate, ok := s.Derived["bdd.ite.hit_rate"]
	if !ok || rate <= 0 || rate >= 1 {
		t.Errorf("ITE hit rate = %g (present=%v), want in (0, 1)", rate, ok)
	}
	if peak := s.Gauges["bdd.nodes.peak"]; peak <= 0 {
		t.Errorf("bdd.nodes.peak = %d, want > 0", peak)
	}
	h := s.Histograms["atpg.fault.latency_ns"]
	if h.Count == 0 || h.Sum <= 0 {
		t.Errorf("latency histogram empty: %+v", h)
	}
	// Every targeted fault (vector, untestable or aborted) is timed once.
	targeted := int64(len(res.Vectors)) + int64(len(res.Untestable)) + int64(len(res.Aborted)) - int64(res.RandomHits)
	if h.Count != targeted {
		t.Errorf("latency observations = %d, want %d targeted faults", h.Count, targeted)
	}
	if got := s.Counters["atpg.faults.total"]; got != int64(len(fs)) {
		t.Errorf("atpg.faults.total = %d, want %d", got, len(fs))
	}
	if got := s.Counters["atpg.faults.detected"]; got != int64(res.Detected) {
		t.Errorf("atpg.faults.detected = %d, want %d", got, res.Detected)
	}
	spans := map[string]bool{}
	for _, sp := range s.Spans {
		spans[sp.Name] = true
	}
	for _, want := range []string{"atpg.run", "atpg.deterministic_phase"} {
		if !spans[want] {
			t.Errorf("snapshot missing span %q (have %v)", want, s.Spans)
		}
	}
}

// TestWithCollectorNilDisables verifies the no-op path: a run with
// instrumentation off records nothing on obs.Default — no counter (the
// fault simulator's faults.sim.* included), gauge, histogram, span or
// event — and still classifies every fault.
func TestWithCollectorNilDisables(t *testing.T) {
	c := iscas.MustBenchmark("c432")
	before := obs.Default.Snapshot()
	g, err := New(c, WithCollector(nil))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := g.Run(faults.Collapse(c), WithRandomPhase(64, 1))
	after := obs.Default.Snapshot()
	if res.RandomHits == 0 || res.Detected == 0 {
		t.Fatalf("uninstrumented run did no work: %d detected, %d random hits", res.Detected, res.RandomHits)
	}
	if len(res.Aborted)+len(res.TimedOut) != 0 {
		t.Errorf("uninstrumented run degraded: %d aborted, %d timed out", len(res.Aborted), len(res.TimedOut))
	}
	delta := after.Sub(before)
	for name, d := range delta.Counters {
		t.Errorf("counter %s moved by %d on obs.Default", name, d)
	}
	for name, v := range after.Gauges {
		if before.Gauges[name] != v {
			t.Errorf("gauge %s moved from %d to %d on obs.Default", name, before.Gauges[name], v)
		}
	}
	for name, h := range delta.Histograms {
		t.Errorf("histogram %s gained %d observations on obs.Default", name, h.Count)
	}
	if n := int64(len(delta.Spans)) + delta.SpansDropped; n != 0 {
		t.Errorf("%d spans recorded on obs.Default", n)
	}
	if n := int64(len(delta.Events)) + delta.EventsDropped; n != 0 {
		t.Errorf("%d events recorded on obs.Default", n)
	}
}
