package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/analog"
	"repro/internal/iscas"
)

// run is a test helper executing one experiment once.
func run(t *testing.T, id string) *Result {
	t.Helper()
	res, err := Run(id)
	if err != nil {
		t.Fatalf("Run(%s): %v", id, err)
	}
	if res.ID != id || res.Text == "" || res.Data == nil {
		t.Fatalf("Run(%s): incomplete result %+v", id, res)
	}
	return res
}

func TestRegistry(t *testing.T) {
	want := []string{"ablation", "eq1", "extda", "fig3", "fig6", "figures", "table3", "table4", "table5", "table6", "table7", "table8"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs[%d] = %s, want %s", i, got[i], want[i])
		}
		if _, ok := Title(want[i]); !ok {
			t.Errorf("missing title for %s", want[i])
		}
	}
	if _, err := Run("nope"); err == nil {
		t.Error("unknown id must error")
	}
}

func TestEq1ReproducesExample1(t *testing.T) {
	data := run(t, "eq1").Data.(Eq1Data)
	// The paper's selection: the test set is {A1, A2}.
	if got := strings.Join(data.SetNames, ","); got != "A1,A2" {
		t.Errorf("test set = %s, want A1,A2", got)
	}
	// A1 depends only on Rg and Rd (Equation 1's zero pattern).
	for _, e := range []string{"R1", "R2", "R3", "R4", "C1", "C2"} {
		if ed, _ := data.Matrix.Lookup(e, "A1"); !analog.Unobservable(ed) {
			t.Errorf("A1 must not observe %s (got %.3f)", e, ed)
		}
	}
	// Rd is detected near 10% via A1, as in the paper's 9.9%.
	edRd, _ := data.Matrix.Lookup("Rd", "A1")
	if edRd < 0.05 || edRd > 0.20 {
		t.Errorf("ED(Rd, A1) = %.3f, want ≈0.10", edRd)
	}
	// The test set covers every element.
	if !data.TestSet.Covered() {
		t.Error("test set must cover all eight elements")
	}
	// f0 is blind to Rg and Rd.
	for _, e := range []string{"Rg", "Rd"} {
		if ed, _ := data.Matrix.Lookup(e, "f0"); !analog.Unobservable(ed) {
			t.Errorf("f0 must not observe %s", e)
		}
	}
}

func TestFig3ReproducesExample2(t *testing.T) {
	data := run(t, "fig3").Data.(Fig3Data)
	if data.TotalFaults != 18 {
		t.Errorf("fault universe = %d, want 18", data.TotalFaults)
	}
	if len(data.StandaloneUntestable) != 0 {
		t.Errorf("standalone untestable = %v, want none (100%% coverage)", data.StandaloneUntestable)
	}
	if len(data.ConstrainedUntest) != 2 {
		t.Fatalf("constrained untestable = %v, want exactly 2", data.ConstrainedUntest)
	}
	got := strings.Join(data.ConstrainedUntest, "|")
	if !strings.Contains(got, "l0 s-a-1") || !strings.Contains(got, "l3 s-a-1") {
		t.Errorf("untestable = %s, want l0 s-a-1 and l3 s-a-1", got)
	}
	// The paper's vector {0, 0, 1, X}.
	v := data.VectorForL3SA0
	if v["l0"] || v["l1"] || !v["l2"] {
		t.Errorf("vector = %v, want l0=0 l1=0 l2=1", v)
	}
}

func TestFig6Propagation(t *testing.T) {
	data := run(t, "fig6").Data.(Fig6Data)
	if len(data.Vo1Only.Outputs) != 1 || data.Vo1Only.Outputs[0] != "Vo1" {
		t.Errorf("comparator-1 fault must reach exactly Vo1, got %v", data.Vo1Only.Outputs)
	}
	if len(data.Both.Outputs) != 2 {
		t.Errorf("scenario B must reach both outputs, got %v", data.Both.Outputs)
	}
	for _, out := range []string{"Vo1", "Vo2"} {
		if !strings.Contains(data.Expressions[out], "D") {
			t.Errorf("OBDD of %s must contain the D node: %s", out, data.Expressions[out])
		}
	}
	if !strings.Contains(data.Dot, "digraph") || !strings.Contains(data.Dot, "\"D\"") {
		t.Error("DOT rendering must include the D node")
	}
}

func TestTable3AccuracyPreserved(t *testing.T) {
	data := run(t, "table3").Data.(Table3Data)
	if len(data.Rows) != 17 {
		t.Fatalf("rows = %d, want 17 elements", len(data.Rows))
	}
	for _, r := range data.Rows {
		if analog.Unobservable(r.ED) {
			t.Errorf("%s: unobservable even with direct access", r.Element)
			continue
		}
		if !r.Case2OK {
			t.Errorf("%s: not testable in the mixed circuit", r.Element)
			continue
		}
		// The paper's central Table 3 claim: the element is tested with
		// the same accuracy in both cases.
		if math.Abs(r.Case2ED-r.ED) > 1e-9 {
			t.Errorf("%s: case2 ED %.4f != case1 ED %.4f", r.Element, r.Case2ED, r.ED)
		}
		if r.Comparator < 1 || r.Comparator > ComparatorCount {
			t.Errorf("%s: comparator %d out of range", r.Element, r.Comparator)
		}
	}
}

func TestTable4ConstraintsReduceCoverage(t *testing.T) {
	data := run(t, "table4").Data.([]Table4Row)
	if len(data) != 5 {
		t.Fatalf("rows = %d, want 5", len(data))
	}
	published := map[string][2]int{ // free, constrained untestable
		"c432": {4, 11}, "c499": {8, 8}, "c880": {0, 12}, "c1355": {8, 12}, "c1908": {9, 81},
	}
	for _, r := range data {
		pub := published[r.Circuit]
		// Qualitative claim: constraints never help and usually hurt.
		if r.ConsUntestable < r.FreeUntestable {
			t.Errorf("%s: constraints reduced untestable faults (%d < %d)",
				r.Circuit, r.ConsUntestable, r.FreeUntestable)
		}
		// Size-class agreement with the published counts (generated
		// stand-ins; see EXPERIMENTS.md for exact measured values).
		if diff := r.FreeUntestable - pub[0]; diff < -3 || diff > 3 {
			t.Errorf("%s: free untestable = %d, published %d", r.Circuit, r.FreeUntestable, pub[0])
		}
		if r.Circuit == "c1908" {
			if r.ConsUntestable < 50 {
				t.Errorf("c1908: constrained untestable = %d, want the published blow-up (~81)",
					r.ConsUntestable)
			}
		} else if diff := r.ConsUntestable - pub[1]; diff < -6 || diff > 6 {
			t.Errorf("%s: constrained untestable = %d, published %d", r.Circuit, r.ConsUntestable, pub[1])
		}
		if r.FreeVectors == 0 || r.ConsVectors == 0 {
			t.Errorf("%s: no vectors generated", r.Circuit)
		}
	}
}

func TestTable5SomeComparatorsBlocked(t *testing.T) {
	data := run(t, "table5").Data.([]Table5Row)
	if len(data) != 5 {
		t.Fatalf("rows = %d, want 5", len(data))
	}
	totalBlocked := 0
	for _, r := range data {
		if r.PIFromCB != ComparatorCount {
			t.Errorf("%s: comparator count = %d", r.Circuit, r.PIFromCB)
		}
		totalBlocked += r.BlockedLow + r.BlockedHigh
		// Most comparators must remain usable.
		if r.BlockedLow > 5 || r.BlockedHigh > 5 {
			t.Errorf("%s: too many blocked comparators (%d, %d)", r.Circuit, r.BlockedLow, r.BlockedHigh)
		}
	}
	// The paper's Table 5 has small nonzero counts overall.
	if totalBlocked == 0 {
		t.Error("expected at least one blocked comparator across the suite")
	}
}

func TestTable6MidLadderPeak(t *testing.T) {
	data := run(t, "table6").Data.(Table6Data)
	if len(data.ED) != 16 {
		t.Fatalf("resistors = %d, want 16", len(data.ED))
	}
	mid := data.ED[7]
	if data.ED[0] >= mid || data.ED[15] >= mid {
		t.Errorf("coverage must peak mid-ladder: R1=%.2f R8=%.2f R16=%.2f",
			data.ED[0], mid, data.ED[15])
	}
	// Same ballpark as the published 91% peak / 6–15% ends.
	if mid < 0.4 || mid > 1.2 {
		t.Errorf("mid-ladder ED = %.2f, want ≈0.8", mid)
	}
	if data.ED[0] > 0.2 {
		t.Errorf("edge ED = %.2f, want small", data.ED[0])
	}
	for i, k := range data.BestComparators {
		if k < 1 || k > 15 {
			t.Errorf("R%d: comparator %d out of range", i+1, k)
		}
	}
}

func TestTable7RestrictionNeverImproves(t *testing.T) {
	t6 := run(t, "table6").Data.(Table6Data)
	blocks := run(t, "table7").Data.([]Table7Block)
	if len(blocks) != len(Table7Circuits) {
		t.Fatalf("blocks = %d, want %d", len(blocks), len(Table7Circuits))
	}
	anyShift := false
	for _, b := range blocks {
		for i := range b.ED {
			if b.ED[i] < t6.ED[i]-1e-12 {
				t.Errorf("%s R%d: embedded coverage better than direct (%.3f < %.3f)",
					b.Circuit, i+1, b.ED[i], t6.ED[i])
			}
			if b.ED[i] > t6.ED[i]+1e-12 {
				anyShift = true // a blocked comparator forced a worse ED
			}
		}
	}
	if !anyShift {
		t.Error("expected at least one element to need a larger deviation inside the mixed circuit")
	}
}

func TestTable8ValidationClaims(t *testing.T) {
	data := run(t, "table8").Data.(Table8Data)
	if len(data.Rows) != 12 {
		t.Fatalf("rows = %d, want 12 components", len(data.Rows))
	}
	for _, r := range data.Rows {
		if analog.Unobservable(r.CD) {
			t.Errorf("%s: no parameter observes it", r.Element)
			continue
		}
		// The paper's claim: the injected worst-case deviation forces
		// the measured performance out of its ±5% tolerance box.
		if math.Abs(r.MPD) < 0.05*0.98 {
			t.Errorf("%s: MPD %.2f%% inside the tolerance box", r.Element, 100*r.MPD)
		}
		if !r.Detected {
			t.Errorf("%s: fault does not flip the ADC code at the digital block", r.Element)
		}
	}
	// The digital half: the adder stays fully testable on the board.
	if data.AdderUntestable != 0 {
		t.Errorf("adder untestable = %d, want 0", data.AdderUntestable)
	}
	if data.AdderVectors == 0 || data.AdderFaults == 0 {
		t.Error("adder ATPG did not run")
	}
}

func TestAblationStrategies(t *testing.T) {
	data := run(t, "ablation").Data.([]AblationRow)
	if len(data) != len(ablationCircuits) {
		t.Fatalf("rows = %d, want %d", len(data), len(ablationCircuits))
	}
	for _, r := range data {
		// The random phase detects the bulk of the faults and cuts the
		// vector count and CPU — the acceleration the paper forgoes
		// under constraints.
		if r.RandHits < r.Faults/2 {
			t.Errorf("%s: random phase detected only %d of %d", r.Circuit, r.RandHits, r.Faults)
		}
		if r.RandVectors >= r.DetVectors {
			t.Errorf("%s: random-phase flow did not shrink the set (%d vs %d)",
				r.Circuit, r.RandVectors, r.DetVectors)
		}
		// Compaction shrinks the deterministic set without (by
		// construction) losing coverage.
		if r.CompactedVectors > r.DetVectors {
			t.Errorf("%s: compaction grew the set", r.Circuit)
		}
		if r.CompactedVectors == 0 {
			t.Errorf("%s: compaction emptied the set", r.Circuit)
		}
		// Checkpoint targeting uses fewer or equal targets.
		if r.CkptTargets > r.Faults {
			t.Errorf("%s: checkpoint list larger than collapsed list", r.Circuit)
		}
	}
}

func TestExtDADualConfiguration(t *testing.T) {
	data := run(t, "extda").Data.(ExtDAData)
	if len(data.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 accuracy points", len(data.Rows))
	}
	// τ = 1 (every code change observable) equals classic full coverage.
	if data.Rows[0].Tau != 1 || data.Rows[0].Untestable != 0 {
		t.Errorf("τ=1 row = %+v, want full coverage", data.Rows[0])
	}
	// Coverage degrades monotonically as the measurement coarsens.
	for i := 1; i < len(data.Rows); i++ {
		if data.Rows[i].Detected > data.Rows[i-1].Detected {
			t.Errorf("coverage grew from τ=%d to τ=%d", data.Rows[i-1].Tau, data.Rows[i].Tau)
		}
	}
	if data.Rows[len(data.Rows)-1].Untestable == 0 {
		t.Error("coarsest measurement must lose some faults")
	}
	// Ladder coverage: the MSB leg is the easiest element, the LSB-side
	// elements the hardest — the R-2R dual of Table 6's gradient.
	names := data.LadderNames
	byName := map[string]float64{}
	for i, n := range names {
		byName[n] = data.LadderED[i]
	}
	if !(byName["Ra4"] < byName["Ra2"] && byName["Ra2"] < byName["Ra0"]) {
		t.Errorf("ladder EDs not MSB<mid<LSB: Ra4=%.2f Ra2=%.2f Ra0=%.2f",
			byName["Ra4"], byName["Ra2"], byName["Ra0"])
	}
	// The analog divider elements are testable through the chain at
	// roughly 2× the 5% accuracy (sensitivity 0.5 each).
	for _, e := range []string{"R1", "R2"} {
		ed := data.AnalogED[e]
		if ed < 0.05 || ed > 0.30 {
			t.Errorf("analog ED(%s) = %.3f, want ≈0.10", e, ed)
		}
	}
}

func TestFiguresRealizations(t *testing.T) {
	data := run(t, "figures").Data.(FiguresData)
	if len(data.Analog) != 3 {
		t.Fatalf("analog figures = %d, want 3", len(data.Analog))
	}
	// Element counts match the paper's schematics: 8 (band-pass), 17
	// (Chebyshev: 12 R + 5 C), 12 (state-variable board).
	want := []int{8, 17, 12}
	for i, fd := range data.Analog {
		if len(fd.Elements) != want[i] {
			t.Errorf("%s: %d elements, want %d", fd.Figure, len(fd.Elements), want[i])
		}
		if len(fd.Nominal) == 0 {
			t.Errorf("%s: no nominal measurements", fd.Figure)
		}
		for p, v := range fd.Nominal {
			if v <= 0 {
				t.Errorf("%s: nominal %s = %g not positive", fd.Figure, p, v)
			}
		}
	}
	if len(data.Digital) != 2 {
		t.Errorf("digital figures = %d, want 2", len(data.Digital))
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	// Cheap experiments must render identically across runs (the seeds
	// are fixed; nothing should depend on map order or wall clock).
	for _, id := range []string{"fig3", "fig6", "table6", "figures"} {
		a := run(t, id).Text
		b := run(t, id).Text
		if a != b {
			t.Errorf("%s: output not deterministic", id)
		}
	}
	// Figure 6's DOT names nodes by Ref, so it repeats only if every BDD
	// operation behind it runs in the same order (tables -json prints it).
	dot := run(t, "fig6").Data.(Fig6Data).Dot
	for i := 0; i < 20; i++ {
		if got := run(t, "fig6").Data.(Fig6Data).Dot; got != dot {
			t.Fatalf("fig6 DOT differs on run %d:\n%s\nfirst run:\n%s", i+2, got, dot)
		}
	}
}

func TestBoundInputsDeterministic(t *testing.T) {
	c, err := iscas.Benchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	a := BoundInputs(c, "c432")
	b := BoundInputs(c, "c432")
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Error("binding must be deterministic")
	}
	if len(a) != ComparatorCount {
		t.Errorf("bound = %d inputs, want %d", len(a), ComparatorCount)
	}
	seen := map[string]bool{}
	for _, n := range a {
		if seen[n] {
			t.Errorf("input %s bound twice", n)
		}
		seen[n] = true
	}
}

func TestRenderHelpers(t *testing.T) {
	if pct(math.Inf(1)) != "—" {
		t.Error("infinite ED must render as a dash")
	}
	if pct(0.099) != "9.90" {
		t.Errorf("pct(0.099) = %s", pct(0.099))
	}
	if pct(0.62) != "62.0" {
		t.Errorf("pct(0.62) = %s", pct(0.62))
	}
	if pct(1.13) != "113" {
		t.Errorf("pct(1.13) = %s", pct(1.13))
	}
	out := table("T", [][]string{{"a", "bb"}, {"ccc", "d"}})
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "ccc") {
		t.Errorf("table rendering broken: %q", out)
	}
}
