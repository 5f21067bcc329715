package atpg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bdd"
	"repro/internal/faults"
	"repro/internal/logic"
)

func adder(t testing.TB) *logic.Circuit {
	t.Helper()
	c := logic.New("fa")
	c.AddInput("a")
	c.AddInput("b")
	c.AddInput("cin")
	c.AddGate("axb", logic.TypeXor, "a", "b")
	c.AddGate("sum", logic.TypeXor, "axb", "cin")
	c.AddGate("ab", logic.TypeAnd, "a", "b")
	c.AddGate("c_axb", logic.TypeAnd, "axb", "cin")
	c.AddGate("cout", logic.TypeOr, "ab", "c_axb")
	c.MarkOutput("sum")
	c.MarkOutput("cout")
	return c.MustFreeze()
}

func TestGoodFunctionsMatchSimulation(t *testing.T) {
	c := adder(t)
	g, err := New(c)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m := g.Manager()
	for p := 0; p < 8; p++ {
		assign := bdd.Assignment{"a": p&1 != 0, "b": p&2 != 0, "cin": p&4 != 0}
		simVals := c.Eval(map[string]bool(assign))
		for _, name := range []string{"axb", "sum", "ab", "c_axb", "cout"} {
			id := c.MustSig(name)
			if m.Eval(g.GoodFunction(id), assign) != simVals[name] {
				t.Errorf("pattern %d: BDD of %s disagrees with simulation", p, name)
			}
		}
	}
}

func TestGenerateVectorDetectsFault(t *testing.T) {
	c := adder(t)
	g, err := New(c)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sim := faults.NewSimulator(c)
	for _, f := range faults.All(c) {
		v, ok := g.GenerateVector(f)
		if !ok {
			t.Errorf("%s reported untestable in a fully testable circuit", f.Name(c))
			continue
		}
		if !sim.DetectsFault(v, f) {
			t.Errorf("vector %s does not detect %s", v, f.Name(c))
		}
	}
}

func TestRunFullCoverage(t *testing.T) {
	c := adder(t)
	g, err := New(c)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fs := faults.Collapse(c)
	res := g.Run(fs)
	if len(res.Untestable) != 0 {
		t.Errorf("untestable = %d, want 0", len(res.Untestable))
	}
	if res.Detected != len(fs) {
		t.Errorf("detected = %d, want %d", res.Detected, len(fs))
	}
	if res.Coverage() != 1 {
		t.Errorf("coverage = %g, want 1", res.Coverage())
	}
	// The vector set must detect every fault when re-simulated.
	sim := faults.NewSimulator(c)
	if got := sim.Coverage(res.Vectors, fs); got != len(fs) {
		t.Errorf("re-simulated coverage = %d/%d", got, len(fs))
	}
	if res.PeakNodes <= 0 || res.CPU < 0 {
		t.Error("run statistics not populated")
	}
}

func TestRedundantFaultUntestable(t *testing.T) {
	// y = OR(a, NOT(a)): y s-a-1 is undetectable without constraints.
	c := logic.New("red")
	c.AddInput("a")
	c.AddGate("na", logic.TypeNot, "a")
	c.AddGate("y", logic.TypeOr, "a", "na")
	c.MarkOutput("y")
	c.MustFreeze()
	g, err := New(c)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f := faults.Fault{Signal: c.MustSig("y"), Consumer: -1, Value: true}
	if _, ok := g.GenerateVector(f); ok {
		t.Error("redundant fault must be untestable")
	}
	if _, ok := g.GenerateVector(faults.Fault{Signal: c.MustSig("y"), Consumer: -1, Value: false}); !ok {
		t.Error("y s-a-0 must be testable")
	}
}

func TestConstraintsMakeFaultsUntestable(t *testing.T) {
	// y = AND(a, b): y s-a-0 needs a=b=1. Constrain Fc = ¬(a∧b) and the
	// fault becomes untestable, exactly the paper's mechanism.
	c := logic.New("cons")
	c.AddInput("a")
	c.AddInput("b")
	c.AddGate("y", logic.TypeAnd, "a", "b")
	c.MarkOutput("y")
	c.MustFreeze()
	g, err := New(c)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f := faults.Fault{Signal: c.MustSig("y"), Consumer: -1, Value: false}
	if _, ok := g.GenerateVector(f); !ok {
		t.Fatal("y s-a-0 must be testable without constraints")
	}
	m := g.Manager()
	g.SetConstraint(m.Not(m.And(m.Var("a"), m.Var("b"))))
	if _, ok := g.GenerateVector(f); ok {
		t.Error("y s-a-0 must be untestable under Fc = ¬(a∧b)")
	}
	// y s-a-1 stays testable: a=0 satisfies Fc and propagates.
	f1 := faults.Fault{Signal: c.MustSig("y"), Consumer: -1, Value: true}
	v, ok := g.GenerateVector(f1)
	if !ok {
		t.Fatal("y s-a-1 must remain testable")
	}
	if m.Eval(g.Constraint(), bdd.Assignment(v.Assignment(c))) != true {
		t.Error("generated vector violates the constraint")
	}
}

func TestVectorsRespectConstraints(t *testing.T) {
	c := adder(t)
	g, err := New(c)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m := g.Manager()
	// Thermometer-style constraint on (a, b): allowed 00, 10, 11 — the
	// dependency of Example 2 (cannot control both lines freely).
	fc := AllowedAssignments(m, []string{"a", "b"},
		[][]bool{{false, false}, {true, false}, {true, true}})
	g.SetConstraint(fc)
	fs := faults.Collapse(c)
	res := g.Run(fs)
	for _, v := range res.Vectors {
		if !m.Eval(fc, bdd.Assignment(v.Assignment(c))) {
			t.Errorf("vector %s violates Fc", v)
		}
	}
	// Some coverage is lost relative to the unconstrained run.
	gFree, _ := New(c)
	resFree := gFree.Run(fs)
	if len(res.Untestable) < len(resFree.Untestable) {
		t.Errorf("constraints removed untestable faults: %d < %d",
			len(res.Untestable), len(resFree.Untestable))
	}
}

func TestAllowedAssignments(t *testing.T) {
	m := bdd.New()
	names := []string{"x", "y"}
	fc := AllowedAssignments(m, names, [][]bool{{false, true}, {true, false}})
	if !m.Eval(fc, bdd.Assignment{"x": false, "y": true}) {
		t.Error("01 must be allowed")
	}
	if m.Eval(fc, bdd.Assignment{"x": true, "y": true}) {
		t.Error("11 must be forbidden")
	}
	if got := m.SatCount(fc, 2); got != 2 {
		t.Errorf("allowed assignments = %g, want 2", got)
	}
	if AllowedAssignments(m, names, nil) != bdd.False {
		t.Error("no rows → no allowed assignments")
	}
}

func TestBranchFaultATPG(t *testing.T) {
	c := adder(t)
	g, err := New(c)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sim := faults.NewSimulator(c)
	axb := c.MustSig("axb")
	for _, consumer := range []string{"sum", "c_axb"} {
		f := faults.Fault{Signal: axb, Consumer: c.MustSig(consumer), Value: true}
		v, ok := g.GenerateVector(f)
		if !ok {
			t.Fatalf("branch fault %s untestable", f.Name(c))
		}
		if !sim.DetectsFault(v, f) {
			t.Errorf("vector %s misses %s", v, f.Name(c))
		}
	}
}

func TestRandomPhaseRespectsConstraints(t *testing.T) {
	c := adder(t)
	g, err := New(c)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m := g.Manager()
	fc := m.Not(m.And(m.Var("a"), m.Var("b")))
	g.SetConstraint(fc)
	fs := faults.Collapse(c)
	res := g.Run(fs, WithRandomPhase(64, 1))
	for _, v := range res.Vectors {
		if !m.Eval(fc, bdd.Assignment(v.Assignment(c))) {
			t.Errorf("random-phase vector %s violates Fc", v)
		}
	}
}

func TestNodeLimitAborts(t *testing.T) {
	// A 24-bit multiplier-like XOR/AND mesh would blow a tiny limit; a
	// simple wide parity tree with limit 8 suffices to trigger aborts.
	c := logic.New("parity")
	prev := ""
	for i := 0; i < 16; i++ {
		name := "x" + string(rune('a'+i))
		c.AddInput(name)
		if i == 0 {
			prev = name
			continue
		}
		g := "p" + string(rune('a'+i))
		c.AddGate(g, logic.TypeXor, prev, name)
		prev = g
	}
	c.MarkOutput(prev)
	c.MustFreeze()
	if _, err := New(c, WithNodeLimit(8)); err == nil {
		t.Error("expected node-limit error while building good functions")
	}
}

func TestUnfrozenCircuitRejected(t *testing.T) {
	c := logic.New("raw")
	c.AddInput("a")
	c.AddGate("y", logic.TypeNot, "a")
	c.MarkOutput("y")
	if _, err := New(c); err == nil {
		t.Error("expected error for unfrozen circuit")
	}
}

// Property: on random circuits, every vector the generator emits detects
// its target fault and the run's re-simulated coverage matches Detected.
func TestATPGSoundnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := propCircuit(r)
		g, err := New(c)
		if err != nil {
			return false
		}
		fs := faults.Collapse(c)
		res := g.Run(fs)
		sim := faults.NewSimulator(c)
		resim := sim.Coverage(res.Vectors, fs)
		return resim == res.Detected &&
			res.Detected+len(res.Untestable)+len(res.Aborted) == res.Total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func propCircuit(r *rand.Rand) *logic.Circuit {
	c := logic.New("prop")
	nIn := 4 + r.Intn(4)
	var names []string
	for i := 0; i < nIn; i++ {
		n := "i" + string(rune('a'+i))
		c.AddInput(n)
		names = append(names, n)
	}
	types := []logic.GateType{logic.TypeAnd, logic.TypeNand, logic.TypeOr,
		logic.TypeNor, logic.TypeXor, logic.TypeNot}
	nG := 8 + r.Intn(20)
	for gi := 0; gi < nG; gi++ {
		ty := types[r.Intn(len(types))]
		var fanins []string
		if ty == logic.TypeNot {
			fanins = []string{names[r.Intn(len(names))]}
		} else {
			a, b := r.Intn(len(names)), r.Intn(len(names))
			for b == a {
				b = r.Intn(len(names))
			}
			fanins = []string{names[a], names[b]}
		}
		gn := "g" + string(rune('a'+gi%26)) + string(rune('0'+gi/26))
		c.AddGate(gn, ty, fanins...)
		names = append(names, gn)
	}
	c.MarkOutput(names[len(names)-1])
	c.MarkOutput(names[len(names)-2])
	return c.MustFreeze()
}
