package faults

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/logic"
)

func adder(t *testing.T) *logic.Circuit {
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

func inverterChain(t *testing.T) *logic.Circuit {
	t.Helper()
	c := logic.New("chain")
	c.AddInput("a")
	c.AddGate("n1", logic.TypeNot, "a")
	c.AddGate("n2", logic.TypeNot, "n1")
	c.MarkOutput("n2")
	return c.MustFreeze()
}

func TestUniverseSize(t *testing.T) {
	c := adder(t)
	// 16 lines (8 stems + 8 branches) → 32 uncollapsed faults.
	fs := All(c)
	if len(fs) != 32 {
		t.Errorf("uncollapsed = %d, want 32", len(fs))
	}
}

func TestFaultName(t *testing.T) {
	c := adder(t)
	f := Fault{Signal: c.MustSig("axb"), Consumer: -1, Value: false}
	if got := f.Name(c); got != "axb s-a-0" {
		t.Errorf("name = %q", got)
	}
	fb := Fault{Signal: c.MustSig("axb"), Consumer: c.MustSig("sum"), Value: true}
	if got := fb.Name(c); got != "axb->sum s-a-1" {
		t.Errorf("branch name = %q", got)
	}
}

func TestCollapseInverterChain(t *testing.T) {
	c := inverterChain(t)
	// 3 stems, no fanout: 6 uncollapsed. a s-a-0 ≡ n1 s-a-1 ≡ n2 s-a-0
	// and a s-a-1 ≡ n1 s-a-0 ≡ n2 s-a-1 → 2 classes.
	col := Collapse(c)
	if len(col) != 2 {
		t.Errorf("collapsed = %d, want 2", len(col))
	}
}

func TestCollapseAndGate(t *testing.T) {
	c := logic.New("and2")
	c.AddInput("a")
	c.AddInput("b")
	c.AddGate("y", logic.TypeAnd, "a", "b")
	c.MarkOutput("y")
	c.MustFreeze()
	// 6 uncollapsed. a s-a-0 ≡ b s-a-0 ≡ y s-a-0 → collapse 6 to 4.
	col := Collapse(c)
	if len(col) != 4 {
		t.Errorf("collapsed = %d, want 4", len(col))
	}
}

func TestCollapseNandGate(t *testing.T) {
	c := logic.New("nand2")
	c.AddInput("a")
	c.AddInput("b")
	c.AddGate("y", logic.TypeNand, "a", "b")
	c.MarkOutput("y")
	c.MustFreeze()
	// a s-a-0 ≡ b s-a-0 ≡ y s-a-1 → 4 classes.
	col := Collapse(c)
	if len(col) != 4 {
		t.Errorf("collapsed = %d, want 4", len(col))
	}
	// The representative set must still contain a stuck-at-0 output
	// fault (y s-a-0 is in its own class).
	found := false
	y := c.MustSig("y")
	for _, f := range col {
		if f.Signal == y && f.Consumer == -1 && !f.Value {
			found = true
		}
	}
	if !found {
		t.Error("y s-a-0 must survive collapsing")
	}
}

func TestCollapseXorDoesNotMerge(t *testing.T) {
	c := logic.New("xor2")
	c.AddInput("a")
	c.AddInput("b")
	c.AddGate("y", logic.TypeXor, "a", "b")
	c.MarkOutput("y")
	c.MustFreeze()
	col := Collapse(c)
	if len(col) != 6 {
		t.Errorf("collapsed = %d, want 6 (no equivalences at XOR)", len(col))
	}
}

func TestCollapseBranchesMergeIntoGates(t *testing.T) {
	// A stem feeding two AND gates: branch s-a-0 merges with each gate
	// output, but the two branches stay distinct from each other.
	c := logic.New("branches")
	c.AddInput("s")
	c.AddInput("x")
	c.AddInput("y")
	c.AddGate("g1", logic.TypeAnd, "s", "x")
	c.AddGate("g2", logic.TypeAnd, "s", "y")
	c.MarkOutput("g1")
	c.MarkOutput("g2")
	c.MustFreeze()
	all := All(c)
	col := Collapse(c)
	if len(all) != 14 {
		t.Errorf("uncollapsed = %d, want 14 (5 stems + 2 branches)", len(all))
	}
	// Merges: s->g1 s-a-0 ≡ x s-a-0 ≡ g1 s-a-0 (3 faults → 1 class),
	// likewise for g2. 14 − 4 = 10 classes.
	if len(col) != 10 {
		t.Errorf("collapsed = %d, want 10", len(col))
	}
}

func TestDetectExhaustiveAdder(t *testing.T) {
	c := adder(t)
	sim := NewSimulator(c)
	var vectors []Vector
	for p := 0; p < 8; p++ {
		vectors = append(vectors, Vector{p&1 != 0, p&2 != 0, p&4 != 0})
	}
	fs := All(c)
	res := sim.Detect(vectors, fs)
	for i, d := range res {
		if d < 0 {
			t.Errorf("fault %s undetected by exhaustive set — adder must be fully testable",
				fs[i].Name(c))
		}
	}
	if got := sim.Coverage(vectors, fs); got != len(fs) {
		t.Errorf("coverage = %d, want %d", got, len(fs))
	}
}

func TestDetectReportsFirstVector(t *testing.T) {
	c := adder(t)
	sim := NewSimulator(c)
	// a s-a-1 is detected by any vector with a=0 that propagates; the
	// all-zero vector (index 0) flips sum, so index must be 0.
	f := Fault{Signal: c.MustSig("a"), Consumer: -1, Value: true}
	vectors := []Vector{
		{false, false, false},
		{true, false, false},
	}
	res := sim.Detect(vectors, []Fault{f})
	if res[0] != 0 {
		t.Errorf("first detecting vector = %d, want 0", res[0])
	}
}

func TestDetectAcrossWordBoundary(t *testing.T) {
	c := adder(t)
	sim := NewSimulator(c)
	f := Fault{Signal: c.MustSig("a"), Consumer: -1, Value: true}
	// 70 vectors; only the last one (a=0,b=0,cin=0) detects a s-a-1.
	// a=1 never activates a s-a-1; use a=1,b=0,cin=0 as filler (silent).
	var vectors []Vector
	for i := 0; i < 69; i++ {
		vectors = append(vectors, Vector{true, false, false})
	}
	vectors = append(vectors, Vector{false, false, false})
	res := sim.Detect(vectors, []Fault{f})
	if res[0] != 69 {
		t.Errorf("detecting vector = %d, want 69", res[0])
	}
}

func TestVectorHelpers(t *testing.T) {
	c := adder(t)
	v := VectorFromAssignment(c, map[string]bool{"a": true, "cin": true})
	if v.String() != "101" {
		t.Errorf("vector = %s, want 101", v)
	}
	back := v.Assignment(c)
	if !back["a"] || back["b"] || !back["cin"] {
		t.Errorf("assignment round trip = %v", back)
	}
}

func TestUndetectableRedundantFault(t *testing.T) {
	// y = OR(a, NOT(a)) is constantly 1: y s-a-1 is undetectable.
	c := logic.New("red")
	c.AddInput("a")
	c.AddGate("na", logic.TypeNot, "a")
	c.AddGate("y", logic.TypeOr, "a", "na")
	c.MarkOutput("y")
	c.MustFreeze()
	sim := NewSimulator(c)
	f := Fault{Signal: c.MustSig("y"), Consumer: -1, Value: true}
	vectors := []Vector{{false}, {true}}
	res := sim.Detect(vectors, []Fault{f})
	if res[0] != -1 {
		t.Error("y s-a-1 on a tautology must be undetectable")
	}
}

// Property: every fault reported detected by the parallel simulator is
// confirmed by single-pattern simulation, and collapsing preserves
// detectability (a vector set detecting all representatives detects every
// fault equivalent to them — spot-checked via coverage equality on
// exhaustive sets).
func TestDetectConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randCircuit(r)
		sim := NewSimulator(c)
		fs := All(c)
		var vectors []Vector
		for i := 0; i < 32; i++ {
			v := make(Vector, len(c.Inputs()))
			for j := range v {
				v[j] = r.Intn(2) == 1
			}
			vectors = append(vectors, v)
		}
		res := sim.Detect(vectors, fs)
		for i, d := range res {
			if d < 0 {
				continue
			}
			if !sim.DetectsFault(vectors[d], fs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: exhaustive simulation detects an equal-or-larger share of
// collapsed representatives than of the raw universe (collapsing never
// invents detectable faults).
func TestCollapseSoundnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randCircuit(r)
		if len(c.Inputs()) > 10 {
			return true
		}
		sim := NewSimulator(c)
		var vectors []Vector
		total := 1 << uint(len(c.Inputs()))
		for p := 0; p < total; p++ {
			v := make(Vector, len(c.Inputs()))
			for j := range v {
				v[j] = p&(1<<uint(j)) != 0
			}
			vectors = append(vectors, v)
		}
		all := All(c)
		col := Collapse(c)
		resAll := sim.Detect(vectors, all)
		resCol := sim.Detect(vectors, col)
		// Under exhaustive vectors, a representative is detected iff
		// every member of its class is detectable; count undetected.
		undetAll, undetCol := 0, 0
		for _, d := range resAll {
			if d < 0 {
				undetAll++
			}
		}
		for _, d := range resCol {
			if d < 0 {
				undetCol++
			}
		}
		// Every undetected representative corresponds to at least one
		// undetected raw fault.
		return undetCol <= undetAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func randCircuit(r *rand.Rand) *logic.Circuit {
	c := logic.New("rand")
	nIn := 3 + r.Intn(4)
	var names []string
	for i := 0; i < nIn; i++ {
		n := "i" + strings.Repeat("i", i)
		c.AddInput(n)
		names = append(names, n)
	}
	types := []logic.GateType{logic.TypeAnd, logic.TypeNand, logic.TypeOr,
		logic.TypeNor, logic.TypeXor, logic.TypeNot}
	nG := 5 + r.Intn(15)
	for g := 0; g < nG; g++ {
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
		gn := "g" + strings.Repeat("g", g)
		c.AddGate(gn, ty, fanins...)
		names = append(names, gn)
	}
	c.MarkOutput(names[len(names)-1])
	c.MarkOutput(names[len(names)-2])
	return c.MustFreeze()
}
