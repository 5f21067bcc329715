package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// equivalentOn checks functional equality of two circuits with identical
// input interfaces over 64 random patterns plus the all-0/all-1 corners.
func equivalentOn(t *testing.T, a, b *Circuit, seed int64) bool {
	t.Helper()
	if len(a.Inputs()) != len(b.Inputs()) || len(a.Outputs()) != len(b.Outputs()) {
		t.Fatalf("interface mismatch: %d/%d vs %d/%d",
			len(a.Inputs()), len(a.Outputs()), len(b.Inputs()), len(b.Outputs()))
	}
	r := rand.New(rand.NewSource(seed))
	in := make([]uint64, len(a.Inputs()))
	for i := range in {
		in[i] = r.Uint64()
		if i == 0 {
			in[i] = (in[i] &^ 3) | 1 // force pattern 0 = all paths …
		}
	}
	// Bits 0 and 1 of every word: all-zero and all-one patterns.
	for i := range in {
		in[i] &^= 1     // bit 0 = 0
		in[i] |= 1 << 1 // bit 1 = 1
	}
	oa := a.OutputWords(a.SimWords(in))
	ob := b.OutputWords(b.SimWords(in))
	for i := range oa {
		if oa[i] != ob[i] {
			return false
		}
	}
	return true
}

func TestOptimizeFoldsConstants(t *testing.T) {
	c := New("konst")
	c.AddInput("a")
	c.AddGate("one", TypeConst1)
	c.AddGate("zero", TypeConst0)
	c.AddGate("x", TypeAnd, "a", "one")  // = a
	c.AddGate("y", TypeOr, "x", "zero")  // = a
	c.AddGate("z", TypeXor, "y", "one")  // = ¬a
	c.AddGate("w", TypeAnd, "z", "zero") // = 0
	c.MarkOutput("z")
	c.MarkOutput("w")
	c.MustFreeze()
	o := Optimize(c)
	if !equivalentOn(t, c, o, 1) {
		t.Fatal("optimization changed the function")
	}
	// Everything should fold to one NOT plus the constant output stub.
	if o.NumGates() > 2 {
		t.Errorf("gates after optimize = %d, want ≤ 2", o.NumGates())
	}
	if v := o.EvalOutputs(map[string]bool{"a": true}); v[0] || v[1] {
		t.Errorf("outputs at a=1 = %v, want [false false]", v)
	}
}

func TestOptimizeCollapsesBufferChains(t *testing.T) {
	c := New("chain")
	c.AddInput("a")
	c.AddGate("b1", TypeBuf, "a")
	c.AddGate("b2", TypeBuf, "b1")
	c.AddGate("b3", TypeBuf, "b2")
	c.AddGate("y", TypeNot, "b3")
	c.MarkOutput("y")
	c.MustFreeze()
	o := Optimize(c)
	if o.NumGates() != 1 {
		t.Errorf("gates = %d, want 1 (single NOT)", o.NumGates())
	}
	if !equivalentOn(t, c, o, 2) {
		t.Error("function changed")
	}
}

func TestOptimizeRemovesDeadLogic(t *testing.T) {
	c := New("dead")
	c.AddInput("a")
	c.AddInput("b")
	c.AddGate("used", TypeAnd, "a", "b")
	c.AddGate("dead1", TypeOr, "a", "b")
	c.AddGate("dead2", TypeNot, "dead1")
	c.MarkOutput("used")
	c.MustFreeze()
	o := Optimize(c)
	if o.NumGates() != 1 {
		t.Errorf("gates = %d, want 1", o.NumGates())
	}
}

func TestOptimizeOutputAliasesInput(t *testing.T) {
	c := New("alias")
	c.AddInput("a")
	c.AddGate("y", TypeBuf, "a")
	c.MarkOutput("y")
	c.MustFreeze()
	o := Optimize(c)
	if !equivalentOn(t, c, o, 3) {
		t.Error("function changed")
	}
	if got := o.OutputNames(); len(got) != 1 || got[0] != "y" {
		t.Errorf("outputs = %v", got)
	}
}

func TestOptimizeUnrolledSequential(t *testing.T) {
	// Frame-0 state inputs of an unrolled circuit are constants; the
	// optimizer folds them through the first frame.
	s := toggler(t)
	un, err := s.Unroll(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := Optimize(un)
	if o.NumGates() >= un.NumGates() {
		t.Errorf("no reduction: %d → %d gates", un.NumGates(), o.NumGates())
	}
	if !equivalentOn(t, un, o, 4) {
		t.Error("unrolled optimization changed the function")
	}
}

func TestOptimizeIdempotent(t *testing.T) {
	s := toggler(t)
	un, err := s.Unroll(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	o1 := Optimize(un)
	o2 := Optimize(o1)
	if o2.NumGates() != o1.NumGates() {
		t.Errorf("second pass changed gate count: %d → %d", o1.NumGates(), o2.NumGates())
	}
}

// Property: Optimize preserves the function on random circuits seeded
// with constants and buffers.
func TestOptimizeEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCircuitWithConsts(r)
		o := Optimize(c)
		in := make([]uint64, len(c.Inputs()))
		for i := range in {
			in[i] = r.Uint64()
		}
		oa := c.OutputWords(c.SimWords(in))
		ob := o.OutputWords(o.SimWords(in))
		for i := range oa {
			if oa[i] != ob[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func randomCircuitWithConsts(r *rand.Rand) *Circuit {
	c := New("rc")
	names := []string{}
	for i := 0; i < 4; i++ {
		n := "i" + itoa(i)
		c.AddInput(n)
		names = append(names, n)
	}
	c.AddGate("k0", TypeConst0)
	c.AddGate("k1", TypeConst1)
	names = append(names, "k0", "k1")
	types := []GateType{TypeAnd, TypeNand, TypeOr, TypeNor, TypeXor, TypeXnor, TypeNot, TypeBuf}
	for g := 0; g < 14; g++ {
		ty := types[r.Intn(len(types))]
		var fanins []string
		if ty == TypeNot || ty == TypeBuf {
			fanins = []string{names[r.Intn(len(names))]}
		} else {
			a, b := r.Intn(len(names)), r.Intn(len(names))
			for b == a {
				b = r.Intn(len(names))
			}
			fanins = []string{names[a], names[b]}
		}
		gn := "g" + itoa(g)
		c.AddGate(gn, ty, fanins...)
		names = append(names, gn)
	}
	c.MarkOutput("g13")
	c.MarkOutput("g12")
	c.MarkOutput("g11")
	return c.MustFreeze()
}
