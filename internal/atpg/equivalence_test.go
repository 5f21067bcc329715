package atpg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/iscas"
	"repro/internal/logic"
)

func TestEquivalentIdentity(t *testing.T) {
	a := adder(t)
	b := adder(t)
	res, err := Equivalent(a, b)
	if err != nil {
		t.Fatalf("Equivalent: %v", err)
	}
	if !res.Equivalent {
		t.Errorf("identical circuits reported different at %s (%v)", res.Output, res.Counterexample)
	}
}

func TestEquivalentDetectsDifference(t *testing.T) {
	a := adder(t)
	// Same interface, cout gate swapped OR→AND.
	c := logic.New("fa2")
	c.AddInput("a")
	c.AddInput("b")
	c.AddInput("cin")
	c.AddGate("axb", logic.TypeXor, "a", "b")
	c.AddGate("sum", logic.TypeXor, "axb", "cin")
	c.AddGate("ab", logic.TypeAnd, "a", "b")
	c.AddGate("c_axb", logic.TypeAnd, "axb", "cin")
	c.AddGate("cout", logic.TypeAnd, "ab", "c_axb") // wrong gate
	c.MarkOutput("sum")
	c.MarkOutput("cout")
	c.MustFreeze()
	res, err := Equivalent(a, c)
	if err != nil {
		t.Fatalf("Equivalent: %v", err)
	}
	if res.Equivalent {
		t.Fatal("different circuits reported equivalent")
	}
	if res.Output != "cout" {
		t.Errorf("first differing output = %s, want cout", res.Output)
	}
	// The counterexample really distinguishes them.
	va := a.EvalOutputs(res.Counterexample)
	vc := c.EvalOutputs(res.Counterexample)
	if va[1] == vc[1] {
		t.Errorf("counterexample %v does not distinguish cout", res.Counterexample)
	}
}

func TestEquivalentProvesXorExpansion(t *testing.T) {
	base := iscas.MustBenchmark("c499")
	exp := iscas.ExpandXors(base)
	res, err := Equivalent(base, exp)
	if err != nil {
		t.Fatalf("Equivalent: %v", err)
	}
	if !res.Equivalent {
		t.Errorf("XOR expansion not equivalent: differs at %s", res.Output)
	}
}

func TestEquivalentProvesOptimizer(t *testing.T) {
	// Unrolled sequential circuit vs its optimized form — proof instead
	// of random simulation.
	core := logic.New("tog")
	core.AddInput("en")
	core.AddInput("q")
	core.AddGate("next", logic.TypeXor, "q", "en")
	core.AddGate("out", logic.TypeBuf, "q")
	core.MarkOutput("out")
	core.MustFreeze()
	seq, err := logic.NewSeq(core, []logic.StateReg{{Q: "q", D: "next"}})
	if err != nil {
		t.Fatal(err)
	}
	un, err := seq.Unroll(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := logic.Optimize(un)
	res, err := Equivalent(un, opt)
	if err != nil {
		t.Fatalf("Equivalent: %v", err)
	}
	if !res.Equivalent {
		t.Errorf("optimizer broke the function at %s (%v)", res.Output, res.Counterexample)
	}
}

func TestEquivalentInterfaceMismatch(t *testing.T) {
	a := adder(t)
	b := logic.New("tiny")
	b.AddInput("a")
	b.AddGate("y", logic.TypeNot, "a")
	b.MarkOutput("y")
	b.MustFreeze()
	if _, err := Equivalent(a, b); err == nil {
		t.Error("interface mismatch must error")
	}
}

// Property: Optimize is always formally equivalent to its input on random
// constant-seeded circuits.
func TestOptimizerEquivalenceProofProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := propCircuit(r)
		opt := logic.Optimize(c)
		res, err := Equivalent(c, opt)
		return err == nil && res.Equivalent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
