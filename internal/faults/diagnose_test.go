package faults

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/iscas"
	"repro/internal/logic"
)

func exhaustiveVectors(n int) []Vector {
	var out []Vector
	for p := 0; p < 1<<uint(n); p++ {
		v := make(Vector, n)
		for j := range v {
			v[j] = p&(1<<uint(j)) != 0
		}
		out = append(out, v)
	}
	return out
}

func TestDictionaryDiagnosesInjectedFaults(t *testing.T) {
	c := adder(t)
	fs := Collapse(c)
	vectors := exhaustiveVectors(len(c.Inputs()))
	d, err := BuildDictionary(c, vectors, fs)
	if err != nil {
		t.Fatalf("BuildDictionary: %v", err)
	}
	// Inject every fault, observe the tester response, diagnose: the
	// true fault must be among the candidates, and every candidate must
	// share the observed signature.
	for fi, f := range fs {
		obs := d.ObserveFault(f)
		cands := d.Diagnose(obs)
		found := false
		for _, cand := range cands {
			if cand == f {
				found = true
			}
		}
		if !found {
			t.Errorf("fault %s (idx %d) not in its own ambiguity set", f.Name(c), fi)
		}
	}
}

func TestDictionarySignatureStability(t *testing.T) {
	c := adder(t)
	fs := Collapse(c)
	vectors := exhaustiveVectors(len(c.Inputs()))
	d, err := BuildDictionary(c, vectors, fs)
	if err != nil {
		t.Fatal(err)
	}
	for fi, f := range fs {
		if d.Signature(fi).key() != d.ObserveFault(f).key() {
			t.Errorf("stored and re-observed signatures differ for %s", f.Name(c))
		}
	}
	if len(d.Faults()) != len(fs) {
		t.Error("fault list not preserved")
	}
}

func TestDiagnoseZeroObservation(t *testing.T) {
	c := adder(t)
	fs := Collapse(c)
	vectors := exhaustiveVectors(3)
	d, err := BuildDictionary(c, vectors, fs)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Diagnose(make(Signature, len(vectors))); got != nil {
		t.Errorf("zero observation must return nil, got %v", got)
	}
}

func TestDiagnosabilityStats(t *testing.T) {
	c := adder(t)
	fs := Collapse(c)
	vectors := exhaustiveVectors(3)
	d, err := BuildDictionary(c, vectors, fs)
	if err != nil {
		t.Fatal(err)
	}
	stats := d.Diagnosability()
	if stats.Faults != len(fs) {
		t.Errorf("faults = %d", stats.Faults)
	}
	// Exhaustive vectors on an irredundant circuit: nothing undetected.
	if stats.Undetected != 0 {
		t.Errorf("undetected = %d, want 0", stats.Undetected)
	}
	if stats.Classes == 0 || stats.LargestClass == 0 {
		t.Errorf("stats not populated: %+v", stats)
	}
	if stats.Distinguished > stats.Classes {
		t.Errorf("distinguished %d > classes %d", stats.Distinguished, stats.Classes)
	}
}

func TestDictionaryUndetectedFault(t *testing.T) {
	// Redundant circuit: y = OR(a, NOT a) ≡ 1 → y s-a-1 undetected.
	c := redundantCircuit(t)
	fs := []Fault{{Signal: c.MustSig("y"), Consumer: -1, Value: true}}
	d, err := BuildDictionary(c, exhaustiveVectors(1), fs)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Signature(0).IsZero() {
		t.Error("undetectable fault must have a zero signature")
	}
	if d.Diagnosability().Undetected != 1 {
		t.Error("undetected count wrong")
	}
}

func TestDictionaryRejectsWideCircuits(t *testing.T) {
	c := wideCircuit(t, 65)
	if _, err := BuildDictionary(c, exhaustiveVectors(1), nil); err == nil {
		t.Error("circuits with >64 outputs must be rejected")
	}
}

// Property: equivalent faults (same collapsing class) always share a
// dictionary signature; spot-checked via equivalence of AND input/output
// s-a-0 on random AND trees.
func TestEquivalentFaultsShareSignatureProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randNonXorCircuit(r)
		if len(c.Inputs()) > 8 {
			return true
		}
		vectors := exhaustiveVectors(len(c.Inputs()))
		all := All(c)
		d, err := BuildDictionary(c, vectors, all)
		if err != nil {
			return false
		}
		// Any two faults that Collapse puts in one class share every
		// response, so they must land in one signature group: the number
		// of distinct non-zero signatures cannot exceed the number of
		// collapsed classes.
		col := Collapse(c)
		stats := d.Diagnosability()
		return stats.Classes <= len(col)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// referenceSignatures is the per-vector dictionary: for each vector, one
// good re-simulation and one faulty re-simulation per fault, with bit o
// of a fault's entry set when output o miscompares.
func referenceSignatures(c *logic.Circuit, vectors []Vector, fs []Fault) []Signature {
	sigs := make([]Signature, len(fs))
	for fi := range sigs {
		sigs[fi] = make(Signature, len(vectors))
	}
	for vi, v := range vectors {
		in := packWords(c, []Vector{v})
		good := c.SimWords(in)
		for fi, f := range fs {
			bad := c.SimWordsFaulty(in, f.Override())
			for o, id := range c.Outputs() {
				sigs[fi][vi] |= ((good[id] ^ bad[id]) & 1) << uint(o)
			}
		}
	}
	return sigs
}

// TestDictionaryMatchesPerVectorReference checks the batched signatures
// against the per-vector reference, on c432 under 70 seeded vectors (one
// full batch, one partial) and on seeded random circuits under every
// pattern.
func TestDictionaryMatchesPerVectorReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	check := func(c *logic.Circuit, vectors []Vector, fs []Fault) {
		t.Helper()
		d, err := BuildDictionary(c, vectors, fs)
		if err != nil {
			t.Fatal(err)
		}
		for fi, want := range referenceSignatures(c, vectors, fs) {
			if d.Signature(fi).key() != want.key() || d.ObserveFault(fs[fi]).key() != want.key() {
				t.Fatalf("%s: signature of %s differs from the per-vector reference", c.Name, fs[fi].Name(c))
			}
		}
	}
	c432 := iscas.MustBenchmark("c432")
	vectors := make([]Vector, 70)
	for k := range vectors {
		vectors[k] = make(Vector, len(c432.Inputs()))
		for i := range vectors[k] {
			vectors[k][i] = r.Intn(2) == 1
		}
	}
	check(c432, vectors, Collapse(c432))
	for k := 0; k < 100; k++ {
		c := oracleCircuit(r)
		check(c, exhaustiveVectors(len(c.Inputs())), All(c))
	}
}

func redundantCircuit(t *testing.T) *logic.Circuit {
	t.Helper()
	c := logic.New("red")
	c.AddInput("a")
	c.AddGate("na", logic.TypeNot, "a")
	c.AddGate("y", logic.TypeOr, "a", "na")
	c.MarkOutput("y")
	return c.MustFreeze()
}

func wideCircuit(t *testing.T, outs int) *logic.Circuit {
	t.Helper()
	c := logic.New("wide")
	c.AddInput("a")
	for i := 0; i < outs; i++ {
		n := fmt.Sprintf("o%d", i)
		c.AddGate(n, logic.TypeBuf, "a")
		c.MarkOutput(n)
	}
	return c.MustFreeze()
}
