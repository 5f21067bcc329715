package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// toggler builds a 1-bit toggle counter: q' = q ⊕ en, out = q.
func toggler(t *testing.T) *SeqCircuit {
	t.Helper()
	core := New("toggle")
	core.AddInput("en")
	core.AddInput("q")
	core.AddGate("next", TypeXor, "q", "en")
	core.AddGate("out", TypeBuf, "q")
	core.MarkOutput("out")
	core.MustFreeze()
	s, err := NewSeq(core, []StateReg{{Q: "q", D: "next"}})
	if err != nil {
		t.Fatalf("NewSeq: %v", err)
	}
	return s
}

// shifter builds a 2-bit shift register: s1' = in, s2' = s1, out = s2.
func shifter(t *testing.T) *SeqCircuit {
	t.Helper()
	core := New("shift2")
	core.AddInput("in")
	core.AddInput("s1")
	core.AddInput("s2")
	core.AddGate("d1", TypeBuf, "in")
	core.AddGate("d2", TypeBuf, "s1")
	core.AddGate("out", TypeBuf, "s2")
	core.MarkOutput("out")
	core.MustFreeze()
	s, err := NewSeq(core, []StateReg{{Q: "s1", D: "d1"}, {Q: "s2", D: "d2"}})
	if err != nil {
		t.Fatalf("NewSeq: %v", err)
	}
	return s
}

func TestNewSeqValidation(t *testing.T) {
	core := New("bad")
	core.AddInput("a")
	core.AddGate("g", TypeNot, "a")
	core.MarkOutput("g")
	if _, err := NewSeq(core, nil); err == nil {
		t.Error("unfrozen core must be rejected")
	}
	core.MustFreeze()
	if _, err := NewSeq(core, []StateReg{{Q: "g", D: "g"}}); err == nil {
		t.Error("non-input Q must be rejected")
	}
	if _, err := NewSeq(core, []StateReg{{Q: "a", D: "zzz"}}); err == nil {
		t.Error("unknown D must be rejected")
	}
	if _, err := NewSeq(core, []StateReg{{Q: "a", D: "g"}, {Q: "a", D: "g"}}); err == nil {
		t.Error("double-registered Q must be rejected")
	}
}

func TestTogglerSimulate(t *testing.T) {
	s := toggler(t)
	if got := s.FreeInputs(); len(got) != 1 || got[0] != "en" {
		t.Fatalf("free inputs = %v", got)
	}
	// en = 1,1,0,1 from reset 0: q = 0,1,0,0 → out sequence 0,1,0,0.
	vecs := []map[string]bool{
		{"en": true}, {"en": true}, {"en": false}, {"en": true},
	}
	outs := s.Simulate(vecs, nil)
	want := []bool{false, true, false, false}
	for i := range want {
		if outs[i][0] != want[i] {
			t.Errorf("cycle %d out = %v, want %v", i, outs[i][0], want[i])
		}
	}
}

func TestUnrollMatchesSimulation(t *testing.T) {
	s := toggler(t)
	const frames = 4
	un, err := s.Unroll(frames, nil)
	if err != nil {
		t.Fatalf("Unroll: %v", err)
	}
	if len(un.Inputs()) != frames {
		t.Fatalf("unrolled inputs = %d, want %d", len(un.Inputs()), frames)
	}
	if len(un.Outputs()) != frames {
		t.Fatalf("unrolled outputs = %d, want %d", len(un.Outputs()), frames)
	}
	// Every en pattern: unrolled outputs equal cycle-accurate simulation.
	for mask := 0; mask < 1<<frames; mask++ {
		assign := map[string]bool{}
		var vecs []map[string]bool
		for t2 := 0; t2 < frames; t2++ {
			en := mask&(1<<uint(t2)) != 0
			assign[FrameName("en", t2)] = en
			vecs = append(vecs, map[string]bool{"en": en})
		}
		unOuts := un.EvalOutputs(assign)
		simOuts := s.Simulate(vecs, nil)
		for t2 := 0; t2 < frames; t2++ {
			if unOuts[t2] != simOuts[t2][0] {
				t.Fatalf("mask %04b frame %d: unrolled %v, simulated %v",
					mask, t2, unOuts[t2], simOuts[t2][0])
			}
		}
	}
}

func TestUnrollInitialState(t *testing.T) {
	s := toggler(t)
	un, err := s.Unroll(1, map[string]bool{"q": true})
	if err != nil {
		t.Fatalf("Unroll: %v", err)
	}
	out := un.EvalOutputs(map[string]bool{FrameName("en", 0): false})
	if !out[0] {
		t.Error("initial q=1 must appear at the frame-0 output")
	}
}

func TestUnrollRejectsZeroFrames(t *testing.T) {
	s := toggler(t)
	if _, err := s.Unroll(0, nil); err == nil {
		t.Error("zero frames must error")
	}
}

func TestShifterLatency(t *testing.T) {
	s := shifter(t)
	// A pulse on in appears at out two cycles later.
	vecs := []map[string]bool{
		{"in": true}, {"in": false}, {"in": false}, {"in": false},
	}
	outs := s.Simulate(vecs, nil)
	want := []bool{false, false, true, false}
	for i := range want {
		if outs[i][0] != want[i] {
			t.Errorf("cycle %d = %v, want %v", i, outs[i][0], want[i])
		}
	}
	// And the unrolled version agrees.
	un, err := s.Unroll(4, nil)
	if err != nil {
		t.Fatalf("Unroll: %v", err)
	}
	assign := map[string]bool{FrameName("in", 0): true}
	outsU := un.EvalOutputs(assign)
	for i := range want {
		if outsU[i] != want[i] {
			t.Errorf("unrolled cycle %d = %v, want %v", i, outsU[i], want[i])
		}
	}
}

func TestSimWordsFaultyMultiMatchesSingle(t *testing.T) {
	c := New("fa")
	c.AddInput("a")
	c.AddInput("b")
	c.AddGate("x", TypeXor, "a", "b")
	c.AddGate("y", TypeAnd, "a", "b")
	c.MarkOutput("x")
	c.MarkOutput("y")
	c.MustFreeze()
	in := []uint64{0xAAAA, 0xCCCC}
	ov := Override{Signal: c.MustSig("a"), Consumer: -1, Value: true}
	single := c.SimWordsFaulty(in, ov)
	multi := c.SimWordsFaultyMulti(in, []Override{ov})
	for i := range single {
		if single[i] != multi[i] {
			t.Fatalf("signal %d differs between single and multi override", i)
		}
	}
	// Two overrides at once: a s-a-1 and branch b→y s-a-0.
	ov2 := Override{Signal: c.MustSig("b"), Consumer: c.MustSig("y"), Value: false}
	vals := c.SimWordsFaultyMulti(in, []Override{ov, ov2})
	// y = AND(1, 0) = 0 always; x = XOR(1, b).
	if vals[c.MustSig("y")] != 0 {
		t.Error("y must be forced to 0")
	}
	if vals[c.MustSig("x")] != ^in[1] {
		t.Error("x must be ¬b with a stuck at 1")
	}
}

// Property: for random enable sequences, unrolled evaluation equals
// cycle-accurate simulation of the toggler.
func TestUnrollEquivalenceProperty(t *testing.T) {
	s := toggler(t)
	un, err := s.Unroll(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(mask uint8) bool {
		assign := map[string]bool{}
		var vecs []map[string]bool
		for t2 := 0; t2 < 6; t2++ {
			en := mask&(1<<uint(t2)) != 0
			assign[FrameName("en", t2)] = en
			vecs = append(vecs, map[string]bool{"en": en})
		}
		u := un.EvalOutputs(assign)
		sim := s.Simulate(vecs, nil)
		for t2 := 0; t2 < 6; t2++ {
			if u[t2] != sim[t2][0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
