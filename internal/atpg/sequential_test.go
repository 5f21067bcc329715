package atpg

import (
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/logic"
)

// fig3Seq builds the sequential version of the paper's Figure 3 circuit:
// the combinational core computes l5/l6 and two D flip-flops capture them
// into the observable outputs (the Co1/Co2 stages of the schematic).
func fig3Seq(t *testing.T) *logic.SeqCircuit {
	t.Helper()
	core := logic.New("fig3seq")
	core.AddInput("l0")
	core.AddInput("l1")
	core.AddInput("l2")
	core.AddInput("l4")
	core.AddInput("q1") // DFF outputs feed the primary outputs
	core.AddInput("q2")
	core.AddGate("l3", logic.TypeOr, "l0", "l2")
	core.AddGate("l5", logic.TypeXor, "l3", "l1")
	core.AddGate("l6", logic.TypeNand, "l2", "l4")
	core.AddGate("Vo1", logic.TypeBuf, "q1")
	core.AddGate("Vo2", logic.TypeBuf, "q2")
	core.MarkOutput("Vo1")
	core.MarkOutput("Vo2")
	core.MustFreeze()
	s, err := logic.NewSeq(core, []logic.StateReg{
		{Q: "q1", D: "l5"},
		{Q: "q2", D: "l6"},
	})
	if err != nil {
		t.Fatalf("NewSeq: %v", err)
	}
	return s
}

// TestMultiSiteFaultMatchesSingle checks the one-element fault set —
// which is how TestFunction and GenerateVector inject a single fault —
// against fault simulation: at every sampled vector the test function
// is true exactly when the vector detects the fault, and the generated
// vector detects it. The adder is sampled exhaustively, c432 at 64
// seeded random vectors.
func TestMultiSiteFaultMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []*logic.Circuit{adder(t), iscas.MustBenchmark("c432")} {
		g, err := New(c, WithCollector(nil))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		n := len(c.Inputs())
		exhaustive := n < 6
		var vecs []faults.Vector
		for k := 0; k < 64 && (!exhaustive || k < 1<<n); k++ {
			v := make(faults.Vector, n)
			for i := range v {
				if exhaustive {
					v[i] = k&(1<<i) != 0
				} else {
					v[i] = rng.Intn(2) == 1
				}
			}
			vecs = append(vecs, v)
		}
		sim := faults.NewSimulator(c)
		for _, f := range faults.Collapse(c) {
			single := g.TestFunction(f)
			multi := g.TestFunctionSet([]faults.Fault{f})
			if single != multi {
				t.Errorf("%s: single and one-element-set test functions differ", f.Name(c))
			}
			for _, v := range vecs {
				if got, want := g.Manager().Eval(multi, v.Assignment(c)), sim.DetectsFault(v, f); got != want {
					t.Errorf("%s %s at %s: test function %v, simulation detects %v", c.Name, f.Name(c), v, got, want)
				}
			}
			if v, ok := g.GenerateVector(f); ok != (multi != bdd.False) || ok && !sim.DetectsFault(v, f) {
				t.Errorf("%s %s: GenerateVector = %s, %v does not detect the fault", c.Name, f.Name(c), v, ok)
			}
		}
	}
}

func TestMultiSiteVectorDetectsBothSites(t *testing.T) {
	c := adder(t)
	g, err := New(c)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Same stem fault cannot be doubled (identical), so use two distinct
	// sites that model one physical defect: a s-a-1 and b s-a-1.
	fs := []faults.Fault{
		{Signal: c.MustSig("a"), Consumer: -1, Value: true},
		{Signal: c.MustSig("b"), Consumer: -1, Value: true},
	}
	v, ok := g.GenerateVectorSet(fs)
	if !ok {
		t.Fatal("joint fault must be testable")
	}
	// Verify via multi-override simulation: outputs differ.
	in := make([]uint64, len(c.Inputs()))
	for i := range in {
		if v[i] {
			in[i] = 1
		}
	}
	good := c.OutputWords(c.SimWords(in))
	bad := c.OutputWords(c.SimWordsFaultyMulti(in, []logic.Override{fs[0].Override(), fs[1].Override()}))
	diff := false
	for i := range good {
		if (good[i]^bad[i])&1 != 0 {
			diff = true
		}
	}
	if !diff {
		t.Errorf("vector %s does not expose the joint fault", v)
	}
}

func TestSequentialATPGOnCaptureRegisters(t *testing.T) {
	s := fig3Seq(t)
	fs := faults.Stems(s.Core)
	// One frame cannot observe faults in the next-state logic (they are
	// captured but never output); two frames can.
	res1, err := RunSequential(s, fs, 1, nil)
	if err != nil {
		t.Fatalf("RunSequential(1): %v", err)
	}
	res2, err := RunSequential(s, fs, 2, nil)
	if err != nil {
		t.Fatalf("RunSequential(2): %v", err)
	}
	if res2.Detected <= res1.Detected {
		t.Errorf("two frames must detect more than one (got %d vs %d)",
			res2.Detected, res1.Detected)
	}
	// At two frames the combinational logic is fully covered: the
	// standalone Figure 3 is 100% testable, and the capture stage adds
	// no redundancy.
	if len(res2.Untestable) != 0 {
		for _, f := range res2.Untestable {
			t.Errorf("untestable at 2 frames: %s", f.Name(s.Core))
		}
	}
	if res2.Frames != 2 || res2.Total != len(fs) {
		t.Errorf("result header wrong: %+v", res2)
	}
}

func TestSequentialVectorsReplayOnSimulation(t *testing.T) {
	s := fig3Seq(t)
	const frames = 2
	unrolled, err := s.Unroll(frames, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(unrolled)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a core fault in the next-state logic and check the generated
	// unrolled vector really distinguishes faulty from good when the
	// sequential circuit is simulated cycle by cycle.
	f := faults.Fault{Signal: s.Core.MustSig("l3"), Consumer: -1, Value: false}
	sites, err := FrameFaults(s, unrolled, f, frames)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := g.GenerateVectorSet(sites)
	if !ok {
		t.Fatal("l3 s-a-0 must be testable in two frames")
	}
	assign := v.Assignment(unrolled)

	// Replay: good sequential simulation vs core-with-override per cycle.
	var goodOuts, badOuts [][]bool
	state := map[string]bool{"q1": false, "q2": false}
	stateBad := map[string]bool{"q1": false, "q2": false}
	for t2 := 0; t2 < frames; t2++ {
		in := map[string]bool{}
		for _, n := range s.FreeInputs() {
			in[logic.FrameName(n, t2)] = assign[logic.FrameName(n, t2)]
		}
		full := map[string]bool{}
		fullBad := map[string]bool{}
		for _, n := range s.FreeInputs() {
			full[n] = in[logic.FrameName(n, t2)]
			fullBad[n] = in[logic.FrameName(n, t2)]
		}
		for q, b := range state {
			full[q] = b
		}
		for q, b := range stateBad {
			fullBad[q] = b
		}
		goodVals := s.Core.Eval(full)
		// Faulty evaluation with the stem override on l3.
		inWords := make([]uint64, len(s.Core.Inputs()))
		for i, id := range s.Core.Inputs() {
			if fullBad[s.Core.Signal(id).Name] {
				inWords[i] = 1
			}
		}
		badWords := s.Core.SimWordsFaulty(inWords, f.Override())
		badVals := map[string]bool{}
		for i := 0; i < s.Core.NumSignals(); i++ {
			badVals[s.Core.Signal(logic.SigID(i)).Name] = badWords[i]&1 != 0
		}
		goodOuts = append(goodOuts, []bool{goodVals["Vo1"], goodVals["Vo2"]})
		badOuts = append(badOuts, []bool{badVals["Vo1"], badVals["Vo2"]})
		state["q1"], state["q2"] = goodVals["l5"], goodVals["l6"]
		stateBad["q1"], stateBad["q2"] = badVals["l5"], badVals["l6"]
	}
	diff := false
	for t2 := range goodOuts {
		for i := range goodOuts[t2] {
			if goodOuts[t2][i] != badOuts[t2][i] {
				diff = true
			}
		}
	}
	if !diff {
		t.Error("sequential replay does not expose l3 s-a-0")
	}
}

func TestFrameFaultsSkipsConstantFrame0State(t *testing.T) {
	s := fig3Seq(t)
	unrolled, err := s.Unroll(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A fault on the state input q1: frame 0's q1 is a constant, so the
	// mapped set covers frames 0..1 via the frame names that exist.
	f := faults.Fault{Signal: s.Core.MustSig("q1"), Consumer: -1, Value: true}
	sites, err := FrameFaults(s, unrolled, f, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 2 {
		t.Errorf("sites = %d, want 2 (constant gate still exists as a signal)", len(sites))
	}
}
