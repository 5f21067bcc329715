package faults

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/iscas"
	"repro/internal/logic"
)

// packWords packs up to 64 vectors into one word per primary input, bit
// k holding vectors[k] — the input layout of logic's SimWords.
func packWords(c *logic.Circuit, vectors []Vector) []uint64 {
	in := make([]uint64, len(c.Inputs()))
	for p, v := range vectors[:min(len(vectors), 64)] {
		for i := range in {
			if v[i] {
				in[i] |= 1 << uint(p)
			}
		}
	}
	return in
}

// checkKernel requires the kernel to match a full re-simulation of every
// fault in fs: per 64-vector batch, the good word and the faulty word of
// every signal, and Diff's output-difference word; over the whole list,
// Detect's first detecting vector.
func checkKernel(t *testing.T, c *logic.Circuit, vectors []Vector, fs []Fault) {
	t.Helper()
	sim := NewSimulator(c)
	first := make([]int, len(fs))
	for fi := range first {
		first[fi] = -1
	}
	for base := 0; base < len(vectors); base += 64 {
		n := sim.Load(vectors[base:])
		in := packWords(c, vectors[base:])
		good := c.SimWords(in)
		for id, w := range good {
			if got := sim.Good(logic.SigID(id)); got != w {
				t.Fatalf("%s batch %d: good word of %s = %#x, re-simulation %#x",
					c.Name, base/64, c.Signal(logic.SigID(id)).Name, got, w)
			}
		}
		for fi, f := range fs {
			bad := c.SimWordsFaulty(in, f.Override())
			var want uint64
			for _, o := range c.Outputs() {
				want |= good[o] ^ bad[o]
			}
			if want &= ^uint64(0) >> uint(64-n); want != 0 && first[fi] < 0 {
				first[fi] = base + bits.TrailingZeros64(want)
			}
			got := sim.propagate(f)
			for id, w := range bad {
				if sim.val[id] != w {
					t.Fatalf("%s batch %d, %s: faulty word of %s = %#x, re-simulation %#x",
						c.Name, base/64, f.Name(c), c.Signal(logic.SigID(id)).Name, sim.val[id], w)
				}
			}
			sim.restore()
			if got != want {
				t.Fatalf("%s batch %d, %s: output difference %#x, re-simulation %#x",
					c.Name, base/64, f.Name(c), got, want)
			}
		}
	}
	for fi, d := range sim.Detect(vectors, fs) {
		if d != first[fi] {
			t.Fatalf("%s, %s: Detect = %d, re-simulation %d", c.Name, fs[fi].Name(c), d, first[fi])
		}
	}
}

// oracleCircuit builds a random small circuit with the shapes the kernel
// must get right: every gate type, constants, fanins repeated on one
// gate, primary inputs that are also outputs, and outputs that also feed
// gates.
func oracleCircuit(r *rand.Rand) *logic.Circuit {
	c := logic.New("oracle")
	var names []string
	for i := 0; i < 1+r.Intn(8); i++ {
		names = append(names, fmt.Sprintf("i%d", i))
		c.AddInput(names[i])
	}
	types := []logic.GateType{logic.TypeAnd, logic.TypeNand, logic.TypeOr, logic.TypeNor,
		logic.TypeXor, logic.TypeXnor, logic.TypeNot, logic.TypeBuf, logic.TypeConst0, logic.TypeConst1}
	for g := 0; g < 1+r.Intn(24); g++ {
		ty := types[r.Intn(len(types))]
		var fanins []string
		switch ty {
		case logic.TypeConst0, logic.TypeConst1:
		case logic.TypeNot, logic.TypeBuf:
			fanins = []string{names[r.Intn(len(names))]}
		default:
			// Drawn with replacement, so a gate may repeat a fanin.
			for k := 0; k < 2+r.Intn(3); k++ {
				fanins = append(fanins, names[r.Intn(len(names))])
			}
		}
		name := fmt.Sprintf("g%d", g)
		c.AddGate(name, ty, fanins...)
		names = append(names, name)
	}
	c.MarkOutput(names[len(names)-1])
	for _, n := range names {
		if r.Intn(4) == 0 {
			c.MarkOutput(n)
		}
	}
	return c.MustFreeze()
}

// shapes counts, over a circuit's faults, the cases the oracle must
// cover.
type shapes struct{ inputStem, outputStem, branch, observedBranch, dupFanin, constant int }

func (s *shapes) add(c *logic.Circuit, fs []Fault) {
	for _, f := range fs {
		sig := c.Signal(f.Signal)
		observed := c.IsOutput(f.Signal)
		switch {
		case f.Consumer >= 0 && observed && len(sig.Fanout) == 1:
			s.observedBranch++
		case f.Consumer >= 0:
			s.branch++
		case sig.Type == logic.TypeInput:
			s.inputStem++
		case observed:
			s.outputStem++
		}
		if sig.Type == logic.TypeConst0 || sig.Type == logic.TypeConst1 {
			s.constant++
		}
		if f.Consumer >= 0 {
			n := 0
			for _, in := range c.Signal(f.Consumer).Fanin {
				if in == f.Signal {
					n++
				}
			}
			if n > 1 {
				s.dupFanin++
			}
		}
	}
}

// TestDetectMatchesResim is the kernel's oracle: event-driven
// propagation must reproduce a full re-simulation of the faulty circuit
// fault by fault and word by word, on every Table 4 circuit under 100
// seeded vectors (one full batch, one partial) and on seeded random
// circuits under every input pattern.
func TestDetectMatchesResim(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, name := range []string{"c432", "c499", "c880", "c1355", "c1908"} {
		c := iscas.MustBenchmark(name)
		vectors := make([]Vector, 100)
		for k := range vectors {
			vectors[k] = make(Vector, len(c.Inputs()))
			for i := range vectors[k] {
				vectors[k][i] = r.Intn(2) == 1
			}
		}
		checkKernel(t, c, vectors, All(c))
	}
	var seen shapes
	for k := 0; k < 300; k++ {
		c := oracleCircuit(r)
		fs := All(c)
		seen.add(c, fs)
		checkKernel(t, c, exhaustiveVectors(len(c.Inputs())), fs)
	}
	if seen.inputStem == 0 || seen.outputStem == 0 || seen.branch == 0 ||
		seen.observedBranch == 0 || seen.dupFanin == 0 || seen.constant == 0 {
		t.Errorf("random circuits miss a fault shape: %+v", seen)
	}
}

// detectionSets returns, per fault, the set of input patterns of c that
// detect it, by full re-simulation of every pattern.
func detectionSets(c *logic.Circuit, fs []Fault) [][]uint64 {
	vectors := exhaustiveVectors(len(c.Inputs()))
	sets := make([][]uint64, len(fs))
	for fi := range sets {
		sets[fi] = make([]uint64, (len(vectors)+63)/64)
	}
	for base := 0; base < len(vectors); base += 64 {
		in := packWords(c, vectors[base:])
		good := c.SimWords(in)
		for fi, f := range fs {
			bad := c.SimWordsFaulty(in, f.Override())
			for _, o := range c.Outputs() {
				sets[fi][base/64] |= good[o] ^ bad[o]
			}
			sets[fi][base/64] &= ^uint64(0) >> uint(64-min(len(vectors)-base, 64))
		}
	}
	return sets
}

// TestCollapseKeepsDetectionSets checks fault-site enumeration and
// collapsing exhaustively on seeded random circuits: every fault of All
// has a representative in Collapse, at or before it in universe order,
// that every input pattern detects exactly when it detects the fault;
// Checkpoints lists only lines of All; and Stats().Lines counts All's
// lines.
func TestCollapseKeepsDetectionSets(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for k := 0; k < 300; k++ {
		c := oracleCircuit(r)
		all := All(c)
		pos := make(map[Fault]int, len(all))
		for i := len(all) - 1; i >= 0; i-- {
			pos[all[i]] = i
		}
		if got := c.Stats().Lines; got != len(all)/2 {
			t.Fatalf("circuit %d: Stats().Lines = %d, All has %d lines", k, got, len(all)/2)
		}
		for _, f := range Checkpoints(c) {
			if _, ok := pos[f]; !ok {
				t.Fatalf("circuit %d: checkpoint %s is not a fault of All", k, f.Name(c))
			}
		}
		reps := Collapse(c)
		for _, f := range reps {
			if _, ok := pos[f]; !ok {
				t.Fatalf("circuit %d: representative %s is not a fault of All", k, f.Name(c))
			}
		}
		det := detectionSets(c, all)
		for i, f := range all {
			found := false
			for _, rep := range reps {
				if j := pos[rep]; j <= i && slices.Equal(det[i], det[j]) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("circuit %d: no representative of %s detects it on the same patterns", k, f.Name(c))
			}
		}
	}
}

// TestCollapseObservedStem pins the observed single-consumer stem: with
// g1 = AND(a, b) and g3 = AND(g1, c) both outputs, g1 is a fanout stem,
// so the branch g1->g3 is a line of its own and g3's input faults do not
// merge with g1's.
func TestCollapseObservedStem(t *testing.T) {
	c := logic.New("observed")
	c.AddInput("a")
	c.AddInput("b")
	c.AddInput("c")
	c.AddGate("g1", logic.TypeAnd, "a", "b")
	c.AddGate("g3", logic.TypeAnd, "g1", "c")
	c.MarkOutput("g1")
	c.MarkOutput("g3")
	c.MustFreeze()
	if n := len(All(c)); n != 12 {
		t.Errorf("All = %d faults, want 12 (5 stems + the g1->g3 branch)", n)
	}
	// Classes: {a0, b0, g1 s-a-0}, {g1->g3 s-a-0, c0, g3 s-a-0}, and the
	// six s-a-1 faults alone.
	if n := len(Collapse(c)); n != 8 {
		t.Errorf("Collapse = %d faults, want 8", n)
	}
	if n := len(Checkpoints(c)); n != 8 {
		t.Errorf("Checkpoints = %d faults, want 8 (3 inputs + the g1->g3 branch)", n)
	}
}
