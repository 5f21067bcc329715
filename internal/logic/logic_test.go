package logic

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// fullAdder builds a 1-bit full adder: sum = a⊕b⊕cin, cout = majority.
func fullAdder(t *testing.T) *Circuit {
	t.Helper()
	c := New("fa")
	c.AddInput("a")
	c.AddInput("b")
	c.AddInput("cin")
	c.AddGate("axb", TypeXor, "a", "b")
	c.AddGate("sum", TypeXor, "axb", "cin")
	c.AddGate("ab", TypeAnd, "a", "b")
	c.AddGate("c_axb", TypeAnd, "axb", "cin")
	c.AddGate("cout", TypeOr, "ab", "c_axb")
	c.MarkOutput("sum")
	c.MarkOutput("cout")
	if err := c.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	return c
}

// detects reports whether the single pattern assign makes some primary
// output of the faulty circuit differ from the good one.
func detects(c *Circuit, assign map[string]bool, ov Override) bool {
	in := make([]uint64, len(c.Inputs()))
	for i, id := range c.Inputs() {
		if assign[c.Signal(id).Name] {
			in[i] = 1
		}
	}
	good := c.OutputWords(c.SimWords(in))
	bad := c.OutputWords(c.SimWordsFaulty(in, ov))
	for i := range good {
		if (good[i]^bad[i])&1 != 0 {
			return true
		}
	}
	return false
}

func TestFullAdderTruthTable(t *testing.T) {
	c := fullAdder(t)
	for mask := 0; mask < 8; mask++ {
		a, b, cin := mask&1 != 0, mask&2 != 0, mask&4 != 0
		outs := c.EvalOutputs(map[string]bool{"a": a, "b": b, "cin": cin})
		n := 0
		if a {
			n++
		}
		if b {
			n++
		}
		if cin {
			n++
		}
		if outs[0] != (n%2 == 1) {
			t.Errorf("sum(%v,%v,%v) = %v, want %v", a, b, cin, outs[0], n%2 == 1)
		}
		if outs[1] != (n >= 2) {
			t.Errorf("cout(%v,%v,%v) = %v, want %v", a, b, cin, outs[1], n >= 2)
		}
	}
}

func TestSimWordsParallelConsistency(t *testing.T) {
	c := fullAdder(t)
	// All 8 patterns in one word.
	in := make([]uint64, 3)
	for p := 0; p < 8; p++ {
		if p&1 != 0 {
			in[0] |= 1 << uint(p)
		}
		if p&2 != 0 {
			in[1] |= 1 << uint(p)
		}
		if p&4 != 0 {
			in[2] |= 1 << uint(p)
		}
	}
	val := c.SimWords(in)
	outs := c.OutputWords(val)
	for p := 0; p < 8; p++ {
		want := c.EvalOutputs(map[string]bool{
			"a":   p&1 != 0,
			"b":   p&2 != 0,
			"cin": p&4 != 0,
		})
		if got := outs[0]&(1<<uint(p)) != 0; got != want[0] {
			t.Errorf("pattern %d sum: parallel %v, serial %v", p, got, want[0])
		}
		if got := outs[1]&(1<<uint(p)) != 0; got != want[1] {
			t.Errorf("pattern %d cout: parallel %v, serial %v", p, got, want[1])
		}
	}
}

func TestAllGateTypes(t *testing.T) {
	c := New("gates")
	c.AddInput("a")
	c.AddInput("b")
	c.AddGate("and", TypeAnd, "a", "b")
	c.AddGate("nand", TypeNand, "a", "b")
	c.AddGate("or", TypeOr, "a", "b")
	c.AddGate("nor", TypeNor, "a", "b")
	c.AddGate("xor", TypeXor, "a", "b")
	c.AddGate("xnor", TypeXnor, "a", "b")
	c.AddGate("not", TypeNot, "a")
	c.AddGate("buf", TypeBuf, "a")
	c.AddGate("zero", TypeConst0)
	c.AddGate("one", TypeConst1)
	for _, n := range []string{"and", "nand", "or", "nor", "xor", "xnor", "not", "buf", "zero", "one"} {
		c.MarkOutput(n)
	}
	c.MustFreeze()
	for mask := 0; mask < 4; mask++ {
		a, b := mask&1 != 0, mask&2 != 0
		v := c.Eval(map[string]bool{"a": a, "b": b})
		checks := map[string]bool{
			"and":  a && b,
			"nand": !(a && b),
			"or":   a || b,
			"nor":  !(a || b),
			"xor":  a != b,
			"xnor": a == b,
			"not":  !a,
			"buf":  a,
			"zero": false,
			"one":  true,
		}
		for name, want := range checks {
			if v[name] != want {
				t.Errorf("%s(%v,%v) = %v, want %v", name, a, b, v[name], want)
			}
		}
	}
}

func TestStemFaultOverride(t *testing.T) {
	c := fullAdder(t)
	axb := c.MustSig("axb")
	// Force axb stuck-at-1 and check with a=b=0, cin=0: sum becomes 1.
	ov := Override{Signal: axb, Consumer: -1, Value: true}
	in := []uint64{0, 0, 0}
	val := c.SimWordsFaulty(in, ov)
	outs := c.OutputWords(val)
	if outs[0]&1 == 0 {
		t.Error("sum should be 1 with axb stuck-at-1 and all-zero inputs")
	}
	if !detects(c, map[string]bool{}, ov) {
		t.Error("all-zero vector must detect axb s-a-1")
	}
}

func TestBranchFaultOverride(t *testing.T) {
	c := fullAdder(t)
	axb := c.MustSig("axb")
	sum := c.MustSig("sum")
	candAxb := c.MustSig("c_axb")
	// Branch fault: axb→sum stuck-at-1. With a=b=cin=0: sum flips to 1,
	// but cout (through the other branch axb→c_axb) stays 0.
	ov := Override{Signal: axb, Consumer: sum, Value: true}
	val := c.SimWordsFaulty([]uint64{0, 0, 0}, ov)
	outs := c.OutputWords(val)
	if outs[0]&1 == 0 {
		t.Error("sum must see the stuck branch")
	}
	if outs[1]&1 != 0 {
		t.Error("cout must not see the stuck branch")
	}
	// The other branch fault: axb→c_axb stuck-at-1 with cin=1, a=b=0:
	// cout flips, sum unaffected... sum = axb⊕cin uses the healthy stem.
	ov2 := Override{Signal: axb, Consumer: candAxb, Value: true}
	assign := map[string]bool{"cin": true}
	if !detects(c, assign, ov2) {
		t.Error("cin=1 must detect the axb→c_axb branch s-a-1 at cout")
	}
}

func TestInputStemFault(t *testing.T) {
	c := fullAdder(t)
	a := c.MustSig("a")
	ov := Override{Signal: a, Consumer: -1, Value: true}
	// a s-a-1 with all zero inputs: sum flips.
	if !detects(c, map[string]bool{}, ov) {
		t.Error("all-zero vector must detect a s-a-1")
	}
	// a s-a-0 with a=1, b=0, cin=0: sum flips from 1 to 0.
	ov0 := Override{Signal: a, Consumer: -1, Value: false}
	if !detects(c, map[string]bool{"a": true}, ov0) {
		t.Error("a=1 vector must detect a s-a-0")
	}
}

func TestConeAndOutputsInCone(t *testing.T) {
	c := fullAdder(t)
	ab := c.MustSig("ab")
	cone := c.Cone(ab)
	if !cone[c.MustSig("cout")] {
		t.Error("cout must be in cone of ab")
	}
	if cone[c.MustSig("sum")] {
		t.Error("sum must not be in cone of ab")
	}
	outs := c.OutputsInCone(ab)
	if len(outs) != 1 || outs[0] != c.MustSig("cout") {
		t.Errorf("outputs in cone of ab = %v, want [cout]", outs)
	}
	outsAxb := c.OutputsInCone(c.MustSig("axb"))
	if len(outsAxb) != 2 {
		t.Errorf("axb reaches %d outputs, want 2", len(outsAxb))
	}
}

func TestSupportCone(t *testing.T) {
	c := fullAdder(t)
	sup := c.SupportCone([]SigID{c.MustSig("cout")})
	for _, name := range []string{"a", "b", "cin", "ab", "c_axb", "axb", "cout"} {
		if !sup[c.MustSig(name)] {
			t.Errorf("%s missing from support cone of cout", name)
		}
	}
	if sup[c.MustSig("sum")] {
		t.Error("sum must not be in the support cone of cout")
	}
}

func TestFreezeDetectsCycle(t *testing.T) {
	c := New("cyc")
	c.AddInput("a")
	// Create forward reference by building via low-level construction:
	// g1 = AND(a, g2), g2 = NOT(g1) — requires two-phase; emulate with
	// bench text instead.
	_ = c
	src := `
INPUT(a)
OUTPUT(g1)
g1 = AND(a, g2)
g2 = NOT(g1)
`
	if _, err := ParseBench("cyc", strings.NewReader(src)); err == nil {
		t.Error("expected cycle error")
	}
}

func TestFreezeRequiresOutputs(t *testing.T) {
	c := New("noout")
	c.AddInput("a")
	c.AddGate("g", TypeNot, "a")
	if err := c.Freeze(); err == nil {
		t.Error("expected error for circuit without outputs")
	}
}

func TestDuplicateSignalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c := New("dup")
	c.AddInput("a")
	c.AddInput("a")
}

func TestBadArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c := New("arity")
	c.AddInput("a")
	c.AddInput("b")
	c.AddGate("g", TypeNot, "a", "b")
}

func TestUnknownFaninPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New("unk").AddGate("g", TypeNot, "ghost")
}

func TestParseBenchRoundTrip(t *testing.T) {
	src := `# c17-like example
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
`
	c, err := ParseBench("c17", strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseBench: %v", err)
	}
	st := c.Stats()
	if st.Inputs != 5 || st.Outputs != 2 || st.Gates != 6 {
		t.Errorf("stats = %+v, want 5/2/6", st)
	}

	var sb strings.Builder
	if err := c.WriteBench(&sb); err != nil {
		t.Fatalf("WriteBench: %v", err)
	}
	c2, err := ParseBench("c17rt", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	// Functional equivalence over all 32 input patterns.
	var in []uint64
	for i := 0; i < 5; i++ {
		var w uint64
		for p := 0; p < 32; p++ {
			if p&(1<<uint(i)) != 0 {
				w |= 1 << uint(p)
			}
		}
		in = append(in, w)
	}
	o1 := c.OutputWords(c.SimWords(in))
	o2 := c2.OutputWords(c2.SimWords(in))
	mask := uint64(1)<<32 - 1
	for i := range o1 {
		if o1[i]&mask != o2[i]&mask {
			t.Errorf("output %d differs after round trip", i)
		}
	}
}

func TestParseBenchOutOfOrderDefinitions(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(y)
y = NOT(x)
x = AND(a, a)
`
	c, err := ParseBench("ooo", strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseBench: %v", err)
	}
	v := c.Eval(map[string]bool{"a": true})
	if v["y"] {
		t.Error("y = NOT(AND(a,a)) with a=1 must be 0")
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := []string{
		"INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n",             // unknown gate
		"INPUT(a)\nOUTPUT(y)\ny = AND(a, b)\n",           // undefined fanin
		"INPUT(a)\nOUTPUT(z)\ny = NOT(a)\n",              // undefined output
		"INPUT(a)\nOUTPUT(y)\nwhat is this\n",            // junk line
		"INPUT(a)\nOUTPUT(y)\ny = NOT(a\n",               // unbalanced paren
		"INPUT(a)\nOUTPUT(y)\ny = NOT(a, , )\n",          // empty fanin
		"INPUT()\nOUTPUT(y)\ny = NOT(a)\n",               // empty input name
		"INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n",    // duplicate input
		"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = NOT(a)\n",  // duplicate gate
		"INPUT(a)\nOUTPUT(a)\na = NOT(a)\n",              // gate redefines input
		"OUTPUT(a)\na = NOT(b)\nINPUT(a)\nINPUT(b)\n",    // late input collision
		"INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n", // NOT arity
		"INPUT(a)\nOUTPUT(y)\ny = XOR(a)\n",              // XOR arity
		"INPUT(a)\nOUTPUT(y)\nx = NOT(y)\ny = NOT(x)\n",  // cycle
		"INPUT(a)\nINPUT(b)\nOUTPUT(y)\n = AND(a, b)\n",  // empty gate name
	}
	for i, src := range cases {
		if _, err := ParseBench("bad", strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

func TestStatsLinesCountsBranches(t *testing.T) {
	c := fullAdder(t)
	st := c.Stats()
	// Signals: 3 inputs + 5 gates = 8 stems. Fanout>1: a(2), b(2),
	// cin(2), axb(2) → +8 branches. Total 16 lines.
	if st.Lines != 16 {
		t.Errorf("lines = %d, want 16", st.Lines)
	}
	if st.Depth != 3 {
		t.Errorf("depth = %d, want 3", st.Depth)
	}
}

func TestGateTypeCountsAndHistogram(t *testing.T) {
	c := fullAdder(t)
	s := c.GateTypeCounts()
	if !strings.Contains(s, "AND:2") || !strings.Contains(s, "XOR:2") || !strings.Contains(s, "OR:1") {
		t.Errorf("GateTypeCounts = %q", s)
	}
	h := c.FanoutHistogram()
	if h[2] != 4 {
		t.Errorf("fanout-2 signals = %d, want 4", h[2])
	}
}

// Property: bit-parallel simulation equals 64 independent serial runs on
// random circuits and random patterns.
func TestParallelEqualsSerialProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCircuit(r, 6, 25)
		in := make([]uint64, len(c.Inputs()))
		for i := range in {
			in[i] = r.Uint64()
		}
		val := c.SimWords(in)
		outs := c.OutputWords(val)
		for p := 0; p < 64; p += 7 { // sample bit positions
			assign := map[string]bool{}
			for i, id := range c.Inputs() {
				assign[c.Signal(id).Name] = in[i]&(1<<uint(p)) != 0
			}
			want := c.EvalOutputs(assign)
			for i := range want {
				if got := outs[i]&(1<<uint(p)) != 0; got != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// randomCircuit builds a random connected combinational circuit for
// property tests.
func randomCircuit(r *rand.Rand, nIn, nGates int) *Circuit {
	c := New("rand")
	names := make([]string, 0, nIn+nGates)
	for i := 0; i < nIn; i++ {
		n := "i" + string(rune('0'+i))
		c.AddInput(n)
		names = append(names, n)
	}
	types := []GateType{TypeAnd, TypeNand, TypeOr, TypeNor, TypeXor, TypeXnor, TypeNot, TypeBuf}
	for g := 0; g < nGates; g++ {
		t := types[r.Intn(len(types))]
		n := len(names)
		var fanins []string
		if t == TypeNot || t == TypeBuf {
			fanins = []string{names[r.Intn(n)]}
		} else {
			a, b := r.Intn(n), r.Intn(n)
			for b == a {
				b = r.Intn(n)
			}
			fanins = []string{names[a], names[b]}
		}
		gn := "g" + itoa(g)
		c.AddGate(gn, t, fanins...)
		names = append(names, gn)
	}
	// Mark the last few gates as outputs.
	for k := 0; k < 3; k++ {
		c.MarkOutput("g" + itoa(nGates-1-k))
	}
	return c.MustFreeze()
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestWriteDot(t *testing.T) {
	c := fullAdder(t)
	var sb strings.Builder
	if err := c.WriteDot(&sb); err != nil {
		t.Fatalf("WriteDot: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "rankdir=LR", "triangle", "peripheries=2", "XOR", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
	// One edge per gate fanin: five 2-input gates → 10 edges.
	if got := strings.Count(out, "->"); got != 10 {
		t.Errorf("edges = %d, want 10", got)
	}
}
