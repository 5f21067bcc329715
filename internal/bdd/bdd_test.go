package bdd

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTerminals(t *testing.T) {
	m := New()
	if m.And(True, False) != False {
		t.Error("1∧0 != 0")
	}
	if m.Or(True, False) != True {
		t.Error("1∨0 != 1")
	}
	if m.Not(False) != True || m.Not(True) != False {
		t.Error("negation of terminals wrong")
	}
	if !IsConst(True) || !IsConst(False) {
		t.Error("terminals must be constant")
	}
}

func TestVarIdentities(t *testing.T) {
	m := New()
	a := m.Var("a")
	b := m.Var("b")
	if m.Var("a") != a {
		t.Error("Var not idempotent")
	}
	if m.And(a, a) != a {
		t.Error("a∧a != a")
	}
	if m.Or(a, m.Not(a)) != True {
		t.Error("a∨¬a != 1")
	}
	if m.And(a, m.Not(a)) != False {
		t.Error("a∧¬a != 0")
	}
	if m.Xor(a, a) != False {
		t.Error("a⊕a != 0")
	}
	if m.Xor(a, b) != m.Xor(b, a) {
		t.Error("⊕ not commutative (canonical form broken)")
	}
	if m.Xnor(a, b) != m.Not(m.Xor(a, b)) {
		t.Error("xnor != not xor")
	}
	if m.Nand(a, b) != m.Not(m.And(a, b)) {
		t.Error("nand mismatch")
	}
	if m.Nor(a, b) != m.Not(m.Or(a, b)) {
		t.Error("nor mismatch")
	}
	if m.Implies(a, b) != m.Or(m.Not(a), b) {
		t.Error("implication mismatch")
	}
}

func TestCanonicity(t *testing.T) {
	m := New()
	a, b, c := m.Var("a"), m.Var("b"), m.Var("c")
	// (a∧b)∨c built two different ways must be the same node.
	f1 := m.Or(m.And(a, b), c)
	f2 := m.Not(m.And(m.Not(c), m.Nand(a, b)))
	if f1 != f2 {
		t.Errorf("equivalent functions got different refs: %d vs %d", f1, f2)
	}
}

func TestEval(t *testing.T) {
	m := New()
	a, b, c := m.Var("a"), m.Var("b"), m.Var("c")
	f := m.Or(m.And(a, b), m.Not(c))
	cases := []struct {
		a, b, c bool
		want    bool
	}{
		{false, false, false, true},
		{false, false, true, false},
		{true, true, true, true},
		{true, false, true, false},
	}
	for _, cse := range cases {
		got := m.Eval(f, Assignment{"a": cse.a, "b": cse.b, "c": cse.c})
		if got != cse.want {
			t.Errorf("f(%v,%v,%v) = %v, want %v", cse.a, cse.b, cse.c, got, cse.want)
		}
	}
}

func TestRestrictAndCompose(t *testing.T) {
	m := New()
	a, b := m.Var("a"), m.Var("b")
	f := m.Xor(a, b)
	if m.Restrict(f, "a", true) != m.Not(b) {
		t.Error("(a⊕b)|a=1 != ¬b")
	}
	if m.Restrict(f, "a", false) != b {
		t.Error("(a⊕b)|a=0 != b")
	}
	if m.Restrict(f, "zzz", true) != f {
		t.Error("restricting an unknown variable must be a no-op")
	}
	c := m.Var("c")
	g := m.Compose(f, []string{"b"}, []Ref{m.And(b, c)})
	want := m.Xor(a, m.And(b, c))
	if g != want {
		t.Error("compose mismatch")
	}
	if m.Compose(f, []string{"zzz"}, []Ref{c}) != f {
		t.Error("composing an unknown variable must be a no-op")
	}
	// Simultaneous substitution: a and b swap places.
	if got := m.Compose(m.And(a, m.Not(b)), []string{"a", "b"}, []Ref{b, a}); got != m.And(b, m.Not(a)) {
		t.Error("simultaneous compose mismatch")
	}
}

func TestQuantifiers(t *testing.T) {
	m := New()
	a, b := m.Var("a"), m.Var("b")
	f := m.And(a, b)
	if m.Exists(f, "a") != b {
		t.Error("∃a.(a∧b) != b")
	}
	if m.Forall(f, "a") != False {
		t.Error("∀a.(a∧b) != 0")
	}
	g := m.Or(a, b)
	if m.Forall(g, "a") != b {
		t.Error("∀a.(a∨b) != b")
	}
	if m.ExistsAll(f, []string{"a", "b"}) != True {
		t.Error("∃ab.(a∧b) != 1")
	}
}

func TestBooleanDifference(t *testing.T) {
	m := New()
	a, b := m.Var("a"), m.Var("b")
	// f = a∧b: ∂f/∂a = b (a change in a is visible iff b=1).
	f := m.And(a, b)
	if m.BooleanDifference(f, "a") != b {
		t.Error("∂(a∧b)/∂a != b")
	}
	// f = a⊕b: always sensitive to a.
	if m.BooleanDifference(m.Xor(a, b), "a") != True {
		t.Error("∂(a⊕b)/∂a != 1")
	}
	// f = b: never sensitive to a.
	if m.BooleanDifference(b, "a") != False {
		t.Error("∂b/∂a != 0")
	}
}

func TestSupportAndDependsOn(t *testing.T) {
	m := New()
	a, b, c := m.Var("a"), m.Var("b"), m.Var("c")
	_ = c
	f := m.Or(m.And(a, b), a)
	sup := m.Support(f)
	if len(sup) != 1 || sup[0] != "a" {
		t.Errorf("support = %v, want [a] (absorption)", sup)
	}
	g := m.Xor(a, m.And(b, m.Var("c")))
	sup = m.Support(g)
	if strings.Join(sup, ",") != "a,b,c" {
		t.Errorf("support = %v, want [a b c]", sup)
	}
	if !m.DependsOn(g, "c") {
		t.Error("g depends on c")
	}
	if m.DependsOn(g, "zzz") {
		t.Error("g must not depend on an undeclared variable")
	}
	if m.DependsOn(f, "b") {
		t.Error("absorbed variable must not be in the support")
	}
}

func TestSatOne(t *testing.T) {
	m := New()
	a, b := m.Var("a"), m.Var("b")
	f := m.And(a, m.Not(b))
	assign, ok := m.SatOne(f)
	if !ok {
		t.Fatal("satisfiable function reported unsat")
	}
	if !m.Eval(f, assign) {
		t.Errorf("SatOne returned non-satisfying assignment %v", assign)
	}
	if _, ok := m.SatOne(False); ok {
		t.Error("False must be unsatisfiable")
	}
	if _, ok := m.SatOne(True); !ok {
		t.Error("True must be satisfiable")
	}
}

func TestSatOneConstrained(t *testing.T) {
	m := New()
	a := m.Var("a")
	m.Var("b")
	v, ok := m.SatOneConstrained(a, []string{"a", "b"})
	if !ok {
		t.Fatal("unsat")
	}
	if len(v) != 2 {
		t.Errorf("vector %v must specify both names", v)
	}
	if !v["a"] {
		t.Error("a must be 1")
	}
}

func TestSatCount(t *testing.T) {
	m := New()
	a, b, c := m.Var("a"), m.Var("b"), m.Var("c")
	if got := m.SatCount(True, 3); got != 8 {
		t.Errorf("SatCount(1) = %g, want 8", got)
	}
	if got := m.SatCount(False, 3); got != 0 {
		t.Errorf("SatCount(0) = %g, want 0", got)
	}
	if got := m.SatCount(a, 3); got != 4 {
		t.Errorf("SatCount(a) = %g, want 4", got)
	}
	f := m.Or(m.And(a, b), c)
	if got := m.SatCount(f, 3); got != 5 {
		t.Errorf("SatCount(ab+c) = %g, want 5", got)
	}
	// Majority of three: 4 minterms.
	maj := m.OrN(m.And(a, b), m.And(a, c), m.And(b, c))
	if got := m.SatCount(maj, 3); got != 4 {
		t.Errorf("SatCount(maj) = %g, want 4", got)
	}
}

func TestAndNOrN(t *testing.T) {
	m := New()
	a, b, c := m.Var("a"), m.Var("b"), m.Var("c")
	if m.AndN() != True {
		t.Error("empty AndN != 1")
	}
	if m.OrN() != False {
		t.Error("empty OrN != 0")
	}
	if m.AndN(a, b, c) != m.And(a, m.And(b, c)) {
		t.Error("AndN mismatch")
	}
	if m.OrN(a, b, c) != m.Or(a, m.Or(b, c)) {
		t.Error("OrN mismatch")
	}
}

func TestNodeLimit(t *testing.T) {
	m := NewWithLimit(16)
	err := Guard(func() error {
		// Build a function whose BDD needs many nodes: parity of 16 vars.
		acc := False
		for i := 0; i < 16; i++ {
			acc = m.Xor(acc, m.Var(strings.Repeat("x", i+1)))
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected node-limit error")
	}
	if _, ok := err.(*LimitError); !ok {
		t.Fatalf("error type %T, want *LimitError", err)
	}
}

func TestGuardPassesThroughNil(t *testing.T) {
	if err := Guard(func() error { return nil }); err != nil {
		t.Errorf("Guard = %v, want nil", err)
	}
}

func TestNodeCount(t *testing.T) {
	m := New()
	a, b := m.Var("a"), m.Var("b")
	if m.NodeCount(True) != 0 {
		t.Error("terminal has no decision nodes")
	}
	if m.NodeCount(a) != 1 {
		t.Error("literal has one node")
	}
	f := m.Xor(a, b)
	if m.NodeCount(f) != 3 {
		t.Errorf("a⊕b has %d nodes, want 3", m.NodeCount(f))
	}
}

func TestDotOutput(t *testing.T) {
	m := New()
	a, b := m.Var("l1"), m.Var("D")
	f := m.Or(a, b)
	var sb strings.Builder
	if err := m.Dot(&sb, []string{"Vo1"}, []Ref{f}); err != nil {
		t.Fatalf("Dot: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "\"l1\"", "\"D\"", "Vo1", "style=dashed"} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
	if err := m.Dot(&sb, []string{"x", "y"}, []Ref{f}); err == nil {
		t.Error("mismatched names/roots must error")
	}
}

func TestStringRendering(t *testing.T) {
	m := New()
	if m.String(True) != "1" || m.String(False) != "0" {
		t.Error("constant rendering wrong")
	}
	a, b := m.Var("a"), m.Var("b")
	s := m.String(m.And(a, m.Not(b)))
	if s != "a·b'" {
		t.Errorf("rendered %q, want a·b'", s)
	}
}

// randExpr is one step of a small random straight-line boolean program
// used to cross-check BDD operations against truth tables.
type randExpr struct {
	op   int // 0 leaf, 1 not, 2 and, 3 or, 4 xor
	l, r int // operand indices (modulo position) or variable index
}

func pickIdx(i, idx int) int {
	if i == 0 {
		return 0
	}
	return idx % i
}

func buildBDDProg(m *Manager, vars []Ref, prog []randExpr) Ref {
	refs := make([]Ref, len(prog))
	for i, e := range prog {
		switch e.op {
		case 0:
			refs[i] = vars[e.l%len(vars)]
		case 1:
			refs[i] = m.Not(refs[pickIdx(i, e.l)])
		case 2:
			refs[i] = m.And(refs[pickIdx(i, e.l)], refs[pickIdx(i, e.r)])
		case 3:
			refs[i] = m.Or(refs[pickIdx(i, e.l)], refs[pickIdx(i, e.r)])
		case 4:
			refs[i] = m.Xor(refs[pickIdx(i, e.l)], refs[pickIdx(i, e.r)])
		}
	}
	return refs[len(refs)-1]
}

func evalBoolProg(prog []randExpr, vals []bool) bool {
	res := make([]bool, len(prog))
	for i, e := range prog {
		switch e.op {
		case 0:
			res[i] = vals[e.l%len(vals)]
		case 1:
			res[i] = !res[pickIdx(i, e.l)]
		case 2:
			res[i] = res[pickIdx(i, e.l)] && res[pickIdx(i, e.r)]
		case 3:
			res[i] = res[pickIdx(i, e.l)] || res[pickIdx(i, e.r)]
		case 4:
			res[i] = res[pickIdx(i, e.l)] != res[pickIdx(i, e.r)]
		}
	}
	return res[len(res)-1]
}

// Property: BDD operations agree with truth-table evaluation for random
// four-variable expressions.
func TestOpsMatchTruthTables(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := New()
		names := []string{"a", "b", "c", "d"}
		var vars []Ref
		for _, n := range names {
			vars = append(vars, m.Var(n))
		}
		prog := make([]randExpr, 1+r.Intn(12))
		for i := range prog {
			prog[i] = randExpr{op: r.Intn(5), l: r.Intn(8), r: r.Intn(8)}
		}
		prog[0].op = 0 // first is always a leaf
		fRef := buildBDDProg(m, vars, prog)
		for mask := 0; mask < 16; mask++ {
			as := Assignment{}
			vals := make([]bool, 4)
			for i := range names {
				vals[i] = mask&(1<<uint(i)) != 0
				as[names[i]] = vals[i]
			}
			if m.Eval(fRef, as) != evalBoolProg(prog, vals) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: Shannon expansion holds — f = (x ∧ f|x=1) ∨ (¬x ∧ f|x=0).
func TestShannonExpansionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := New()
		names := []string{"a", "b", "c", "d", "e"}
		var vars []Ref
		for _, n := range names {
			vars = append(vars, m.Var(n))
		}
		// Random function from random minterm set.
		fn := False
		for i := 0; i < 8; i++ {
			cube := True
			for j, v := range vars {
				switch r.Intn(3) {
				case 0:
					cube = m.And(cube, v)
				case 1:
					cube = m.And(cube, m.Not(v))
				}
				_ = j
			}
			fn = m.Or(fn, cube)
		}
		x := names[r.Intn(len(names))]
		xv := m.Var(x)
		rebuilt := m.Or(
			m.And(xv, m.Restrict(fn, x, true)),
			m.And(m.Not(xv), m.Restrict(fn, x, false)))
		return rebuilt == fn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
