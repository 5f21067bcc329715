package bdd

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m := New()
	a, b, c := m.Var("a"), m.Var("b"), m.Var("c")
	f := m.Or(m.And(a, b), m.Xor(b, c))
	g := m.Nand(a, c)

	var sb strings.Builder
	if err := m.Save(&sb, []string{"f", "g"}, []Ref{f, g}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	roots, err := m.Load(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	// Same manager: canonical rebuild must return the identical refs.
	if roots["f"] != f || roots["g"] != g {
		t.Errorf("round trip changed refs: %v", roots)
	}
}

func TestSaveLoadAcrossManagers(t *testing.T) {
	src := New()
	a, b := src.Var("x"), src.Var("y")
	f := src.Xor(a, b)
	var sb strings.Builder
	if err := src.Save(&sb, []string{"f"}, []Ref{f}); err != nil {
		t.Fatal(err)
	}
	dst := New()
	dst.Var("y") // different declaration order
	roots, err := dst.Load(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for mask := 0; mask < 4; mask++ {
		as := Assignment{"x": mask&1 != 0, "y": mask&2 != 0}
		if src.Eval(f, as) != dst.Eval(roots["f"], as) {
			t.Fatalf("function differs at %v", as)
		}
	}
}

func TestSaveLoadConstants(t *testing.T) {
	m := New()
	var sb strings.Builder
	if err := m.Save(&sb, []string{"t", "f"}, []Ref{True, False}); err != nil {
		t.Fatal(err)
	}
	roots, err := m.Load(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if roots["t"] != True || roots["f"] != False {
		t.Errorf("constants corrupted: %v", roots)
	}
}

func TestSaveValidation(t *testing.T) {
	m := New()
	a := m.Var("a")
	var sb strings.Builder
	if err := m.Save(&sb, []string{"x", "y"}, []Ref{a}); err == nil {
		t.Error("name/root mismatch must error")
	}
	if err := m.Save(&sb, []string{"bad name"}, []Ref{a}); err == nil {
		t.Error("whitespace in root name must error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	m := New()
	cases := []string{
		"",
		"nope\n",
		"bdd1\nvars x\n",
		"bdd1\nvars 1\na\nnodes 1\n9 0 1\nroots 0\n", // level out of range
		"bdd1\nvars 1\na\nnodes 1\n0 5 1\nroots 0\n", // forward reference
		"bdd1\nvars 1\na\nnodes 0\nroots 1\nf 7\n",   // root reference out of range
		"bdd1\nvars 1\na\nnodes 0\n",                 // truncated
	}
	for i, src := range cases {
		if _, err := m.Load(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// Property: random functions survive a save/load across managers with a
// shuffled variable order.
func TestSaveLoadProperty(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := New()
		for _, n := range names {
			src.Var(n)
		}
		fn := False
		for i := 0; i < 5; i++ {
			cube := True
			for _, n := range names {
				switch r.Intn(3) {
				case 0:
					cube = src.And(cube, src.Var(n))
				case 1:
					cube = src.And(cube, src.NVar(n))
				}
			}
			fn = src.Or(fn, cube)
		}
		var sb strings.Builder
		if err := src.Save(&sb, []string{"fn"}, []Ref{fn}); err != nil {
			return false
		}
		dst := New()
		for _, i := range r.Perm(len(names)) {
			dst.Var(names[i])
		}
		roots, err := dst.Load(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		for mask := 0; mask < 16; mask++ {
			as := Assignment{}
			for i, n := range names {
				as[n] = mask&(1<<uint(i)) != 0
			}
			if src.Eval(fn, as) != dst.Eval(roots["fn"], as) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
