package bdd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTransferPreservesFunction(t *testing.T) {
	src := New()
	a, b, c := src.Var("a"), src.Var("b"), src.Var("c")
	f := src.Or(src.And(a, b), src.Xor(b, c))

	dst := New()
	// Reverse order in the destination.
	dst.Var("c")
	dst.Var("b")
	dst.Var("a")
	g := Transfer(dst, src, f)
	for mask := 0; mask < 8; mask++ {
		as := Assignment{"a": mask&1 != 0, "b": mask&2 != 0, "c": mask&4 != 0}
		if src.Eval(f, as) != dst.Eval(g, as) {
			t.Fatalf("transfer changed the function at %v", as)
		}
	}
}

func TestTransferDeclaresMissingVars(t *testing.T) {
	src := New()
	x := src.Var("x")
	y := src.Var("y")
	f := src.And(x, y)
	dst := New()
	g := Transfer(dst, src, f)
	if _, ok := dst.VarLevel("x"); !ok {
		t.Error("x not declared in destination")
	}
	if !dst.Eval(g, Assignment{"x": true, "y": true}) {
		t.Error("transferred AND wrong")
	}
}

func TestTransferConstants(t *testing.T) {
	src, dst := New(), New()
	if Transfer(dst, src, True) != True || Transfer(dst, src, False) != False {
		t.Error("terminals must transfer unchanged")
	}
}

func TestTransferOrderChangesSize(t *testing.T) {
	// The classic order-sensitive function: x1·x2 + x3·x4 + x5·x6 is
	// linear under the natural order and exponential under the
	// interleave-hostile order x1,x3,x5,x2,x4,x6.
	src := New()
	good := []string{"x1", "x2", "x3", "x4", "x5", "x6"}
	for _, n := range good {
		src.Var(n)
	}
	f := src.OrN(
		src.And(src.Var("x1"), src.Var("x2")),
		src.And(src.Var("x3"), src.Var("x4")),
		src.And(src.Var("x5"), src.Var("x6")))
	sizeGood := src.NodeCount(f)

	bad := New()
	for _, n := range []string{"x1", "x3", "x5", "x2", "x4", "x6"} {
		bad.Var(n)
	}
	g := Transfer(bad, src, f)
	sizeBad := bad.NodeCount(g)
	if sizeBad <= sizeGood {
		t.Errorf("hostile order should grow the BDD: %d vs %d", sizeBad, sizeGood)
	}
	// And the function is still the same.
	for mask := 0; mask < 64; mask++ {
		as := Assignment{}
		for i, n := range good {
			as[n] = mask&(1<<uint(i)) != 0
		}
		if src.Eval(f, as) != bad.Eval(g, as) {
			t.Fatal("reorder changed the function")
		}
	}
}

func TestStatsAndVarOrder(t *testing.T) {
	m := New()
	m.Var("p")
	m.Var("q")
	f := m.And(m.Var("p"), m.Var("q"))
	_ = f
	st := m.Stats()
	if st.Vars != 2 || st.Nodes < 3 || st.PeakNodes < st.Nodes {
		t.Errorf("stats = %+v", st)
	}
	if st.String() == "" {
		t.Error("empty stats string")
	}
	ord := m.VarOrder()
	if len(ord) != 2 || ord[0] != "p" || ord[1] != "q" {
		t.Errorf("order = %v", ord)
	}
}

// Property: transferring a random function to a manager with a shuffled
// order and back yields the original ref (canonical round trip).
func TestTransferRoundTripProperty(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := New()
		for _, n := range names {
			src.Var(n)
		}
		// Random function.
		fn := False
		for i := 0; i < 6; i++ {
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
		mid := New()
		perm := r.Perm(len(names))
		for _, i := range perm {
			mid.Var(names[i])
		}
		g := Transfer(mid, src, fn)
		back := Transfer(src, mid, g)
		return back == fn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
