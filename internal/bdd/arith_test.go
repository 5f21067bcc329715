package bdd

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// bitVars declares an n-bit vector of fresh variables, LSB first.
func bitVars(m *Manager, prefix string, n int) []Ref {
	out := make([]Ref, n)
	for i := range out {
		out[i] = m.Var(fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

// assignBits builds an assignment setting an n-bit vector to value v.
func assignBits(a Assignment, prefix string, n int, v uint64) {
	for i := 0; i < n; i++ {
		a[fmt.Sprintf("%s%d", prefix, i)] = v&(uint64(1)<<uint(i)) != 0
	}
}

func TestEqualVec(t *testing.T) {
	m := New()
	a := bitVars(m, "a", 4)
	b := bitVars(m, "b", 4)
	eq := m.EqualVec(a, b)
	for x := uint64(0); x < 16; x++ {
		for y := uint64(0); y < 16; y++ {
			as := Assignment{}
			assignBits(as, "a", 4, x)
			assignBits(as, "b", 4, y)
			if m.Eval(eq, as) != (x == y) {
				t.Fatalf("EqualVec(%d, %d) wrong", x, y)
			}
		}
	}
}

func TestSubExhaustive(t *testing.T) {
	m := New()
	a := bitVars(m, "a", 4)
	b := bitVars(m, "b", 4)
	diff, borrow := m.Sub(a, b)
	for x := uint64(0); x < 16; x++ {
		for y := uint64(0); y < 16; y++ {
			as := Assignment{}
			assignBits(as, "a", 4, x)
			assignBits(as, "b", 4, y)
			var got uint64
			for i := range diff {
				if m.Eval(diff[i], as) {
					got |= uint64(1) << uint(i)
				}
			}
			want := (x - y) & 15
			if got != want {
				t.Fatalf("Sub(%d, %d) = %d, want %d", x, y, got, want)
			}
			if m.Eval(borrow, as) != (y > x) {
				t.Fatalf("borrow(%d, %d) wrong", x, y)
			}
		}
	}
}

func TestGELEConstExhaustive(t *testing.T) {
	m := New()
	a := bitVars(m, "a", 4)
	for k := uint64(0); k <= 17; k++ {
		ge := m.GEConst(a, k)
		le := m.LEConst(a, k)
		for x := uint64(0); x < 16; x++ {
			as := Assignment{}
			assignBits(as, "a", 4, x)
			if m.Eval(ge, as) != (x >= k) {
				t.Fatalf("GEConst(%d) at %d wrong", k, x)
			}
			if m.Eval(le, as) != (x <= k) {
				t.Fatalf("LEConst(%d) at %d wrong", k, x)
			}
		}
	}
}

func TestDiffMagnitudeGEExhaustive(t *testing.T) {
	m := New()
	a := bitVars(m, "a", 4)
	b := bitVars(m, "b", 4)
	for _, tau := range []uint64{0, 1, 2, 3, 5, 8, 15, 16, 20} {
		f := m.DiffMagnitudeGE(a, b, tau)
		for x := uint64(0); x < 16; x++ {
			for y := uint64(0); y < 16; y++ {
				as := Assignment{}
				assignBits(as, "a", 4, x)
				assignBits(as, "b", 4, y)
				var mag uint64
				if x > y {
					mag = x - y
				} else {
					mag = y - x
				}
				if m.Eval(f, as) != (mag >= tau) {
					t.Fatalf("|%d-%d| ≥ %d wrong", x, y, tau)
				}
			}
		}
	}
}

// Property: on wider vectors, DiffMagnitudeGE agrees with integer
// arithmetic for random values and thresholds.
func TestDiffMagnitudeGEProperty(t *testing.T) {
	m := New()
	const n = 8
	a := bitVars(m, "a", n)
	b := bitVars(m, "b", n)
	cache := map[uint64]Ref{}
	f := func(x, y uint8, tauRaw uint8) bool {
		tau := uint64(tauRaw) % 300
		ref, ok := cache[tau]
		if !ok {
			ref = m.DiffMagnitudeGE(a, b, tau)
			cache[tau] = ref
		}
		as := Assignment{}
		assignBits(as, "a", n, uint64(x))
		assignBits(as, "b", n, uint64(y))
		var mag uint64
		if x > y {
			mag = uint64(x - y)
		} else {
			mag = uint64(y - x)
		}
		return m.Eval(ref, as) == (mag >= tau)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestVectorSizeMismatchPanics(t *testing.T) {
	m := New()
	a := bitVars(m, "a", 3)
	b := bitVars(m, "b", 4)
	for _, fn := range []func(){
		func() { m.EqualVec(a, b) },
		func() { m.Sub(a, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
