package bdd

import (
	"fmt"
	"math/rand"
	"testing"
)

// truthTable is a function of n variables as a bit set over the 2^n
// assignments. In assignment k, variable i (level i) takes bit n-1-i of k,
// so level 0 is the most significant bit.
type truthTable []uint64

func newTable(n int) truthTable { return make(truthTable, (1<<n+63)/64) }

func (tt truthTable) get(k int) bool { return tt[k/64]>>(k%64)&1 != 0 }

func (tt truthTable) set(k int) { tt[k/64] |= 1 << (k % 64) }

func (tt truthTable) any() bool {
	for _, w := range tt {
		if w != 0 {
			return true
		}
	}
	return false
}

// varTable is the truth table of the literal at level i.
func varTable(n, i int) truthTable {
	tt := newTable(n)
	for k := 0; k < 1<<n; k++ {
		if k>>(n-1-i)&1 != 0 {
			tt.set(k)
		}
	}
	return tt
}

func combine(a, b truthTable, op func(x, y uint64) uint64) truthTable {
	out := make(truthTable, len(a))
	for i := range a {
		out[i] = op(a[i], b[i])
	}
	return out
}

// withBit returns assignment k with level i's variable set to v.
func withBit(n, k, i int, v bool) int {
	bit := 1 << (n - 1 - i)
	if v {
		return k | bit
	}
	return k &^ bit
}

// tableOf evaluates f on every assignment by walking the arena.
func tableOf(m *Manager, f Ref, n int) truthTable {
	tt := newTable(n)
	for k := 0; k < 1<<n; k++ {
		r := f
		for !IsConst(r) {
			nd := m.nodes[r]
			if k>>(n-1-int(nd.level))&1 != 0 {
				r = nd.hi
			} else {
				r = nd.lo
			}
		}
		if r == True {
			tt.set(k)
		}
	}
	return tt
}

// fromTable builds tt by Shannon expansion from level 0 down, through And,
// Or and Not: an operation order unrelated to the one that built the
// function from gates.
func fromTable(m *Manager, vars []Ref, tt truthTable, n, level, base int) Ref {
	if level == n {
		return Constant(tt.get(base))
	}
	lo := fromTable(m, vars, tt, n, level+1, base)
	hi := fromTable(m, vars, tt, n, level+1, base+1<<(n-1-level))
	return m.Or(m.And(vars[level], hi), m.And(m.Not(vars[level]), lo))
}

// randomFunction builds a random gate network over vars and returns its
// output with the output's truth table.
func randomFunction(m *Manager, vars []Ref, n int, rng *rand.Rand) (Ref, truthTable) {
	refs := append([]Ref(nil), vars...)
	tts := make([]truthTable, n)
	for i := range tts {
		tts[i] = varTable(n, i)
	}
	for step := 0; step < 6*n; step++ {
		a, b := rng.Intn(len(refs)), rng.Intn(len(refs))
		var r Ref
		var tt truthTable
		switch rng.Intn(3) {
		case 0:
			r, tt = m.And(refs[a], m.Not(refs[b])), combine(tts[a], tts[b], func(x, y uint64) uint64 { return x &^ y })
		case 1:
			r, tt = m.Or(refs[a], refs[b]), combine(tts[a], tts[b], func(x, y uint64) uint64 { return x | y })
		default:
			r, tt = m.Xor(refs[a], refs[b]), combine(tts[a], tts[b], func(x, y uint64) uint64 { return x ^ y })
		}
		refs, tts = append(refs, r), append(tts, tt)
	}
	return refs[len(refs)-1], tts[len(tts)-1]
}

// TestOpsMatchExhaustiveOracle checks the manager against truth tables on
// every assignment of random functions of 12–14 variables — enough nodes
// that the unique table and the computed cache both grow, and that cache
// slots are overwritten, so recomputation after eviction is exercised.
func TestOpsMatchExhaustiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 12; n <= 14; n++ {
		m := New()
		names := make([]string, n)
		vars := make([]Ref, n)
		for i := range vars {
			names[i] = fmt.Sprintf("x%d", i)
			vars[i] = m.Var(names[i])
		}
		for trial := 0; trial < 4; trial++ {
			f, ftt := randomFunction(m, vars, n, rng)
			if !equalTables(tableOf(m, f, n), ftt) {
				t.Fatalf("n=%d trial %d: function differs from its truth table", n, trial)
			}
			if g := fromTable(m, vars, ftt, n, 0, 0); g != f {
				t.Fatalf("n=%d trial %d: Shannon rebuild gave Ref %d, gates gave %d", n, trial, g, f)
			}

			x := rng.Intn(n)
			for _, v := range []bool{false, true} {
				want := newTable(n)
				for k := 0; k < 1<<n; k++ {
					if ftt.get(withBit(n, k, x, v)) {
						want.set(k)
					}
				}
				if !equalTables(tableOf(m, m.Restrict(f, names[x], v), n), want) {
					t.Errorf("n=%d trial %d: Restrict(%s=%v) wrong", n, trial, names[x], v)
				}
			}
			want := newTable(n)
			for k := 0; k < 1<<n; k++ {
				if ftt.get(withBit(n, k, x, false)) || ftt.get(withBit(n, k, x, true)) {
					want.set(k)
				}
			}
			if !equalTables(tableOf(m, m.Exists(f, names[x]), n), want) {
				t.Errorf("n=%d trial %d: Exists(%s) wrong", n, trial, names[x])
			}

			checkCompose(t, m, f, ftt, vars, names, n, rng)

			assign, ok := m.SatOne(f)
			if ok != ftt.any() {
				t.Fatalf("n=%d trial %d: SatOne ok=%v for a function with minterms=%v", n, trial, ok, ftt.any())
			}
			if ok {
				// Variables off the witness path are don't-cares: both
				// completions must satisfy f.
				for _, fill := range []bool{false, true} {
					k := 0
					for i, name := range names {
						v, set := assign[name]
						if !set {
							v = fill
						}
						k = withBit(n, k, i, v)
					}
					if !ftt.get(k) {
						t.Errorf("n=%d trial %d: SatOne witness %v (free vars %v) does not satisfy f", n, trial, assign, fill)
					}
				}
			}
		}
		// The unique table is kept at most half full, so holding more than
		// 2·minTableSlots nodes means it doubled at least twice; the cache
		// doubles with the arena.
		if s := m.Stats(); s.Nodes <= 2*minTableSlots || s.CacheSize < 4*minTableSlots {
			t.Errorf("n=%d: tables did not grow: %v", n, s)
		}
	}
}

// checkCompose substitutes two variables simultaneously, each with a
// function that mentions the other, and then also a third variable of f
// with a constant. It checks each result against the truth-table oracle,
// including a change of substitution straight after a call, where stale
// cache entries would show.
func checkCompose(t *testing.T, m *Manager, f Ref, ftt truthTable, vars []Ref, names []string, n int, rng *rand.Rand) {
	t.Helper()
	perm := rng.Perm(n)
	a, b, c := perm[0], perm[1], -1
	for _, i := range perm[2:] {
		if m.DependsOn(f, names[i]) {
			c = i
			break
		}
	}
	h1, _ := randomFunction(m, vars, n, rng)
	h2, _ := randomFunction(m, vars, n, rng)
	f2, f2tt := randomFunction(m, vars, n, rng)
	// g_a = x_b ⊕ h1|x_b=0 depends on x_b; g_b likewise on x_a.
	ga := m.Xor(vars[b], m.Restrict(h1, names[b], false))
	gb := m.Xor(vars[a], m.Restrict(h2, names[a], false))
	if c < 0 || !m.DependsOn(ga, names[b]) || !m.DependsOn(gb, names[a]) {
		t.Fatal("random functions too degenerate for the compose check")
	}
	gatt, gbtt := tableOf(m, ga, n), tableOf(m, gb, n)
	oracle := func(ftt truthTable, withC bool) truthTable {
		out := newTable(n)
		for k := 0; k < 1<<n; k++ {
			k2 := withBit(n, withBit(n, k, a, gatt.get(k)), b, gbtt.get(k))
			if withC {
				k2 = withBit(n, k2, c, true)
			}
			if ftt.get(k2) {
				out.set(k)
			}
		}
		return out
	}
	two, three := []string{names[a], names[b]}, []string{names[a], names[b], names[c]}
	want3, want2 := oracle(ftt, true), oracle(ftt, false)
	if equalTables(want3, want2) {
		t.Fatalf("fixing %s does not change the composition", names[c])
	}
	got := m.Compose(f, three, []Ref{ga, gb, True})
	if !equalTables(tableOf(m, got, n), want3) {
		t.Errorf("Compose(%v) differs from the oracle", three)
	}
	if !equalTables(tableOf(m, m.Compose(f, two, []Ref{ga, gb}), n), want2) {
		t.Errorf("Compose(%v) right after Compose(%v) differs from the oracle", two, three)
	}
	if !equalTables(tableOf(m, m.Compose(f2, two, []Ref{ga, gb}), n), oracle(f2tt, false)) {
		t.Errorf("Compose(%v) of a second function differs from the oracle", two)
	}
	if m.Compose(f, three, []Ref{ga, gb, True}) != got {
		t.Error("repeating a Compose changed its result")
	}
}

func equalTables(a, b truthTable) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
