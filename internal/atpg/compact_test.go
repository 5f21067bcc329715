package atpg

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/logic"
)

func TestCompactPreservesCoverage(t *testing.T) {
	c := adder(t)
	g, err := New(c)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fs := faults.Collapse(c)
	res := g.Run(fs)
	sim := faults.NewSimulator(c)
	before := sim.Coverage(res.Vectors, fs)

	compacted := g.Compact(res.Vectors, fs)
	after := sim.Coverage(compacted, fs)
	if after != before {
		t.Errorf("coverage changed: %d → %d", before, after)
	}
	if len(compacted) > len(res.Vectors) {
		t.Errorf("compaction grew the set: %d → %d", len(res.Vectors), len(compacted))
	}
}

func TestCompactDropsRedundantVectors(t *testing.T) {
	c := adder(t)
	g, err := New(c)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fs := faults.Collapse(c)
	res := g.Run(fs)
	// Duplicate every vector: at least the duplicates must go.
	doubled := append(append([]faults.Vector{}, res.Vectors...), res.Vectors...)
	compacted := g.Compact(doubled, fs)
	if len(compacted) > len(res.Vectors) {
		t.Errorf("compacted %d vectors from %d duplicated, want ≤ %d",
			len(compacted), len(doubled), len(res.Vectors))
	}
}

func TestCompactEmptyInputs(t *testing.T) {
	c := adder(t)
	g, err := New(c)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := g.Compact(nil, faults.Collapse(c)); len(got) != 0 {
		t.Errorf("compact(nil) = %v", got)
	}
	v := make(faults.Vector, len(c.Inputs()))
	if got := g.Compact([]faults.Vector{v}, nil); len(got) != 0 {
		t.Errorf("no faults → no vectors kept, got %d", len(got))
	}
}

// Property: on random circuits, compaction never loses coverage and never
// grows the set.
func TestCompactProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := propCircuit(r)
		g, err := New(c)
		if err != nil {
			return false
		}
		fs := faults.Collapse(c)
		res := g.Run(fs)
		sim := faults.NewSimulator(c)
		before := sim.Coverage(res.Vectors, fs)
		compacted := g.Compact(res.Vectors, fs)
		after := sim.Coverage(compacted, fs)
		return after == before && len(compacted) <= len(res.Vectors)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// compactReference is the per-vector form of Compact: newest vector
// first, each simulated alone against the faults no later vector
// detected, kept when it detects one of them.
func compactReference(c *logic.Circuit, vectors []faults.Vector, fs []faults.Fault) []faults.Vector {
	sim := faults.NewSimulator(c)
	detected := make([]bool, len(fs))
	keep := make([]bool, len(vectors))
	for vi := len(vectors) - 1; vi >= 0; vi-- {
		var remIdx []int
		var rem []faults.Fault
		for i, f := range fs {
			if !detected[i] {
				remIdx = append(remIdx, i)
				rem = append(rem, f)
			}
		}
		if len(rem) == 0 {
			break
		}
		for j, d := range sim.Detect([]faults.Vector{vectors[vi]}, rem) {
			if d >= 0 {
				detected[remIdx[j]] = true
				keep[vi] = true
			}
		}
	}
	var out []faults.Vector
	for i, v := range vectors {
		if keep[i] {
			out = append(out, v)
		}
	}
	return out
}

// TestCompactMatchesPerVectorReference requires the one-pass Compact to
// keep exactly the per-vector loop's vectors on every Table 4 circuit,
// over seeded vector lists with repeated vectors, against the collapsed
// list and against a short fault list most vectors detect nothing of.
func TestCompactMatchesPerVectorReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, name := range []string{"c432", "c499", "c880", "c1355", "c1908"} {
		c := iscas.MustBenchmark(name)
		g, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		var vectors []faults.Vector
		for k := 0; k < 100; k++ {
			v := make(faults.Vector, len(c.Inputs()))
			for i := range v {
				v[i] = r.Intn(2) == 1
			}
			vectors = append(vectors, v)
			if k%5 == 0 {
				vectors = append(vectors, vectors[r.Intn(len(vectors))])
			}
		}
		all := faults.Collapse(c)
		few := []faults.Fault{all[0], all[len(all)/2], all[len(all)-1]}
		sim := faults.NewSimulator(c)
		silent := 0
		for _, v := range vectors {
			if sim.Coverage([]faults.Vector{v}, few) == 0 {
				silent++
			}
		}
		if silent == 0 {
			t.Fatalf("%s: every vector detects one of %d faults; the list exercises no silent vector", name, len(few))
		}
		for _, fs := range [][]faults.Fault{all, few} {
			got, want := g.Compact(vectors, fs), compactReference(c, vectors, fs)
			if !slices.EqualFunc(got, want, slices.Equal[faults.Vector]) {
				t.Errorf("%s, %d faults: Compact kept %d vectors, the per-vector loop %d, or others",
					name, len(fs), len(got), len(want))
			}
		}
	}
}
