package atpg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/faults"
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
