package mna

import (
	"math"
	"testing"
)

// swapCircuit builds an RC section behind a unity-gain follower. Node
// "in", the first unknown, touches only voltage sources, so its KCL row
// has a zero diagonal and every solve swaps rows before it eliminates.
func swapCircuit() *Circuit {
	c := New("ws")
	c.AddV("Vin", "in", "0", 1, 1)
	c.AddV("Vs", "in", "a", 0, 0) // 0 V sense source
	c.AddR("R1", "a", "b", 1e3)
	c.AddC("C1", "b", "0", 1e-7)
	c.AddOpAmp("U1", "b", "out", "out")
	c.AddR("RL", "out", "0", 1e4)
	return c
}

// grow adds an element on a new node, one more unknown.
func grow(c *Circuit) { c.AddR("R2", "out", "tail", 2e3) }

// unknowns flattens a Solution into its node voltages, then its branch
// currents in element order.
func unknowns(s *Solution) []complex128 {
	out := append([]complex128(nil), s.v...)
	for _, e := range s.circuit.elems {
		if e.branch >= 0 {
			out = append(out, s.branch[e.name])
		}
	}
	return out
}

func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestWorkspaceReuseMatchesFreshSolve solves one circuit through a
// sequence of analyses that share its workspace — AC, DC, a repeated
// frequency, solves after row-swapping ones, and solves after an added
// element regrows it — and checks each, bit for bit, against a freshly
// built circuit solved once. A Solution returned early must not change.
func TestWorkspaceReuseMatchesFreshSolve(t *testing.T) {
	ac := func(f float64) func(*Circuit) ([]complex128, error) {
		return func(c *Circuit) ([]complex128, error) {
			s, err := c.AC(f)
			if err != nil {
				return nil, err
			}
			return unknowns(s), nil
		}
	}
	dc := func(c *Circuit) ([]complex128, error) {
		s, err := c.DC()
		if err != nil {
			return nil, err
		}
		return unknowns(s), nil
	}
	gain := func(f float64) func(*Circuit) ([]complex128, error) {
		return func(c *Circuit) ([]complex128, error) {
			g, err := c.Gain("out", f)
			return []complex128{g}, err
		}
	}
	steps := []struct {
		name string
		grow bool // add an unknown to the circuit before this step
		run  func(*Circuit) ([]complex128, error)
	}{
		{"AC 1 kHz", false, ac(1e3)},
		{"DC", false, dc},
		{"Gain 1 kHz", false, gain(1e3)},
		{"AC 1 kHz again", false, ac(1e3)},
		{"Gain DC", false, gain(0)},
		{"AC 5 kHz after an added unknown", true, ac(5e3)},
		{"Gain 5 kHz", false, gain(5e3)},
		{"DC after an added unknown", false, dc},
	}

	c := swapCircuit()
	first, err := c.AC(1e3)
	if err != nil {
		t.Fatal(err)
	}
	firstBits := unknowns(first)
	// NewComplexMatrix lays rows out in order, so row 0 spans the whole
	// backing array until pivoting moves another row into its place.
	if n := len(c.ws.a); cap(c.ws.a[0]) == n*n {
		t.Fatal("the zero-diagonal first row did not swap; the test circuit no longer exercises pivoting")
	}

	grown := false
	for _, st := range steps {
		if st.grow {
			grow(c)
			grown = true
		}
		got, err := st.run(c)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		fresh := swapCircuit()
		if grown {
			grow(fresh)
		}
		want, err := st.run(fresh)
		if err != nil {
			t.Fatalf("%s on a fresh circuit: %v", st.name, err)
		}
		if !sameBits(got, want) {
			t.Errorf("%s: reused workspace gave %v, fresh circuit %v", st.name, got, want)
		}
	}
	if !sameBits(unknowns(first), firstBits) {
		t.Errorf("an earlier Solution changed under later solves: %v, was %v", unknowns(first), firstBits)
	}
}

// TestGainSolvesWithoutAllocating pins the point of the workspace: once
// it is sized, a gain evaluation allocates nothing.
func TestGainSolvesWithoutAllocating(t *testing.T) {
	c := swapCircuit()
	if _, err := c.GainMag("out", 1e3); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.GainMag("out", 2e3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("GainMag allocated %v times per call, want 0", allocs)
	}
}
