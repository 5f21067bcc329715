package analog_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/analog"
	"repro/internal/circuits"
	"repro/internal/mna"
	"repro/internal/numeric"
)

// The reference ED algorithm below is the one BuildMatrix replaced, kept
// as the slow oracle of the shared-column fast path. It is built only
// from Parameter.Measure and Circuit.Perturb: every deviation re-measures
// T₀, and every cell recomputes all of its masking sensitivities.

func refDeviation(c *mna.Circuit, elem string, p analog.Parameter, delta float64) (float64, error) {
	t0, err := p.Measure(c)
	if err != nil {
		return 0, err
	}
	if t0 == 0 {
		return 0, fmt.Errorf("parameter %s is zero at nominal", p.Name())
	}
	restore := c.Perturb(elem, delta)
	defer restore()
	t1, err := p.Measure(c)
	if err != nil {
		return 0, err
	}
	return (t1 - t0) / t0, nil
}

func refSensitivity(c *mna.Circuit, elem string, p analog.Parameter, h float64) (float64, error) {
	if h <= 0 {
		h = 1e-4
	}
	up, err := refDeviation(c, elem, p, h)
	if err != nil {
		return 0, err
	}
	down, err := refDeviation(c, elem, p, -h)
	if err != nil {
		return 0, err
	}
	return (up - down) / (2 * h), nil
}

func refWorstCaseED(c *mna.Circuit, elem string, p analog.Parameter, others []string, opt analog.EDOptions) (float64, error) {
	slack := 0.0
	if opt.ElemTol > 0 {
		for _, e := range others {
			if e == elem {
				continue
			}
			s, err := refSensitivity(c, e, p, opt.Step)
			if err != nil {
				return 0, err
			}
			slack += math.Abs(s) * opt.ElemTol
		}
	}
	threshold := opt.Tol + slack
	best := math.Inf(1)
	for _, sign := range []float64{1, -1} {
		d, err := refCrossing(c, elem, p, sign, threshold, opt.MaxDev)
		if err != nil {
			return 0, err
		}
		if d < best {
			best = d
		}
	}
	return best, nil
}

func refCrossing(c *mna.Circuit, elem string, p analog.Parameter, sign, threshold, maxDev float64) (float64, error) {
	var measureErr error
	g := func(mag float64) float64 {
		dev, err := refDeviation(c, elem, p, sign*mag)
		if err != nil {
			if measureErr == nil {
				measureErr = err
			}
			return 0
		}
		return math.Abs(dev) - threshold
	}
	limit := maxDev
	if sign < 0 && limit > 0.95 {
		limit = 0.95
	}
	a, b, err := numeric.ExpandBracket(g, 0, 0.01, limit)
	if measureErr != nil {
		return 0, measureErr
	}
	if err != nil {
		return math.Inf(1), nil
	}
	x, err := numeric.Brent(g, a, b, 1e-6)
	if measureErr != nil {
		return 0, measureErr
	}
	if err != nil {
		return math.Inf(1), nil
	}
	return x, nil
}

// TestBuildMatrixMatchesReference checks BuildMatrix, which shares each
// column's T₀ and masking sensitivities, against the reference algorithm
// with == on every cell of the paper's three analog vehicles, and checks
// that the one-shot WorstCaseED of each cell equals the matrix cell.
func TestBuildMatrixMatchesReference(t *testing.T) {
	boards := []struct {
		name     string
		c        *mna.Circuit
		elements []string
		params   []analog.Parameter
	}{
		{"bandpass", circuits.BandPass2(), circuits.BandPassElements, circuits.BandPassParams()},
		{"chebyshev", circuits.Chebyshev5(), circuits.ChebyshevElements, circuits.ChebyshevParams()},
		{"statevar", circuits.StateVariable(true), circuits.StateVarElements, circuits.StateVarParams()},
	}
	opt := analog.DefaultEDOptions()
	for _, b := range boards {
		t.Run(b.name, func(t *testing.T) {
			m, err := analog.BuildMatrix(b.c, b.elements, b.params, opt)
			if err != nil {
				t.Fatalf("BuildMatrix: %v", err)
			}
			finite := 0
			for i, e := range b.elements {
				for j, p := range b.params {
					want, err := refWorstCaseED(b.c, e, p, b.elements, opt)
					if err != nil {
						t.Fatalf("reference ED(%s, %s): %v", e, p.Name(), err)
					}
					if got := m.ED[i][j]; got != want {
						t.Errorf("BuildMatrix ED(%s, %s) = %v, reference %v", e, p.Name(), got, want)
					}
					cell, err := analog.WorstCaseED(b.c, e, p, b.elements, opt)
					if err != nil {
						t.Fatalf("WorstCaseED(%s, %s): %v", e, p.Name(), err)
					}
					if cell != m.ED[i][j] {
						t.Errorf("WorstCaseED(%s, %s) = %v, BuildMatrix %v", e, p.Name(), cell, m.ED[i][j])
					}
					if !analog.Unobservable(want) {
						finite++
					}
				}
			}
			// A matrix of only unobservable cells would never reach the
			// crossing search, and one with no such cell would never see the
			// search give up: each vehicle must have both.
			if finite == 0 || finite == len(b.elements)*len(b.params) {
				t.Errorf("%d of %d cells finite; want some of each kind", finite, len(b.elements)*len(b.params))
			}
		})
	}
}

// TestMaskingSlackMatchesReference checks MaskingSlack, which sums the
// column's memoised sensitivities, against the reference sum of fresh
// finite differences over every element.
func TestMaskingSlackMatchesReference(t *testing.T) {
	c := circuits.BandPass2()
	for _, p := range circuits.BandPassParams() {
		want := 0.0
		for _, e := range circuits.BandPassElements {
			s, err := refSensitivity(c, e, p, 1e-4)
			if err != nil {
				t.Fatalf("reference S(%s, %s): %v", e, p.Name(), err)
			}
			want += math.Abs(s) * 0.05
		}
		got, err := analog.MaskingSlack(c, circuits.BandPassElements, p, 0.05, 1e-4)
		if err != nil {
			t.Fatalf("MaskingSlack(%s): %v", p.Name(), err)
		}
		if got != want {
			t.Errorf("MaskingSlack(%s) = %v, reference %v", p.Name(), got, want)
		}
	}
}
