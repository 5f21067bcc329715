package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/waveform"
)

// Fig6Data is the structured payload of the Figure 6 reproduction: the
// OBDDs of the two outputs with a composite value on the conversion
// block, their DOT rendering and the propagation vectors.
type Fig6Data struct {
	Expressions map[string]string // output name → sum-of-cubes with D
	Dot         string
	Vo1Only     core.PropResult // comparator 1 toggling: reaches Vo1
	Both        core.PropResult // l2 = D̄ scenario: reaches both outputs
}

func init() {
	register("fig6", "Figure 6 — OBDD propagation of D to Vo1/Vo2", runFig6)
}

func runFig6() (*Result, error) {
	mx, _, _, err := Vehicle("bandpass", "")
	if err != nil {
		return nil, err
	}
	p, err := core.NewPropagator(mx)
	if err != nil {
		return nil, err
	}

	// Scenario A: comparator 1 carries D (l0 = D, l2 = 0) — the fault
	// reaches Vo1 only.
	resA, okA, err := p.Propagate(core.ComparatorPattern(2, 1, waveform.D))
	if err != nil || !okA {
		return nil, fmt.Errorf("comparator-1 propagation failed: ok=%v err=%v", okA, err)
	}
	// Scenario B: l0 = 0, l2 = D̄ — the fault reaches both outputs (Vo2
	// needs l4 = 1), the configuration Figure 6 draws.
	patternB := []waveform.Composite{waveform.Zero, waveform.DBar}
	resB, okB, err := p.Propagate(patternB)
	if err != nil || !okB {
		return nil, fmt.Errorf("scenario-B propagation failed: ok=%v err=%v", okB, err)
	}

	names, roots, err := p.OutputOBDDs(patternB)
	if err != nil {
		return nil, err
	}
	m := p.Generator().Manager()
	exprs := map[string]string{}
	for i, n := range names {
		exprs[n] = m.String(roots[i])
	}
	var dot strings.Builder
	if err := m.Dot(&dot, names, roots); err != nil {
		return nil, err
	}

	var b strings.Builder
	b.WriteString("Figure 6 — output OBDDs with l0=0, l2=D̄ (D last in the order)\n")
	for _, n := range names {
		fmt.Fprintf(&b, "  %s = %s\n", n, exprs[n])
	}
	fmt.Fprintf(&b, "comparator 1 = D      → propagates to %v with free inputs %v\n",
		resA.Outputs, resA.Vector)
	fmt.Fprintf(&b, "l2 = D̄ (scenario B)   → propagates to %v with free inputs %v\n",
		resB.Outputs, resB.Vector)

	return &Result{
		ID:    "fig6",
		Title: "Figure 6 (propagation procedures)",
		Text:  b.String(),
		Data: Fig6Data{
			Expressions: exprs,
			Dot:         dot.String(),
			Vo1Only:     resA,
			Both:        resB,
		},
	}, nil
}
