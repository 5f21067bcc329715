package core

import (
	"fmt"

	"repro/internal/atpg"
	"repro/internal/bdd"
	"repro/internal/obs"
	"repro/internal/waveform"
)

// DVar is the name of the composite-value variable. The paper requires it
// to be the last variable in the OBDD order ("D is supposed to be a
// primary input which is last in the BDD ordering"); the Propagator
// declares it after every digital primary input.
const DVar = "D"

// Propagator propagates composite values through the digital block of a
// mixed circuit using OBDDs: bound lines are substituted with constants
// or ±D according to an activation pattern, and a primary output tests
// the analog fault iff its resulting OBDD contains the D node.
type Propagator struct {
	mx  *Mixed
	gen *atpg.Generator
	d   bdd.Ref
}

// NewPropagator builds the digital block's good OBDDs and declares D as
// the final variable.
func NewPropagator(mx *Mixed) (*Propagator, error) {
	defer obs.Default.StartSpan("core.build_propagator").End()
	gen, err := atpg.New(mx.Digital)
	if err != nil {
		return nil, err
	}
	m := gen.Manager()
	if _, exists := m.VarLevel(DVar); exists {
		return nil, fmt.Errorf("core: digital circuit already uses the reserved name %q", DVar)
	}
	d := m.Var(DVar)
	return &Propagator{mx: mx, gen: gen, d: d}, nil
}

// Generator exposes the underlying digital-ATPG generator (shared OBDDs).
func (p *Propagator) Generator() *atpg.Generator { return p.gen }

// PropResult describes a successful propagation: the outputs whose OBDDs
// contain D and one free-input vector that makes the first of them differ
// between the fault-free and faulty circuit.
type PropResult struct {
	Outputs []string        // primary outputs observing the fault
	Vector  map[string]bool // assignment to the free digital inputs
}

// Propagate substitutes the comparator pattern into every digital output
// OBDD. Pattern[k-1] gives comparator k's composite value; bound lines
// receive the corresponding constant, D (good=1/faulty=0) or ¬D. The
// fault is propagatable iff at least one output depends on D, and the
// returned vector satisfies ∂F/∂D = 1 on the first such output, exactly
// the paper's procedure ("a test vector is generated by simply choosing a
// path in the OBDD leading to D").
func (p *Propagator) Propagate(pattern []waveform.Composite) (PropResult, bool, error) {
	roots, err := p.substitute(pattern)
	if err != nil {
		return PropResult{}, false, err
	}
	m := p.gen.Manager()
	var res PropResult
	allDiff := bdd.False
	for i, o := range p.mx.Digital.Outputs() {
		f := roots[i]
		if !m.DependsOn(f, DVar) {
			continue
		}
		res.Outputs = append(res.Outputs, p.mx.Digital.Signal(o).Name)
		allDiff = m.Or(allDiff, m.BooleanDifference(f, DVar))
	}
	if len(res.Outputs) == 0 {
		return PropResult{}, false, nil
	}
	assign, ok := m.SatOneConstrained(allDiff, p.mx.FreeInputs())
	if !ok {
		// Output OBDDs contain the D node, but ∂F/∂D is unsatisfiable on
		// every output — D never changes an observed value. Treat as not
		// propagatable.
		return PropResult{}, false, nil
	}
	vec := make(map[string]bool, len(p.mx.FreeInputs()))
	for _, n := range p.mx.FreeInputs() {
		vec[n] = assign[n]
	}
	res.Vector = vec
	return res, true, nil
}

// ComparatorPattern builds the background pattern for a single toggling
// comparator: comparators below the target read One, the target carries
// the composite value, comparators above read Zero — the two adjacent
// thermometer codes of the paper's activation.
func ComparatorPattern(n, target int, v waveform.Composite) []waveform.Composite {
	out := make([]waveform.Composite, n)
	for k := 1; k <= n; k++ {
		switch {
		case k < target:
			out[k-1] = waveform.One
		case k == target:
			out[k-1] = v
		default:
			out[k-1] = waveform.Zero
		}
	}
	return out
}

// OutputOBDDs returns the named outputs' OBDDs after substituting the
// pattern, for rendering Figure 6-style diagrams.
func (p *Propagator) OutputOBDDs(pattern []waveform.Composite) (names []string, roots []bdd.Ref, err error) {
	roots, err = p.substitute(pattern)
	if err != nil {
		return nil, nil, err
	}
	for _, o := range p.mx.Digital.Outputs() {
		names = append(names, p.mx.Digital.Signal(o).Name)
	}
	return names, roots, nil
}

// substitute returns every digital output's OBDD, in output order, with
// the pattern's values substituted for the bound lines: a constant, D
// (good=1/faulty=0) or ¬D. Each output takes one Compose over the
// binding in binding order.
func (p *Propagator) substitute(pattern []waveform.Composite) ([]bdd.Ref, error) {
	if len(pattern) != len(p.mx.Binding) {
		return nil, fmt.Errorf("core: pattern of %d values for %d comparators",
			len(pattern), len(p.mx.Binding))
	}
	m := p.gen.Manager()
	var names []string
	var gs []bdd.Ref
	for k, name := range p.mx.Binding {
		var g bdd.Ref
		switch pattern[k] {
		case waveform.Zero:
			g = bdd.False
		case waveform.One:
			g = bdd.True
		case waveform.D:
			g = p.d
		case waveform.DBar:
			g = m.Not(p.d)
		default:
			continue
		}
		names = append(names, name)
		gs = append(gs, g)
	}
	outs := p.mx.Digital.Outputs()
	roots := make([]bdd.Ref, len(outs))
	for i, o := range outs {
		roots[i] = m.Compose(p.gen.GoodFunction(o), names, gs)
	}
	return roots, nil
}
