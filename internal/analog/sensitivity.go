package analog

import (
	"fmt"
	"math"

	"repro/internal/mna"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// ED-search instrumentation: solves counts WorstCaseED calls, evals the
// deviation-curve evaluations spent bracketing and running Brent — the
// convergence-iteration figure of the ED engine.
var (
	cEDSolves = obs.Default.Counter("analog.ed.solves")
	cEDEvals  = obs.Default.Counter("analog.ed.evals")
)

// ParamDeviation returns the relative deviation (T(δ) − T₀)/T₀ of the
// parameter when the element's value is multiplied by (1 + δ), with every
// other element at nominal. T₀ is measured on the unperturbed circuit.
func ParamDeviation(c *mna.Circuit, elem string, p Parameter, delta float64) (float64, error) {
	return newColumn(c, p, 0).deviation(elem, delta)
}

// Sensitivity returns the normalised first-order sensitivity
// S = (∂T/T)/(∂x/x), estimated by a central finite difference with
// relative step h (1e-4 is a good default for the filters here).
func Sensitivity(c *mna.Circuit, elem string, p Parameter, h float64) (float64, error) {
	return newColumn(c, p, h).sensitivity(elem)
}

// column is one parameter of a circuit held at nominal: the column of
// the ED matrix that the parameter heads. It measures T₀ once, and it
// memoises each masking sensitivity S_e(p) the first time a cell needs
// it, since neither depends on which element the cell deviates.
// BuildMatrix keeps one column per parameter for the whole matrix; the
// one-shot functions above build a fresh one per call. Every value is
// computed exactly as a fresh measurement would be, so sharing moves no
// result: a parameter's Measure is a pure function of element values,
// and Perturb's restore puts back the very float64 it replaced.
type column struct {
	c    *mna.Circuit
	p    Parameter
	step float64 // finite-difference step of the sensitivities

	t0       float64 // T₀, valid once measured
	measured bool
	sens     map[string]float64 // S_e(p) by element, filled by slack
}

func newColumn(c *mna.Circuit, p Parameter, step float64) *column {
	if step <= 0 {
		step = 1e-4
	}
	return &column{c: c, p: p, step: step}
}

// nominal returns T₀, measuring it on the first call. Callers must hold
// the circuit at nominal when they call it.
func (col *column) nominal() (float64, error) {
	if col.measured {
		return col.t0, nil
	}
	t0, err := col.p.Measure(col.c)
	if err != nil {
		return 0, err
	}
	if t0 == 0 {
		return 0, fmt.Errorf("analog: parameter %s is zero at nominal; relative deviation undefined", col.p.Name())
	}
	col.t0, col.measured = t0, true
	return t0, nil
}

// deviation is ParamDeviation against the column's T₀.
func (col *column) deviation(elem string, delta float64) (float64, error) {
	t0, err := col.nominal()
	if err != nil {
		return 0, err
	}
	restore := col.c.Perturb(elem, delta)
	defer restore()
	t1, err := col.p.Measure(col.c)
	if err != nil {
		return 0, err
	}
	return (t1 - t0) / t0, nil
}

// sensitivity is Sensitivity with the column's step.
func (col *column) sensitivity(elem string) (float64, error) {
	up, err := col.deviation(elem, col.step)
	if err != nil {
		return 0, err
	}
	down, err := col.deviation(elem, -col.step)
	if err != nil {
		return 0, err
	}
	return (up - down) / (2 * col.step), nil
}

// slack returns the worst-case masking slack Σ|S_e|·tol over others,
// in their order, leaving out elem (the element under test; "" leaves
// none out). Each S_e comes from the column's memo.
func (col *column) slack(others []string, elem string, tol float64) (float64, error) {
	slack := 0.0
	for _, e := range others {
		if e == elem {
			continue
		}
		s, ok := col.sens[e]
		if !ok {
			var err error
			if s, err = col.sensitivity(e); err != nil {
				return 0, err
			}
			if col.sens == nil {
				col.sens = map[string]float64{}
			}
			col.sens[e] = s
		}
		slack += math.Abs(s) * tol
	}
	return slack, nil
}

// EDOptions configures the worst-case element-deviation computation.
type EDOptions struct {
	// Tol is the parameter tolerance box half-width (the paper uses 5%,
	// i.e. 0.05): a parameter is faulty when it leaves [−Tol, +Tol].
	Tol float64
	// ElemTol is the tolerance of fault-free elements (from the "data
	// sheets"); their worst-case masking is added to the detection
	// threshold. Zero disables masking.
	ElemTol float64
	// MaxDev bounds the search (as a fraction; 20 ≡ 2000%). Deviations
	// beyond it are reported as unobservable (+Inf).
	MaxDev float64
	// Step is the finite-difference step for masking sensitivities.
	Step float64
}

// DefaultEDOptions returns the paper's setup: 5% parameter boxes, 5%
// fault-free element tolerances, searches capped at 2000%.
func DefaultEDOptions() EDOptions {
	return EDOptions{Tol: 0.05, ElemTol: 0.05, MaxDev: 20, Step: 1e-4}
}

// Unobservable marks an (element, parameter) pair whose deviation can
// never be seen at that parameter.
func Unobservable(ed float64) bool { return math.IsInf(ed, 1) }

// WorstCaseED computes the worst-case element deviation of elem with
// respect to parameter p: the smallest |δ| guaranteed to push the
// parameter out of its tolerance box even when every fault-free element
// masks the measurement by its own tolerance. others lists the fault-free
// elements contributing masking. The result is a fraction (0.099 = 9.9%);
// +Inf when no deviation up to MaxDev is observable.
func WorstCaseED(c *mna.Circuit, elem string, p Parameter, others []string, opt EDOptions) (float64, error) {
	return newColumn(c, p, opt.Step).worstCaseED(elem, others, opt)
}

// worstCaseED is WorstCaseED for one cell of the column.
func (col *column) worstCaseED(elem string, others []string, opt EDOptions) (float64, error) {
	cEDSolves.Inc()
	// Worst-case masking slack: sum of |S_e| · tol_e over fault-free
	// elements (first-order, as in the sensitivity-based method of [8]).
	slack := 0.0
	if opt.ElemTol > 0 {
		var err error
		if slack, err = col.slack(others, elem, opt.ElemTol); err != nil {
			return 0, err
		}
	}
	threshold := opt.Tol + slack

	best := math.Inf(1)
	for _, sign := range []float64{1, -1} {
		d, err := col.smallestCrossing(elem, sign, threshold, opt.MaxDev)
		if err != nil {
			return 0, err
		}
		if d < best {
			best = d
		}
	}
	return best, nil
}

// smallestCrossing finds the smallest |δ| with the given sign such that
// |ΔT/T(δ)| ≥ threshold, or +Inf if none exists below maxDev.
func (col *column) smallestCrossing(elem string, sign, threshold, maxDev float64) (float64, error) {
	var measureErr error
	g := func(mag float64) float64 {
		cEDEvals.Inc()
		dev, err := col.deviation(elem, sign*mag)
		if err != nil {
			if measureErr == nil {
				measureErr = err
			}
			return 0
		}
		return math.Abs(dev) - threshold
	}
	limit := maxDev
	if sign < 0 {
		// A negative deviation cannot exceed −100% (element value would
		// go non-positive); stop just short of it.
		if limit > 0.95 {
			limit = 0.95
		}
	}
	a, b, err := numeric.ExpandBracket(g, 0, 0.01, limit)
	if measureErr != nil {
		return 0, measureErr
	}
	if err != nil {
		return math.Inf(1), nil // never crosses below the cap
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
