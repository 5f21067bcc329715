package analog

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mna"
	"repro/internal/obs"
)

// Monte Carlo instrumentation: one "run" per MonteCarlo call, one
// "sample" per perturbed-circuit evaluation of the full parameter list.
var (
	cMCRuns    = obs.Default.Counter("analog.mc.runs")
	cMCSamples = obs.Default.Counter("analog.mc.samples")
)

// MCResult summarises a Monte Carlo tolerance run for one parameter: the
// spread of its relative deviation when every element varies uniformly
// within its fault-free tolerance.
type MCResult struct {
	Param    string
	Nominal  float64
	MinDev   float64 // most negative relative deviation observed
	MaxDev   float64 // most positive relative deviation observed
	MeanAbs  float64 // mean |deviation|
	StdDev   float64 // standard deviation of the relative deviation
	Samples  int
	WorstAbs float64 // max |deviation| observed
}

// MonteCarlo samples the fault-free tolerance space: each run perturbs
// every element independently and uniformly within ±elemTol, measures the
// parameters, and accumulates the relative deviations. It quantifies the
// masking the worst-case ED computation guards against — the observed
// |deviation| of a fault-free population must stay below the linearised
// masking slack Σ|Sₑ|·tol used by WorstCaseED (the bound is first-order,
// so a small overshoot is possible for strongly curved parameters).
func MonteCarlo(c *mna.Circuit, elements []string, params []Parameter, elemTol float64, n int, seed int64) ([]MCResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("analog: MonteCarlo needs a positive sample count, got %d", n)
	}
	nominal := map[string]float64{}
	for _, p := range params {
		v, err := p.Measure(c)
		if err != nil {
			return nil, fmt.Errorf("analog: nominal %s: %w", p.Name(), err)
		}
		if v == 0 {
			return nil, fmt.Errorf("analog: parameter %s is zero at nominal", p.Name())
		}
		nominal[p.Name()] = v
	}

	defer obs.Default.StartSpan("analog.monte_carlo").End()
	cMCRuns.Inc()
	cMCSamples.Add(int64(n))

	rng := rand.New(rand.NewSource(seed))
	results := make([]MCResult, len(params))
	for i, p := range params {
		results[i] = MCResult{Param: p.Name(), Nominal: nominal[p.Name()], MinDev: math.Inf(1), MaxDev: math.Inf(-1)}
	}
	sum := make([]float64, len(params))
	sumSq := make([]float64, len(params))
	sumAbs := make([]float64, len(params))

	base := map[string]float64{}
	for _, e := range elements {
		base[e] = c.Value(e)
	}
	defer func() {
		for e, v := range base {
			c.SetValue(e, v)
		}
	}()

	for s := 0; s < n; s++ {
		for _, e := range elements {
			delta := elemTol * (2*rng.Float64() - 1)
			c.SetValue(e, base[e]*(1+delta))
		}
		for i, p := range params {
			v, err := p.Measure(c)
			if err != nil {
				return nil, fmt.Errorf("analog: sample %d of %s: %w", s, p.Name(), err)
			}
			dev := (v - nominal[p.Name()]) / nominal[p.Name()]
			r := &results[i]
			if dev < r.MinDev {
				r.MinDev = dev
			}
			if dev > r.MaxDev {
				r.MaxDev = dev
			}
			if a := math.Abs(dev); a > r.WorstAbs {
				r.WorstAbs = a
			}
			sum[i] += dev
			sumSq[i] += dev * dev
			sumAbs[i] += math.Abs(dev)
		}
	}
	for i := range results {
		r := &results[i]
		r.Samples = n
		mean := sum[i] / float64(n)
		r.MeanAbs = sumAbs[i] / float64(n)
		r.StdDev = math.Sqrt(math.Max(0, sumSq[i]/float64(n)-mean*mean))
	}
	return results, nil
}

// MaskingSlack returns the linearised worst-case masking bound
// Σₑ |Sₑ(T)|·tol that WorstCaseED adds to the detection threshold — the
// quantity Monte Carlo runs are compared against.
func MaskingSlack(c *mna.Circuit, elements []string, p Parameter, elemTol, step float64) (float64, error) {
	return newColumn(c, p, step).slack(elements, "", elemTol)
}
