package main

import (
	"context"
	"fmt"
	"math"
	"reflect"

	"repro/internal/analog"
	"repro/internal/circuits"
	"repro/internal/mna"
	"repro/internal/obs"
)

// analogBlock is one filter whose ED matrix the workload builds: the
// Equation 1 band-pass or the Table 3 Chebyshev.
type analogBlock struct {
	name     string
	build    func() *mna.Circuit
	elements []string
	params   func() []analog.Parameter
	values   map[string]float64 // generated input
	c        *mna.Circuit       // after set-up
	ps       []analog.Parameter
}

func analogInputs(seed int64) []*analogBlock {
	blocks := []*analogBlock{
		{name: "bandpass2", build: circuits.BandPass2, elements: circuits.BandPassElements, params: circuits.BandPassParams},
		{name: "chebyshev5", build: circuits.Chebyshev5, elements: circuits.ChebyshevElements, params: circuits.ChebyshevParams},
	}
	for _, b := range blocks {
		b.values = componentValues(b.build, b.elements, b.name, seed)
	}
	return blocks
}

func (b *analogBlock) setup() error {
	c, err := applyValues(b.build, b.values)
	if err != nil {
		return fmt.Errorf("%s: %w", b.name, err)
	}
	b.c, b.ps = c, b.params()
	return nil
}

func (b *analogBlock) cells() int { return len(b.elements) * len(b.ps) }

func runAnalogED(e *env) (*result, error) {
	blocks := analogInputs(e.seed)
	r := &result{layers: layerSet{}}
	err := r.timeSetup(maxSetupReps, func() error {
		for _, b := range blocks {
			if err := b.setup(); err != nil {
				return err
			}
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}

	var first []*analog.Matrix
	r.timeOps(e.size.Seconds, func() (opOut, error) {
		var out opOut
		var ms []*analog.Matrix
		for _, b := range blocks {
			out.attempted += b.cells()
			m, err := analog.BuildMatrix(b.c, b.elements, b.ps, analog.DefaultEDOptions())
			if err != nil {
				return out, fmt.Errorf("%s: %w", b.name, err)
			}
			ms = append(ms, m)
			out.items += float64(b.cells())
		}
		if first == nil {
			first = ms
		} else if !sameMatrices(first, ms) {
			r.problemf("pass %d built different matrices from pass 1", len(r.ops)+1)
		}
		return out, nil
	})
	for i, m := range first {
		r.checkMatrix(e, blocks[i], m)
	}

	if e.tr != nil {
		var ms []*analog.Matrix
		var st cellStats
		d, delta, err := tracedOp(func() error {
			for _, b := range blocks {
				m, err := tracedMatrix(e.tr.lane("analog-ed/"+b.name), &st, b)
				if err != nil {
					return err
				}
				ms = append(ms, m)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		if first != nil && !sameMatrices(first, ms) {
			r.problemf("traced pass built different matrices from the timed passes")
		}
		r.traced(d, delta, e.tr.spans())
		st.record(r.layers)
		if err := analogProbe(r.layers, blocks[len(blocks)-1].c); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// cellStats counts the ED cells of traced matrices and the AC solves
// they took.
type cellStats struct{ cells, solves int64 }

func (s cellStats) record(layers layerSet) {
	if s.cells > 0 {
		layers.set("analog.ac_solves_per_cell", float64(s.solves)/float64(s.cells))
	}
}

// tracedMatrix replays analog.BuildMatrix as its public per-cell calls,
// one analog.cell span per WorstCaseED, and adds its cells and AC solves
// to st.
func tracedMatrix(lane *obs.Collector, st *cellStats, b *analogBlock) (*analog.Matrix, error) {
	before := obs.Default.Snapshot()
	sp, ctx := lane.StartSpanCtx(context.Background(), "analog.matrix")
	m := &analog.Matrix{Elements: b.elements, Params: b.ps, ED: make([][]float64, len(b.elements))}
	opt := analog.DefaultEDOptions()
	for i, el := range b.elements {
		m.ED[i] = make([]float64, len(b.ps))
		for j, p := range b.ps {
			csp, _ := lane.StartSpanCtx(ctx, "analog.cell")
			ed, err := analog.WorstCaseED(b.c, el, p, b.elements, opt)
			csp.End()
			if err != nil {
				sp.End()
				return nil, fmt.Errorf("%s: ED(%s, %s): %w", b.name, el, p.Name(), err)
			}
			m.ED[i][j] = ed
		}
	}
	sp.End()
	d := obs.Default.Snapshot().Sub(before)
	st.cells += d.Counters["analog.ed.solves"]
	st.solves += d.Counters["mna.solves.ac"]
	return m, nil
}

// printedMatrix renders the matrix as the experiment tables print it:
// one row of cells per parameter, in element order.
func printedMatrix(m *analog.Matrix) map[string][]string {
	out := map[string][]string{}
	for j, p := range m.Params {
		for i := range m.Elements {
			out[p.Name()] = append(out[p.Name()], pct(m.ED[i][j]))
		}
	}
	return out
}

// sameMatrices reports whether two passes produced identical matrices.
func sameMatrices(a, b []*analog.Matrix) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if len(a[k].ED) != len(b[k].ED) {
			return false
		}
		for i := range a[k].ED {
			for j := range a[k].ED[i] {
				if a[k].ED[i][j] != b[k].ED[i][j] {
					return false
				}
			}
		}
	}
	return true
}

// edProbes are the deviations, as multiples of a reported ED, at which
// the gate re-measures the parameter; it must leave its box at one of
// them, that is, within 0.1% of the ED. Where the parameter jumps (a
// cut-off crossing moving between ripple lobes) the ED sits on the jump,
// and near such a jump the measured cut-off flickers between the lobes
// over a band of deviations, so the search can stop on either edge of a
// sliver: a single probe on one side of the ED misses it at some seeds.
var edProbes = []float64{1 - 1e-3, 1 - 1e-4, 1, 1 + 1e-4, 1 + 1e-3}

// checkMatrix is the analog correctness gate. Seed 0 must reproduce the
// golden matrix at printed precision. For every seed each finite ED is
// re-measured independently: deviating the element by ±ED (give or take
// edProbes) must move the parameter out of its tolerance box, and the
// selected test set must observe every element.
func (r *result) checkMatrix(e *env, b *analogBlock, m *analog.Matrix) {
	if e.seed == 0 {
		got := printedMatrix(m)
		if want := e.golden.Matrices[b.name]; !reflect.DeepEqual(got, want) {
			r.problemf("%s: printed ED matrix %v, golden %v", b.name, got, want)
		}
	}
	opt := analog.DefaultEDOptions()
	for i, el := range m.Elements {
		for j, p := range m.Params {
			ed := m.ED[i][j]
			if math.IsInf(ed, 1) {
				continue
			}
			if !(ed > 0) || ed > opt.MaxDev {
				r.problemf("%s: ED(%s, %s) = %g outside (0, %g]", b.name, el, p.Name(), ed, opt.MaxDev)
				continue
			}
			seen := 0.0
			for _, k := range edProbes {
				probe := ed * k
				for _, sign := range []float64{1, -1} {
					if sign < 0 && probe >= 1 {
						continue
					}
					dev, err := analog.ParamDeviation(b.c, el, p, sign*probe)
					if err != nil {
						r.problemf("%s: re-measuring ED(%s, %s): %v", b.name, el, p.Name(), err)
						continue
					}
					seen = math.Max(seen, math.Abs(dev))
				}
			}
			if seen < 0.99*opt.Tol {
				r.problemf("%s: a %s deviation of %s%% moves %s by only %.3g%%", b.name, el, pct(ed), p.Name(), 100*seen)
			}
		}
	}
	if ts := m.SelectTestSet(); !ts.Covered() {
		r.problemf("%s: test set %v leaves an element unobservable", b.name, ts.ParamNames(m))
	}
}
