package analog

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/mna"
	"repro/internal/obs"
)

// Matrix is the element↔parameter worst-case deviation table of
// Equation 1: ED[i][j] is the smallest deviation of Elements[i] observable
// by measuring Params[j] (a fraction; +Inf = unobservable).
type Matrix struct {
	Elements []string
	Params   []Parameter
	ED       [][]float64
}

// BuildMatrix computes the full worst-case deviation matrix for the
// given elements and parameters. Each cell is WorstCaseED(c, element,
// parameter, elements, opt), but the cells of a column share the
// parameter's nominal value and masking sensitivities, so the matrix
// measures each T₀ once and each S_e(p) once. Each element row leaves
// one "analog.ed" event carrying its best (smallest) worst-case
// deviation and the parameter achieving it — the per-element record of
// Equation 1.
func BuildMatrix(c *mna.Circuit, elements []string, params []Parameter, opt EDOptions) (*Matrix, error) {
	defer obs.Default.StartSpan("analog.build_matrix").End()
	m := &Matrix{
		Elements: append([]string(nil), elements...),
		Params:   append([]Parameter(nil), params...),
		ED:       make([][]float64, len(elements)),
	}
	cols := make([]*column, len(params))
	for j, p := range params {
		cols[j] = newColumn(c, p, opt.Step)
	}
	for i, e := range elements {
		start := time.Now()
		m.ED[i] = make([]float64, len(params))
		for j, p := range params {
			ed, err := cols[j].worstCaseED(e, elements, opt)
			if err != nil {
				return nil, fmt.Errorf("analog: ED(%s, %s): %w", e, p.Name(), err)
			}
			m.ED[i][j] = ed
		}
		if best := m.BestParamFor(e); best >= 0 {
			obs.Default.EventSince("analog.ed", e, start,
				obs.Float("ed", m.ED[i][best]),
				obs.Str("param", params[best].Name()))
		} else {
			obs.Default.EventSince("analog.ed", e, start,
				obs.Str("outcome", "unobservable"))
		}
	}
	return m, nil
}

// MarshalJSON encodes the matrix with every unobservable ED as null,
// since JSON has no +Inf.
func (m Matrix) MarshalJSON() ([]byte, error) {
	type plain Matrix
	ed := make([][]*float64, len(m.ED))
	for i, row := range m.ED {
		ed[i] = make([]*float64, len(row))
		for j, v := range row {
			ed[i][j] = NullIfUnobservable(v)
		}
	}
	return json.Marshal(struct {
		plain
		ED [][]*float64
	}{plain(m), ed})
}

// NullIfUnobservable returns ed as encoding/json can carry it: nil,
// encoded as null, for an unobservable deviation (+Inf has no JSON
// form), and ed itself otherwise. The marshalers of every payload that
// holds EDs use it.
func NullIfUnobservable(ed float64) *float64 {
	if Unobservable(ed) {
		return nil
	}
	return &ed
}

// ParamNames returns the parameter labels in column order.
func (m *Matrix) ParamNames() []string {
	names := make([]string, len(m.Params))
	for j, p := range m.Params {
		names[j] = p.Name()
	}
	return names
}

// Lookup returns the ED for a named element/parameter pair.
func (m *Matrix) Lookup(elem, param string) (float64, bool) {
	i := indexOf(m.Elements, elem)
	j := indexOf(m.ParamNames(), param)
	if i < 0 || j < 0 {
		return 0, false
	}
	return m.ED[i][j], true
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// BestParamFor returns the column index of the parameter that observes
// the element at the smallest deviation (the "most sensitive parameter"
// the mixed flow activates first), or -1 if no parameter observes it.
func (m *Matrix) BestParamFor(elem string) int {
	i := indexOf(m.Elements, elem)
	if i < 0 {
		return -1
	}
	best, bestED := -1, math.Inf(1)
	for j, ed := range m.ED[i] {
		if ed < bestED {
			best, bestED = j, ed
		}
	}
	if math.IsInf(bestED, 1) {
		return -1
	}
	return best
}

// ParamsFor returns the parameter column indices that observe the element,
// ordered from most to least sensitive — the paper's fallback order when a
// fault cannot be propagated via the first choice.
func (m *Matrix) ParamsFor(elem string) []int {
	i := indexOf(m.Elements, elem)
	if i < 0 {
		return nil
	}
	var idx []int
	for j, ed := range m.ED[i] {
		if !Unobservable(ed) {
			idx = append(idx, j)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return m.ED[i][idx[a]] < m.ED[i][idx[b]] })
	return idx
}

// TestSet is the outcome of parameter selection: the chosen parameter
// columns and, per element, the guaranteed-detectable deviation using only
// those parameters.
type TestSet struct {
	ParamIdx  []int
	ElementED map[string]float64
}

// MarshalJSON encodes the test set with every unobservable element ED
// as null, since JSON has no +Inf.
func (ts TestSet) MarshalJSON() ([]byte, error) {
	type plain TestSet
	ed := make(map[string]*float64, len(ts.ElementED))
	for e, v := range ts.ElementED {
		ed[e] = NullIfUnobservable(v)
	}
	return json.Marshal(struct {
		plain
		ElementED map[string]*float64
	}{plain(ts), ed})
}

// Covered reports whether every element has a finite ED under the set.
func (ts *TestSet) Covered() bool {
	for _, ed := range ts.ElementED {
		if Unobservable(ed) {
			return false
		}
	}
	return true
}

// ParamNames resolves the chosen columns against the matrix.
func (ts *TestSet) ParamNames(m *Matrix) []string {
	names := make([]string, len(ts.ParamIdx))
	for i, j := range ts.ParamIdx {
		names[i] = m.Params[j].Name()
	}
	return names
}

// coverSlack defines "good enough" coverage during parameter selection: a
// parameter covers an element when its ED is within this factor of the
// element's best achievable ED over all parameters. Without the slack a
// single broad parameter (one that sees every element, however poorly)
// would always win alone; with it the selection adds sharper parameters —
// which is how {A1, A2} emerges for the band-pass of Example 1, A1
// pinning Rg and Rd at ≈10% even though A2 already "sees" them.
const coverSlack = 2.5

// SelectTestSet solves the bipartite coverage problem greedily: it
// repeatedly picks the parameter that newly covers the most elements
// (coverage meaning an ED within coverSlack of the element's best; ties
// broken by the smaller sum of EDs over newly covered elements), until
// every coverable element is covered.
func (m *Matrix) SelectTestSet() *TestSet {
	bestED := make([]float64, len(m.Elements))
	for i := range m.Elements {
		bestED[i] = math.Inf(1)
		for j := range m.Params {
			if m.ED[i][j] < bestED[i] {
				bestED[i] = m.ED[i][j]
			}
		}
	}
	covers := func(i, j int) bool {
		return !Unobservable(m.ED[i][j]) && m.ED[i][j] <= coverSlack*bestED[i]
	}
	covered := map[string]bool{}
	coverable := map[string]bool{}
	for i, e := range m.Elements {
		if !Unobservable(bestED[i]) {
			coverable[e] = true
		}
	}
	var chosen []int
	used := map[int]bool{}
	for len(covered) < len(coverable) {
		bestJ, bestNew, bestSum := -1, 0, math.Inf(1)
		for j := range m.Params {
			if used[j] {
				continue
			}
			n, sum := 0, 0.0
			for i, e := range m.Elements {
				if covered[e] || !covers(i, j) {
					continue
				}
				n++
				sum += m.ED[i][j]
			}
			if n > bestNew || (n == bestNew && n > 0 && sum < bestSum) {
				bestJ, bestNew, bestSum = j, n, sum
			}
		}
		if bestJ < 0 {
			break
		}
		used[bestJ] = true
		chosen = append(chosen, bestJ)
		for i, e := range m.Elements {
			if covers(i, bestJ) {
				covered[e] = true
			}
		}
	}
	sort.Ints(chosen)
	ts := &TestSet{ParamIdx: chosen, ElementED: map[string]float64{}}
	for i, e := range m.Elements {
		best := math.Inf(1)
		for _, j := range chosen {
			if m.ED[i][j] < best {
				best = m.ED[i][j]
			}
		}
		ts.ElementED[e] = best
	}
	return ts
}
