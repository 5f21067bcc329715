package experiments

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/adc"
	"repro/internal/analog"
	"repro/internal/circuits"
	"repro/internal/core"
)

// Table3Row is one element of the fifth-order Chebyshev filter: the
// parameter that observes it best, the worst-case deviation with direct
// access to the analog block (case 1), and the outcome when the filter is
// embedded in the mixed circuit (case 2) — per the paper, the accuracy is
// unchanged whenever the composite value propagates.
type Table3Row struct {
	Param       string
	Element     string
	ED          float64 // case 1 worst-case deviation (fraction)
	Case2OK     bool    // activated and propagated through the digital block
	Case2ED     float64 // +Inf when not testable in the mixed circuit
	Comparator  int     // comparator used in case 2
	DigitalOuts []string
}

// MarshalJSON encodes the row with an unobservable ED as null, since
// JSON has no +Inf.
func (r Table3Row) MarshalJSON() ([]byte, error) {
	type plain Table3Row
	return json.Marshal(struct {
		plain
		ED, Case2ED *float64
	}{plain(r), analog.NullIfUnobservable(r.ED), analog.NullIfUnobservable(r.Case2ED)})
}

// Table3Data is the full experiment payload.
type Table3Data struct {
	Rows    []Table3Row
	Matrix  *analog.Matrix
	TestSet *analog.TestSet
	Digital string // digital block used for case 2
}

func init() {
	register("table3", "Table 3 — Chebyshev element deviations, standalone vs embedded", runTable3)
}

// table3Digital is the digital block used for the embedded case. The
// paper's Example 3 pairs the Chebyshev filter with ISCAS85 benchmark
// circuits; c880 is the one whose census blocks no comparator.
const table3Digital = "c880"

func runTable3() (*Result, error) {
	cheb := circuits.Chebyshev5()
	params := circuits.ChebyshevParams()
	matrix, err := analog.BuildMatrix(cheb, circuits.ChebyshevElements, params, analog.DefaultEDOptions())
	if err != nil {
		return nil, err
	}
	ts := matrix.SelectTestSet()

	dig, err := benchmarkCircuit(table3Digital)
	if err != nil {
		return nil, err
	}
	flash := adc.NewFlash(ComparatorCount, 0, float64(ComparatorCount+1))
	mx, err := core.NewMixed(circuits.Chebyshev5(), circuits.ChebyshevOutput, flash, dig, BoundInputs(dig, table3Digital))
	if err != nil {
		return nil, err
	}
	prop, err := core.NewPropagator(mx)
	if err != nil {
		return nil, err
	}

	data := Table3Data{Matrix: matrix, TestSet: ts, Digital: table3Digital}
	for _, elem := range circuits.ChebyshevElements {
		j := matrix.BestParamFor(elem)
		row := Table3Row{Element: elem, ED: math.Inf(1)}
		if j >= 0 {
			row.Param = matrix.Params[j].Name()
			row.ED, _ = matrix.Lookup(elem, row.Param)
		}
		verdict, err := mx.TestAnalogElement(prop, matrix, elem, core.UpperBound)
		if err != nil {
			return nil, fmt.Errorf("element %s: %w", elem, err)
		}
		if verdict.Testable {
			row.Case2OK = true
			row.Case2ED = verdict.ED
			row.Comparator = verdict.Act.Target
			row.DigitalOuts = verdict.Prop.Outputs
		} else {
			row.Case2ED = math.Inf(1)
		}
		data.Rows = append(data.Rows, row)
	}

	rows := [][]string{{"T", "E", "ED[%] case 1", "ED[%] case 2", "via Vt", "observed at"}}
	for _, r := range data.Rows {
		obs := "—"
		if len(r.DigitalOuts) > 0 {
			obs = r.DigitalOuts[0]
			if len(r.DigitalOuts) > 1 {
				obs += fmt.Sprintf(" (+%d more)", len(r.DigitalOuts)-1)
			}
		}
		via := "—"
		if r.Comparator > 0 {
			via = itoa(r.Comparator)
		}
		rows = append(rows, []string{r.Param, r.Element, pct(r.ED), pct(r.Case2ED), via, obs})
	}
	return &Result{
		ID:    "table3",
		Title: "Table 3: fifth-order Chebyshev element deviations, alone vs in the mixed circuit",
		Text:  table("Table 3 — case 1 (analog block alone) vs case 2 (embedded, via "+table3Digital+")", rows),
		Data:  data,
	}, nil
}
