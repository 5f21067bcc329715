package experiments

import (
	"repro/internal/analog"
	"repro/internal/circuits"
)

// Eq1Data is the structured payload of the Example 1 reproduction: the
// worst-case element-deviation matrix of the second-order band-pass and
// the selected parameter test set.
type Eq1Data struct {
	Matrix   *analog.Matrix
	TestSet  *analog.TestSet
	SetNames []string
}

func init() {
	register("eq1", "Equation 1 / Example 1 — band-pass worst-case element deviations", runEq1)
}

func runEq1() (*Result, error) {
	c := circuits.BandPass2()
	params := circuits.BandPassParams()
	matrix, err := analog.BuildMatrix(c, circuits.BandPassElements, params, analog.DefaultEDOptions())
	if err != nil {
		return nil, err
	}
	ts := matrix.SelectTestSet()

	rows := [][]string{append([]string{"T \\ E"}, matrix.Elements...)}
	for j, p := range matrix.Params {
		row := []string{p.Name()}
		for i := range matrix.Elements {
			row = append(row, pct(matrix.ED[i][j]))
		}
		rows = append(rows, row)
	}
	setRow := []string{"test set"}
	setRow = append(setRow, ts.ParamNames(matrix)...)
	rows = append(rows, setRow)
	edRow := []string{"element ED"}
	for _, e := range matrix.Elements {
		edRow = append(edRow, e+"="+pct(ts.ElementED[e]))
	}
	rows = append(rows, edRow)

	return &Result{
		ID:    "eq1",
		Title: "Equation 1: ED[%] per element × parameter, 2nd-order band-pass",
		Text:  table("Equation 1 — worst-case deviations (percent; — = unobservable)", rows),
		Data: Eq1Data{
			Matrix:   matrix,
			TestSet:  ts,
			SetNames: ts.ParamNames(matrix),
		},
	}, nil
}
