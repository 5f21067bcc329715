package experiments

import (
	"time"

	"repro/internal/core"
)

// Table5Row mirrors one row of the paper's Table 5: through how many
// comparator positions an analog fault cannot be propagated to a primary
// output of the mixed circuit, per deviation direction.
type Table5Row struct {
	Circuit     string
	PI          int
	PIFromCB    int
	BlockedLow  int // deviation below −x% (comparator reads D)
	BlockedHigh int // deviation above +x% (comparator reads D̄)
	CPU         time.Duration
	Census      *core.PropagationCensus
}

func init() {
	register("table5", "Table 5 — propagation of faulty parameters through the comparators", runTable5)
}

// RunTable5Circuit computes one census row; exported for the benchmarks
// and for Table 7, which restricts the conversion coverage to the
// propagatable comparators.
func RunTable5Circuit(name string) (Table5Row, error) {
	mx, _, _, err := Vehicle("chebyshev", name)
	if err != nil {
		return Table5Row{}, err
	}
	start := time.Now()
	p, err := core.NewPropagator(mx)
	if err != nil {
		return Table5Row{}, err
	}
	census, err := mx.CensusPropagation(p)
	if err != nil {
		return Table5Row{}, err
	}
	return Table5Row{
		Circuit:     name,
		PI:          len(mx.Digital.Inputs()),
		PIFromCB:    ComparatorCount,
		BlockedLow:  len(census.BlockedLow),
		BlockedHigh: len(census.BlockedHigh),
		CPU:         time.Since(start),
		Census:      census,
	}, nil
}

func runTable5() (*Result, error) {
	var data []Table5Row
	rows := [][]string{{
		"Circuit", "#PIs", "#PIs from C.B.",
		"#blocked (dev < -x%)", "#blocked (dev > +x%)", "CPU",
	}}
	for _, name := range benchmarkOrder {
		row, err := RunTable5Circuit(name)
		if err != nil {
			return nil, err
		}
		data = append(data, row)
		rows = append(rows, []string{
			row.Circuit, itoa(row.PI), itoa(row.PIFromCB),
			itoa(row.BlockedLow), itoa(row.BlockedHigh), fmtDur(row.CPU),
		})
	}
	return &Result{
		ID:    "table5",
		Title: "Table 5: propagation of faulty parameters through comparators",
		Text:  table("Table 5 — comparators through which an analog fault cannot be propagated", rows),
		Data:  data,
	}, nil
}
