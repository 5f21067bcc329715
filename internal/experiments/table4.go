package experiments

import (
	"fmt"
	"time"

	"repro/internal/adc"
	"repro/internal/atpg"
	"repro/internal/faults"
	"repro/internal/iscas"
)

// Table4Row mirrors one row of the paper's Table 4: test generation with
// and without the conversion-block constraints.
type Table4Row struct {
	Circuit        string
	PI, PO         int
	CollapsedFault int

	FreeUntestable int
	FreeVectors    int
	FreeCPU        time.Duration

	ConsUntestable int
	ConsVectors    int
	ConsCPU        time.Duration
}

func init() {
	register("table4", "Table 4 — constrained vs unconstrained ATPG on the benchmark circuits", runTable4)
}

// RunTable4Circuit produces one row of Table 4. Exported for the
// per-circuit root benchmarks.
func RunTable4Circuit(name string) (Table4Row, error) {
	c, err := iscas.Benchmark(name)
	if err != nil {
		return Table4Row{}, err
	}
	st := c.Stats()
	fs := faults.Collapse(c)
	row := Table4Row{Circuit: name, PI: st.Inputs, PO: st.Outputs, CollapsedFault: len(fs)}

	gFree, err := atpg.New(c)
	if err != nil {
		return Table4Row{}, fmt.Errorf("%s: %w", name, err)
	}
	free := gFree.Run(fs)
	row.FreeUntestable = len(free.Untestable)
	row.FreeVectors = len(free.Vectors)
	row.FreeCPU = free.CPU

	gCons, err := atpg.New(c)
	if err != nil {
		return Table4Row{}, fmt.Errorf("%s: %w", name, err)
	}
	flash := adc.NewFlash(ComparatorCount, 0, float64(ComparatorCount+1))
	fc := flash.ConstraintBDD(gCons.Manager(), BoundInputs(c, name))
	gCons.SetConstraint(fc)
	cons := gCons.Run(fs)
	row.ConsUntestable = len(cons.Untestable)
	row.ConsVectors = len(cons.Vectors)
	row.ConsCPU = cons.CPU
	return row, nil
}

func runTable4() (*Result, error) {
	var data []Table4Row
	rows := [][]string{{
		"Circuit", "#PI", "#PO", "Collap.Faults",
		"#Untest(free)", "#Vect(free)", "CPU(free)",
		"#Untest(cons)", "#Vect(cons)", "CPU(cons)",
	}}
	for _, name := range benchmarkOrder {
		row, err := RunTable4Circuit(name)
		if err != nil {
			return nil, err
		}
		data = append(data, row)
		rows = append(rows, []string{
			row.Circuit, itoa(row.PI), itoa(row.PO), itoa(row.CollapsedFault),
			itoa(row.FreeUntestable), itoa(row.FreeVectors), fmtDur(row.FreeCPU),
			itoa(row.ConsUntestable), itoa(row.ConsVectors), fmtDur(row.ConsCPU),
		})
	}
	return &Result{
		ID:    "table4",
		Title: "Table 4: test vector generation with and without constraints",
		Text:  table("Table 4 — ATPG with/without the 15-comparator constraint function", rows),
		Data:  data,
	}, nil
}

var benchmarkOrder = []string{"c432", "c499", "c880", "c1355", "c1908"}

func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}
