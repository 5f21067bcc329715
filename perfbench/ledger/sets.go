package ledger

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Def is one metric of the catalog: its name, unit, direction ("lower"
// or "higher" is better) and, for end-to-end metrics, the regression
// bound as a share of the baseline median.
type Def struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// WorkloadDef names a workload and why the benchmark runs it.
type WorkloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Benchmark is the BENCHMARK.json document at the repository root.
type Benchmark struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []WorkloadDef `json:"workloads"`
	EndToEnd   []Def         `json:"end_to_end"`
	PerLayer   []Def         `json:"per_layer"`
}

// LoadBenchmark reads BENCHMARK.json.
func LoadBenchmark(path string) (*Benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Benchmark
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("ledger: parsing %s: %w", path, err)
	}
	return &b, nil
}

// Verdict is the outcome of comparing one metric between two sets.
type Verdict string

const (
	Improved   Verdict = "improved"
	Regressed  Verdict = "regressed"
	Unchanged  Verdict = "unchanged"
	Unresolved Verdict = "unresolved"
)

// Side summarises one set's values of a metric.
type Side struct {
	Values         []float64
	Q1, Median, Q3 float64
}

func side(xs []float64) Side {
	q1, q2, q3 := Quartiles(xs)
	return Side{Values: xs, Q1: q1, Median: q2, Q3: q3}
}

// Row is one workload × metric comparison.
type Row struct {
	Workload string
	Metric   Def
	A, B     Side
	// Delta is (median B − median A) / median A.
	Delta   float64
	Verdict Verdict
}

// Judge compares set a (the parent) with set b (the change) for a metric
// whose better direction and bound are given.
//
//   - improved: every b value beats every a value, or b's median is
//     better than a's by more than either side's quartile spread;
//   - unresolved: otherwise, when either side's own spread exceeds the
//     bound — the runs cannot tell a change within it from noise;
//   - regressed: b's median is worse than a's by more than the bound;
//   - unchanged: everything else.
func Judge(a, b []float64, better string, bound float64) Verdict {
	sa, sb := side(a), side(b)
	worse := relChange(sa.Median, sb.Median)
	if better == "higher" {
		worse = -worse
	}
	if beatsAll(a, b, better) {
		return Improved
	}
	spreadA, spreadB := Spread(a), Spread(b)
	switch {
	case spreadA > bound || spreadB > bound:
		return Unresolved
	case worse > bound:
		return Regressed
	case -worse > math.Max(spreadA, spreadB):
		return Improved
	}
	return Unchanged
}

// relChange is (b − a)/|a|, with a zero baseline mapped to ±Inf (or 0
// when both are zero).
func relChange(a, b float64) float64 {
	if a == 0 {
		switch {
		case b > 0:
			return math.Inf(1)
		case b < 0:
			return math.Inf(-1)
		}
		return 0
	}
	return (b - a) / math.Abs(a)
}

// beatsAll reports whether every value of b is strictly better than
// every value of a.
func beatsAll(a, b []float64, better string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// CompareSets compares every end-to-end metric of every workload that
// both sets ran, in BENCHMARK.json order.
func CompareSets(bench *Benchmark, a, b []*Record) []Row {
	var rows []Row
	for _, w := range bench.Workloads {
		for _, def := range bench.EndToEnd {
			av, bv := values(a, w.Name, def.Name), values(b, w.Name, def.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			sa, sb := side(av), side(bv)
			rows = append(rows, Row{
				Workload: w.Name,
				Metric:   def,
				A:        sa,
				B:        sb,
				Delta:    relChange(sa.Median, sb.Median),
				Verdict:  Judge(av, bv, def.Better, def.Bound),
			})
		}
	}
	return rows
}

func values(recs []*Record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		w := r.Workload(workload)
		if w == nil {
			continue
		}
		if m, ok := w.E2E[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// WriteRows renders the comparison as an aligned table.
func WriteRows(w io.Writer, rows []Row) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tMETRIC\tUNIT\tA MEDIAN [Q1, Q3]\tB MEDIAN [Q1, Q3]\tDELTA\tBOUND\tVERDICT")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n",
			r.Workload, r.Metric.Name, r.Metric.Unit, fmtSide(r.A), fmtSide(r.B),
			100*r.Delta, 100*r.Metric.Bound, r.Verdict)
	}
	return tw.Flush()
}

func fmtSide(s Side) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", s.Median, s.Q1, s.Q3, len(s.Values))
}

// AnyRegressed reports whether any row regressed.
func AnyRegressed(rows []Row) bool {
	for _, r := range rows {
		if r.Verdict == Regressed {
			return true
		}
	}
	return false
}
