package ledger

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestRecordRoundTrip(t *testing.T) {
	rec := &Record{
		SchemaVersion: SchemaVersion,
		GeneratedAt:   time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
		Commit:        "abc123",
		Seed:          7,
		Seconds:       10,
		Traced:        true,
		GoVersion:     "go1.x",
		GOMAXPROCS:    2,
		NProc:         2,
		Workloads: []Workload{{
			Name: "analog-ed", Correct: true, Attempted: 159, Failed: 0,
			E2E:    map[string]Metric{"op_p50_s": {Value: 1.25, Unit: "s", N: 3, Samples: []float64{1.2, 1.25, 1.3}}},
			Layers: map[string]Metric{"mna.ac_solves": {Value: 191884, Unit: "count", N: 1}},
		}},
	}
	path := filepath.Join(t.TempDir(), "rec.json")
	if err := rec.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip changed the record:\n got  %+v\n want %+v", got, rec)
	}
}

func TestLoadRejectsOtherSchemas(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.json")
	if err := os.WriteFile(path, []byte(`{"schema_version": 2, "circuits": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("a v2 snapshot loaded as a v3 record")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 1.2, 9.9, 4.4}, [3]float64{1.675, 3.75, 8.525}},
		{[]float64{5, 7}, [3]float64{4.5, 6.0, 7.5}},
		{[]float64{2.5, 2.5, 2.6, 2.4, 2.55, 2.45, 2.5, 2.7, 2.3, 2.5, 2.52}, [3]float64{2.45, 2.5, 2.55}},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.xs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("Quartiles(%v)[%d] = %v, want %v", c.xs, i, got, c.want[i])
			}
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so sorting matters
		}
		return xs
	}
	cases := []struct {
		n     int
		value float64
		pct   float64
	}{
		{200, 190, 95}, // 200 samples: p95 leaves exactly 10 beyond
		{100, 90, 90},
		{20, 10, 50},
	}
	for _, c := range cases {
		xs := seq(c.n)
		v, p, ok := Tail(xs)
		if !ok || v != c.value || math.Abs(p-c.pct) > 1e-9 {
			t.Errorf("Tail(%d samples) = %v at p%.2f (ok %t), want %v at p%.2f", c.n, v, p, ok, c.value, c.pct)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != 10 {
			t.Errorf("Tail(%d samples) leaves %d samples beyond, want 10", c.n, beyond)
		}
	}
	// Below 20 samples the percentile with ten beyond it is under the
	// median (or missing), so there is no tail to report.
	for _, n := range []int{19, 11, 10, 1, 0} {
		if _, _, ok := Tail(seq(n)); ok {
			t.Errorf("Tail(%d samples) reported a tail", n)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98}
	cases := []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   Verdict
	}{
		{"same runs", steady, steady, "lower", 0.1, Unchanged},
		{"within bound", steady, scale(steady, 1.05), "lower", 0.1, Unchanged},
		{"slower past bound", steady, scale(steady, 1.2), "lower", 0.1, Regressed},
		{"lower throughput past bound", steady, scale(steady, 0.8), "higher", 0.1, Regressed},
		{"every run faster", steady, scale(steady, 0.9), "lower", 0.1, Improved},
		{"higher throughput everywhere", steady, scale(steady, 1.1), "higher", 0.1, Improved},
		{"noisy parent", []float64{80, 120, 90, 110, 100, 130}, steady, "lower", 0.1, Unresolved},
		{"noisy change", steady, []float64{80, 125, 90, 115, 100, 135}, "lower", 0.1, Unresolved},
		{"noisy but every run better", []float64{200, 260, 220, 240}, []float64{100, 130, 110, 120}, "lower", 0.1, Improved},
		{"median gain beyond the spreads", steady, []float64{95, 96, 94, 95, 97, 101}, "lower", 0.1, Improved},
		{"deterministic count grew", []float64{1115, 1115}, []float64{1116, 1116}, "lower", 0, Regressed},
		{"deterministic count equal", []float64{1115, 1115}, []float64{1115, 1115}, "lower", 0, Unchanged},
	}
	for _, c := range cases {
		if got := Judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: Judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareSets(t *testing.T) {
	bench := &Benchmark{
		Workloads: []WorkloadDef{{Name: "w"}, {Name: "absent"}},
		EndToEnd: []Def{
			{Name: "op_p50_s", Unit: "s", Better: "lower", Bound: 0.1},
			{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		},
	}
	rec := func(op, work float64) *Record {
		return &Record{Workloads: []Workload{{Name: "w", E2E: map[string]Metric{
			"op_p50_s":   {Value: op},
			"work_per_s": {Value: work},
		}}}}
	}
	a := []*Record{rec(1.0, 100), rec(1.01, 99), rec(0.99, 101)}
	b := []*Record{rec(1.3, 100), rec(1.31, 100.5), rec(1.29, 99.5)}
	rows := CompareSets(bench, a, b)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want one per metric of the shared workload", len(rows))
	}
	if rows[0].Metric.Name != "op_p50_s" || rows[0].Verdict != Regressed || math.Abs(rows[0].Delta-0.3) > 1e-9 {
		t.Errorf("op_p50_s row = %+v, want regressed by +30%%", rows[0])
	}
	if rows[1].Verdict != Unchanged {
		t.Errorf("work_per_s row = %+v, want unchanged", rows[1])
	}
	if !AnyRegressed(rows) {
		t.Error("AnyRegressed missed the regression")
	}
}
