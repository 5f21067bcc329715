package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/perfbench/ledger"
)

// small is the reduced size every workload runs at in the tests: one
// operation (one daemon job) on the smallest Table 4 circuit. The analog
// blocks are already small and run at full size.
var small = Size{Circuits: []string{"c432"}, Digital: "c432"}

func testEnv(t *testing.T, seed int64, g *goldens) *env {
	t.Helper()
	if g == nil {
		var err error
		if g, err = loadGoldens(); err != nil {
			t.Fatal(err)
		}
	}
	return &env{seed: seed, size: small, golden: g, dir: t.TempDir()}
}

func catalogNames(defs []ledger.Def) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	return out
}

func metricNames(ms map[string]ledger.Metric) map[string]string {
	out := map[string]string{}
	for n, m := range ms {
		out[n] = m.Unit
	}
	return out
}

func defUnits(defs []ledger.Def) map[string]string {
	out := map[string]string{}
	for _, d := range defs {
		out[d.Name] = d.Unit
	}
	return out
}

func TestWorkloadsAtReducedSize(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			entry, err := measure(w, testEnv(t, 0, nil))
			if err != nil {
				t.Fatal(err)
			}
			if !entry.Correct {
				t.Fatalf("gate failed: %v", entry.Problems)
			}
			if entry.Attempted == 0 || entry.Failed != 0 {
				t.Errorf("attempted %d, failed %d", entry.Attempted, entry.Failed)
			}
			if got, want := metricNames(entry.E2E), defUnits(e2eMetrics); !reflect.DeepEqual(got, want) {
				t.Errorf("end-to-end metrics %v, catalog %v", got, want)
			}
			if entry.Layers != nil {
				t.Errorf("an untraced run reported per-layer metrics")
			}
		})
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	w, _ := lookupWorkload("table4-serial")
	e := testEnv(t, 0, nil)
	e.tr = newTracer()
	entry, err := measure(w, e)
	if err != nil {
		t.Fatal(err)
	}
	if !entry.Correct {
		t.Fatalf("gate failed: %v", entry.Problems)
	}
	if got, want := metricNames(entry.Layers), defUnits(layerMetrics); !reflect.DeepEqual(got, want) {
		t.Fatalf("per-layer metrics %v, catalog %v", got, want)
	}
	for _, n := range []string{"bdd.build_s", "bdd.ite_calls", "bdd.ns_per_ite", "atpg.run_s", "faults.sim_calls", "atpg.extract_us_per_fault"} {
		if !(entry.Layers[n].Value > 0) {
			t.Errorf("%s = %v, want a positive measurement on table4-serial", n, entry.Layers[n].Value)
		}
	}
	for _, n := range []string{"mna.ac_solves", "analog.ed_evals", "service.run_ms_p50"} {
		if v := entry.Layers[n].Value; v != 0 {
			t.Errorf("%s = %v on table4-serial, which never calls that layer", n, v)
		}
	}
	var chrome bytes.Buffer
	if err := e.tr.root.Snapshot().WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), "workers1/c432/constrained") {
		t.Errorf("Chrome trace has no lane per configuration")
	}
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := ledger.LoadBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var jsonNames []string
	for _, w := range b.Workloads {
		jsonNames = append(jsonNames, w.Name)
	}
	if !reflect.DeepEqual(names, jsonNames) {
		t.Errorf("workloads %v, BENCHMARK.json %v", names, jsonNames)
	}
	strip := func(defs []ledger.Def) []ledger.Def {
		out := make([]ledger.Def, len(defs))
		for i, d := range defs {
			out[i] = ledger.Def{Name: d.Name, Unit: d.Unit, Better: d.Better}
		}
		return out
	}
	if got, want := strip(b.EndToEnd), e2eMetrics; !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, catalog %v", catalogNames(got), catalogNames(want))
	}
	if got, want := b.PerLayer, layerMetrics; !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer %v, catalog %v", catalogNames(got), catalogNames(want))
	}
	for _, d := range b.EndToEnd {
		if !(d.Bound > 0) {
			t.Errorf("%s has no regression bound", d.Name)
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	e0, e1 := testEnv(t, 0, nil), testEnv(t, 1, nil)
	r0, err := table4Inputs(e0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := table4Inputs(e1)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r0[0].binding, r1[0].binding) {
		t.Errorf("seed 1 kept seed 0's c432 binding")
	}
	if a, b := analogInputs(0), analogInputs(1); reflect.DeepEqual(a[1].values, b[1].values) {
		t.Errorf("seed 1 kept the nominal Chebyshev values")
	}
	n0, err := daemonInputs(e0)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := daemonInputs(e1)
	if err != nil {
		t.Fatal(err)
	}
	if n0[0] == n1[0] || n0[0] == n0[1] {
		t.Errorf("job netlists do not vary with the seed and the job")
	}
	again, err := daemonInputs(testEnv(t, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n1, again) {
		t.Errorf("the same seed generated different netlists")
	}

	// Seed 1 has no goldens; it must still pass every seed-independent check.
	for _, name := range []string{"table4-serial", "analog-ed"} {
		w, _ := lookupWorkload(name)
		entry, err := measure(w, testEnv(t, 1, nil))
		if err != nil {
			t.Fatal(err)
		}
		if !entry.Correct {
			t.Errorf("%s at seed 1: %v", name, entry.Problems)
		}
	}
}

func TestCorruptGoldenFailsTheRun(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	c432 := g.Table4["c432"]
	c432.ConsVectors++
	g.Table4["c432"] = c432
	w, _ := lookupWorkload("table4-serial")
	entry, err := measure(w, testEnv(t, 0, g))
	if err != nil {
		t.Fatal(err)
	}
	if entry.Correct || len(entry.Problems) == 0 || !strings.Contains(entry.Problems[0], "golden") {
		t.Fatalf("a corrupted golden passed: correct=%t problems=%v", entry.Correct, entry.Problems)
	}
}

func TestFinalLineIsTheResultObject(t *testing.T) {
	rec := &ledger.Record{Workloads: []ledger.Workload{{
		Name: "analog-ed", Correct: true, Attempted: 159,
		E2E: map[string]ledger.Metric{"setup_s": {Value: 2e-5, Unit: "s", N: 21}},
	}}}
	var out bytes.Buffer
	if err := printResult(rec, &out); err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	if len(keys) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("result keys %v", keys)
	}
	if want := `{"setup_s":{"value":0.00002,"unit":"s"}}`; string(got["metrics"]) != want {
		t.Errorf("metrics %s, want %s", got["metrics"], want)
	}
}

func TestChildArgs(t *testing.T) {
	got := childArgs([]string{"--workload", "all", "--seed", "3", "--out=rec.json", "--trace-chrome", "t.json", "--trace", "1"}, "analog-ed", "part.json")
	want := []string{"--seed", "3", "--trace-chrome=t.analog-ed.json", "--trace", "1", "--workload", "analog-ed", "--out", "part.json"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("childArgs = %v, want %v", got, want)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []obs.SpanRecord{
		{Name: "atpg.run", ID: 1, StartNs: 0, DurNs: 100},
		{Name: "adc.constraint", ID: 2, ParentID: 1, StartNs: 10, DurNs: 30},
		{Name: "adc.constraint", ID: 3, ParentID: 1, StartNs: 20, DurNs: 30}, // overlaps ID 2
		{Name: "adc.constraint", ID: 4, ParentID: 1, StartNs: 90, DurNs: 20}, // runs past the parent
	}
	self := selfTimes(spans)
	if got, want := self["atpg.run"], 100e-9-(40e-9+10e-9); abs(got-want) > 1e-15 {
		t.Errorf("atpg.run self = %v, want %v", got, want)
	}
	if got, want := self["adc.constraint"], 80e-9; abs(got-want) > 1e-15 {
		t.Errorf("adc.constraint self = %v, want %v", got, want)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestSetsExitsOneOnlyOnRegression(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	doc := `{"workloads":[{"name":"w","why":"x"}],"end_to_end":[{"name":"op_p50_s","unit":"s","better":"lower","bound":0.1}]}`
	if err := os.WriteFile(bench, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, v float64) string {
		path := filepath.Join(dir, name)
		rec := &ledger.Record{SchemaVersion: ledger.SchemaVersion, Workloads: []ledger.Workload{{
			Name: "w", E2E: map[string]ledger.Metric{"op_p50_s": {Value: v, Unit: "s"}},
		}}}
		if err := rec.Write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a1.json", 1.0) + "," + write("a2.json", 1.01) + "," + write("a3.json", 0.99)
	same := write("b1.json", 1.0) + "," + write("b2.json", 1.02) + "," + write("b3.json", 0.99)
	slow := write("c1.json", 1.5) + "," + write("c2.json", 1.52) + "," + write("c3.json", 1.49)
	var out, errOut bytes.Buffer
	if code := realMain([]string{"-sets", "-bench", bench, a, same}, &out, &errOut); code != 0 {
		t.Errorf("unchanged sets exit %d: %s%s", code, out.String(), errOut.String())
	}
	if code := realMain([]string{"-sets", "-bench", bench, a, slow}, &out, &errOut); code != 1 {
		t.Errorf("regressed sets exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("table has no regressed verdict:\n%s", out.String())
	}
	if code := realMain([]string{"-sets", a}, &out, &errOut); code != 2 {
		t.Errorf("one set exits %d, want 2", code)
	}
}
