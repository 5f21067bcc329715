package report

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// sampleSnapshot is a deterministic snapshot with every event kind the
// builder understands.
func sampleSnapshot() *obs.Snapshot {
	return &obs.Snapshot{
		Counters: map[string]int64{
			"bdd.nodes.alloc": 5200,
			"mna.solves.ac":   1200,
			"mna.solves.dc":   40,
		},
		Gauges:  map[string]int64{"bdd.nodes.peak": 310},
		Derived: map[string]float64{"bdd.ite.hit_rate": 0.75, "bdd.unique.hit_rate": 0.5},
		Events: []obs.Event{
			{Kind: "fault", Name: "l3 s-a-0", TimeNs: 100, DurNs: 9000,
				Attrs: []obs.Attr{obs.Str("outcome", "tested"), obs.Int("product_nodes", 11), obs.Str("vector", "0011")}},
			{Kind: "fault", Name: "l6 s-a-1", TimeNs: 200, DurNs: 22000,
				Attrs: []obs.Attr{obs.Str("outcome", "tested"), obs.Int("product_nodes", 4), obs.Str("vector", "1110")}},
			{Kind: "fault", Name: "l0 s-a-1", TimeNs: 300, DurNs: 5000,
				Attrs: []obs.Attr{obs.Str("outcome", "constrained-out")}},
			{Kind: "fault", Name: "l9 s-a-0", TimeNs: 400, DurNs: 3000,
				Attrs: []obs.Attr{obs.Str("outcome", "no-difference")}},
			{Kind: "fault", Name: "l4 s-a-0", TimeNs: 500,
				Attrs: []obs.Attr{obs.Str("outcome", "dropped"), obs.Str("by", "l3 s-a-0")}},
			{Kind: "element", Name: "R1", TimeNs: 600, DurNs: 100000,
				Attrs: []obs.Attr{obs.Str("outcome", "testable"), obs.Float("ed", 0.101),
					obs.Str("param", "A1"), obs.Str("stim", "sine(1.5V, 1kHz)"), obs.Int("comparator", 2)}},
			{Kind: "element", Name: "C2", TimeNs: 700, DurNs: 80000,
				Attrs: []obs.Attr{obs.Str("outcome", "untestable"), obs.Str("reason", "unpropagatable")}},
			{Kind: "comparator", Name: "c1", TimeNs: 800,
				Attrs: []obs.Attr{obs.Int("comparator", 1), obs.Bool("blocked_low", false), obs.Bool("blocked_high", true)}},
			{Kind: "comparator", Name: "c2", TimeNs: 900,
				Attrs: []obs.Attr{obs.Int("comparator", 2), obs.Bool("blocked_low", false), obs.Bool("blocked_high", false)}},
		},
	}
}

func buildFixed(t *testing.T) *Report {
	t.Helper()
	s := sampleSnapshot()
	s.TakenAt = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	return Build(s)
}

func TestReportJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixed(t).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.golden.json", buf.Bytes())
}

func TestReportTextGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixed(t).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.golden.txt", buf.Bytes())
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (rerun with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from golden %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestReportSchema pins the JSON schema consumers rely on: section keys,
// the outcome tallies and the reason histogram.
func TestReportSchema(t *testing.T) {
	r := buildFixed(t)
	if r.Faults == nil || r.Elements == nil || r.Comparators == nil {
		t.Fatalf("missing sections: %+v", r)
	}
	f := r.Faults
	if f.Total != 5 || f.Tested != 2 || f.Dropped != 1 || f.Untestable != 2 {
		t.Errorf("fault tallies wrong: %+v", f)
	}
	if f.Reasons["constrained-out"] != 1 || f.Reasons["no-difference"] != 1 {
		t.Errorf("reason histogram wrong: %v", f.Reasons)
	}
	if f.Coverage != 1 {
		t.Errorf("coverage = %g, want 1 (3 detected of 3 detectable)", f.Coverage)
	}
	if len(f.Slowest) == 0 || f.Slowest[0].Name != "l6 s-a-1" {
		t.Errorf("slowest list not sorted by latency: %+v", f.Slowest)
	}
	if r.Elements.Testable != 1 || r.Elements.Reasons["unpropagatable"] != 1 {
		t.Errorf("element section wrong: %+v", r.Elements)
	}
	c := r.Comparators
	if c.Probed != 2 || len(c.BlockedHigh) != 1 || c.BlockedHigh[0] != 1 || len(c.BlockedLow) != 0 {
		t.Errorf("comparator section wrong: %+v", c)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	for _, key := range []string{"faults", "elements", "comparators", "snapshot"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("report JSON missing %q", key)
		}
	}
	for _, sub := range []string{"total", "tested", "untestable", "untestable_reasons", "coverage", "slowest"} {
		if !strings.Contains(buf.String(), `"`+sub+`"`) {
			t.Errorf("fault section JSON missing %q", sub)
		}
	}
}

// TestEmptySnapshot verifies a snapshot with no events yields a report
// with no sections rather than zero-filled noise.
func TestEmptySnapshot(t *testing.T) {
	r := Build(&obs.Snapshot{})
	if r.Faults != nil || r.Elements != nil || r.Comparators != nil {
		t.Errorf("empty snapshot grew sections: %+v", r)
	}
}

// TestWriteTextReadsSnapshot checks that the text rendering takes its
// robustness and truncation lines from the record's snapshot.
func TestWriteTextReadsSnapshot(t *testing.T) {
	s := &obs.Snapshot{
		Counters:      map[string]int64{"guard.retries": 3, "guard.panics": 2, "bdd.budget.trips": 1},
		SpansDropped:  4,
		EventsDropped: 5,
	}
	var buf bytes.Buffer
	if err := Build(s).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"robustness: 3 retries, 2 recovered panics, 1 BDD budget trips",
		"trace truncated — 4 spans and 5 events dropped",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("text report lacks %q:\n%s", want, buf.String())
		}
	}
}

// TestElementBound checks that an element event's bound attribute
// reaches its record and its text line, so the two tests of one element
// read apart; the golden fixture's events carry no bound and render as
// before.
func TestElementBound(t *testing.T) {
	s := &obs.Snapshot{Events: []obs.Event{
		{Kind: "element", Name: "Rd", DurNs: 1000,
			Attrs: []obs.Attr{obs.Str("outcome", "testable"), obs.Str("bound", "upper"), obs.Float("ed", 0.1),
				obs.Str("param", "A1"), obs.Int("comparator", 1)}},
		{Kind: "element", Name: "Rd", DurNs: 1000,
			Attrs: []obs.Attr{obs.Str("outcome", "untestable"), obs.Str("bound", "lower"), obs.Str("reason", "unpropagatable")}},
	}}
	r := Build(s)
	if r.Elements == nil || len(r.Elements.Elements) != 2 {
		t.Fatalf("elements section = %+v", r.Elements)
	}
	for i, want := range []string{"upper", "lower"} {
		if got := r.Elements.Elements[i].Bound; got != want {
			t.Errorf("element %d bound = %q, want %q", i, got, want)
		}
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Rd upper ED 10.0%", "Rd lower NOT TESTABLE (unpropagatable)"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("text report lacks %q:\n%s", want, buf.String())
		}
	}
	if golden := buildFixed(t).Elements.Elements[0]; golden.Bound != "" {
		t.Errorf("golden fixture's element gained bound %q", golden.Bound)
	}
}
