package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

// golden.json pins the seed-0 outputs the gate compares against: the
// Table 4 untestable and vector counts of EXPERIMENTS.md (and the
// workers=2 vector counts, which legitimately differ), the Equation 1
// and Table 3 ED matrices at printed precision, the compiled mixed
// program's section sizes, and the canonical c432 job.
//
//go:embed golden.json
var goldenJSON []byte

type table4Golden struct {
	FreeUntestable int `json:"free_untestable"`
	FreeVectors    int `json:"free_vectors"`
	ConsUntestable int `json:"cons_untestable"`
	ConsVectors    int `json:"cons_vectors"`
}

type mixedGolden struct {
	AnalogTests     int `json:"analog_tests"`
	ConversionTests int `json:"conversion_tests"`
	Vectors         int `json:"vectors"`
}

type jobGolden struct {
	Total      int `json:"total"`
	Untestable int `json:"untestable"`
}

type goldens struct {
	Table4        map[string]table4Golden `json:"table4"`
	Table4Sharded map[string]table4Golden `json:"table4_sharded"`
	// Matrices maps an analog block to its ED matrix as printed: one row
	// of cells per parameter, in element order.
	Matrices map[string]map[string][]string `json:"matrices"`
	Mixed    map[string]mixedGolden         `json:"mixed"`
	Job0     jobGolden                      `json:"daemon_job0"`
}

func loadGoldens() (*goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// pct renders a fractional deviation the way the experiment tables do:
// a dash for unobservable, three significant digits otherwise.
func pct(frac float64) string {
	if math.IsInf(frac, 1) {
		return "—"
	}
	v := frac * 100
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
