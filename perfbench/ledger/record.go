// Package ledger is the perf ledger's data layer: the schema-v3 run
// record that perfbench writes, the statistics its metrics are built
// from (medians, Python-compatible quartiles, the tail-percentile rule),
// the BENCHMARK.json catalog, and the comparison of two interleaved sets
// of records with its improved/regressed/unchanged/unresolved verdicts.
//
// Schema v3 succeeds the c880-only v2 snapshot of internal/benchfmt. A v3
// record holds one entry per workload; each entry carries an "e2e"
// section measured on untraced timed operations and, for traced runs, a
// "layers" section measured on one separate traced operation. Every
// metric keeps its sample values and their count.
package ledger

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// SchemaVersion is the record generation this package reads and writes.
const SchemaVersion = 3

// Metric is one measured quantity: the reported value, its unit, and
// the samples it was computed from (N is their count).
type Metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// Workload is the outcome of one workload run.
type Workload struct {
	Name      string `json:"name"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Problems lists every correctness-gate check that failed.
	Problems []string          `json:"problems,omitempty"`
	E2E      map[string]Metric `json:"e2e,omitempty"`
	Layers   map[string]Metric `json:"layers,omitempty"`
}

// Record is one perfbench invocation: the stamps that make it
// comparable and one entry per workload it ran.
type Record struct {
	SchemaVersion int        `json:"schema_version"`
	GeneratedAt   time.Time  `json:"generated_at"`
	Commit        string     `json:"commit"`
	Seed          int64      `json:"seed"`
	Seconds       float64    `json:"seconds"`
	Traced        bool       `json:"traced"`
	GoVersion     string     `json:"go_version"`
	GOMAXPROCS    int        `json:"gomaxprocs"`
	NProc         int        `json:"nproc"`
	Workloads     []Workload `json:"workloads"`
}

// Workload returns the named workload entry, or nil.
func (r *Record) Workload(name string) *Workload {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// Write stores the record as indented JSON.
func (r *Record) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a record and rejects any other schema generation, so a v2
// snapshot is never compared as if it were a ledger entry.
func Load(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("ledger: parsing %s: %w", path, err)
	}
	if r.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("ledger: %s is schema v%d, want v%d", path, r.SchemaVersion, SchemaVersion)
	}
	return &r, nil
}
