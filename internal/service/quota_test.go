package service

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/guard"
)

// TestLoadQuotasAndClamp loads a quota table and clamps job specs
// against it: the tighter of quota and spec wins for every budget, the
// worker count is capped by the quota, and a file written for an older
// daemon (with the retired mna_solves field) still loads.
func TestLoadQuotasAndClamp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "quotas.json")
	doc := `{
  "default": {"max_workers": 2, "bdd_nodes": 5000, "fault_timeout_ms": 100},
  "tenants": {
    "legacy": {"max_active": 3, "mna_solves": 40, "run_timeout_ms": 2000}
  }
}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := LoadQuotas(path)
	if err != nil {
		t.Fatalf("LoadQuotas: %v", err)
	}
	if got := q.For("legacy"); got != (Quota{MaxActive: 3, RunTimeoutMs: 2000}) {
		t.Errorf("legacy tenant quota = %+v", got)
	}

	def := q.For("anyone")
	for _, tc := range []struct {
		name        string
		spec        JobSpec
		defWorkers  int
		wantLimits  guard.Limits
		wantWorkers int
	}{
		{
			name:        "spec asks for nothing",
			defWorkers:  4,
			wantLimits:  guard.Limits{PerItem: 100 * time.Millisecond, BDDNodes: 5000},
			wantWorkers: 2,
		},
		{
			name:        "spec is tighter",
			spec:        JobSpec{Workers: 1, BDDNodes: 800, FaultTimeoutMs: 20, RunTimeoutMs: 500, MaxRetries: 2},
			defWorkers:  4,
			wantLimits:  guard.Limits{PerItem: 20 * time.Millisecond, Run: 500 * time.Millisecond, BDDNodes: 800, MaxRetries: 2},
			wantWorkers: 1,
		},
		{
			name:        "quota is tighter",
			spec:        JobSpec{Workers: 8, BDDNodes: 90000, FaultTimeoutMs: 900},
			defWorkers:  1,
			wantLimits:  guard.Limits{PerItem: 100 * time.Millisecond, BDDNodes: 5000},
			wantWorkers: 2,
		},
	} {
		lim, workers := def.Clamp(tc.spec, tc.defWorkers)
		if lim != tc.wantLimits || workers != tc.wantWorkers {
			t.Errorf("%s: Clamp = %+v, %d workers; want %+v, %d", tc.name, lim, workers, tc.wantLimits, tc.wantWorkers)
		}
	}

	// A quota without a worker cap leaves the daemon default, and never
	// goes below one worker.
	if _, workers := q.For("legacy").Clamp(JobSpec{}, 0); workers != 1 {
		t.Errorf("uncapped quota with no default: %d workers, want 1", workers)
	}
	if _, err := LoadQuotas(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("LoadQuotas of a missing file must fail")
	}
}
