package service

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/guard"
)

// Quota bounds what one tenant's jobs may consume. Zero fields impose
// nothing; when both the quota and the job spec set a budget, the
// tighter one wins — a tenant can always ask for less than its quota,
// never more.
type Quota struct {
	// MaxActive caps the tenant's concurrently admitted (queued or
	// running) jobs; exceeding it is a 429, not an error.
	MaxActive int `json:"max_active,omitempty"`
	// MaxWorkers caps the shard count one job may request.
	MaxWorkers int `json:"max_workers,omitempty"`
	// BDDNodes caps the per-fault BDD node budget (guard.Limits
	// semantics).
	BDDNodes int `json:"bdd_nodes,omitempty"`
	// RunTimeoutMs / FaultTimeoutMs cap the run and per-fault deadlines.
	RunTimeoutMs   int64 `json:"run_timeout_ms,omitempty"`
	FaultTimeoutMs int64 `json:"fault_timeout_ms,omitempty"`
}

// Quotas is the daemon's tenant-budget table: a default bucket plus
// per-tenant overrides.
type Quotas struct {
	Default Quota            `json:"default"`
	Tenants map[string]Quota `json:"tenants,omitempty"`
}

// For returns the quota bucket the tenant is charged against.
func (q *Quotas) For(tenant string) Quota {
	if q == nil {
		return Quota{}
	}
	if t, ok := q.Tenants[tenant]; ok {
		return t
	}
	return q.Default
}

// LoadQuotas reads a quota table from a JSON file.
func LoadQuotas(path string) (*Quotas, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("service: reading quotas: %w", err)
	}
	var q Quotas
	if err := json.Unmarshal(data, &q); err != nil {
		return nil, fmt.Errorf("service: parsing quotas %s: %w", path, err)
	}
	return &q, nil
}

// minPos returns the tighter of two budgets where 0 means unbounded.
func minPos(a, b int64) int64 {
	switch {
	case a <= 0:
		return b
	case b <= 0:
		return a
	case a < b:
		return a
	default:
		return b
	}
}

// Clamp merges the job spec's requested budgets with the quota into the
// effective guard.Limits and worker count for the run. defWorkers is
// the daemon default for specs that do not ask.
func (q Quota) Clamp(spec JobSpec, defWorkers int) (guard.Limits, int) {
	lim := guard.Limits{
		PerItem:    time.Duration(minPos(spec.FaultTimeoutMs, q.FaultTimeoutMs)) * time.Millisecond,
		Run:        time.Duration(minPos(spec.RunTimeoutMs, q.RunTimeoutMs)) * time.Millisecond,
		BDDNodes:   int(minPos(int64(spec.BDDNodes), int64(q.BDDNodes))),
		MaxRetries: spec.MaxRetries,
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = defWorkers
	}
	if q.MaxWorkers > 0 && workers > q.MaxWorkers {
		workers = q.MaxWorkers
	}
	if workers < 1 {
		workers = 1
	}
	return lim, workers
}
