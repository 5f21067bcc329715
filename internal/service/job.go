package service

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"repro/internal/atpg"
	"repro/internal/experiments"
	"repro/internal/logic"
)

// JobState is the lifecycle state of one submitted job.
//
//	queued ──► running ──► done
//	  ▲           │  └───► failed
//	  │ (retry/   └──────► canceled
//	  │  crash recovery/
//	  └─  drain)
//
// A crashed or drained daemon re-queues its running jobs on restart, so
// "running" in a freshly opened journal means "was running when the
// previous process died".
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobSpec is what a client submits: a workload (a built-in mixed
// vehicle, or an inline .bench netlist) plus a profile (worker count,
// random phase, per-fault budgets). The zero values defer to daemon
// defaults and tenant quotas.
type JobSpec struct {
	// Circuit selects the analog vehicle: "bandpass" or "chebyshev".
	// Empty with Bench set means an unconstrained digital-only job.
	Circuit string `json:"circuit,omitempty"`
	// Digital selects the digital block: "fig3" for bandpass, an ISCAS
	// benchmark name for chebyshev (default c880).
	Digital string `json:"digital,omitempty"`
	// Bench is an inline netlist in ISCAS .bench format; the job runs
	// unconstrained stuck-at ATPG over it.
	Bench string `json:"bench,omitempty"`
	// Tenant names the quota bucket the job is charged to.
	Tenant string `json:"tenant,omitempty"`
	// Workers is the shard count for the parallel runtime (daemon
	// default when 0; capped by the tenant quota).
	Workers int `json:"workers,omitempty"`
	// RandomVectors prepends a random phase of this many vectors.
	RandomVectors int `json:"random_vectors,omitempty"`
	// RandomSeed seeds the random phase (so results are reproducible).
	RandomSeed int64 `json:"random_seed,omitempty"`
	// RunTimeoutMs / FaultTimeoutMs / BDDNodes / MaxRetries bound the
	// run per the guard layer; tenant quotas clamp them.
	RunTimeoutMs   int64 `json:"run_timeout_ms,omitempty"`
	FaultTimeoutMs int64 `json:"fault_timeout_ms,omitempty"`
	BDDNodes       int   `json:"bdd_nodes,omitempty"`
	MaxRetries     int   `json:"max_retries,omitempty"`
}

// Validate normalizes the spec (filling vehicle defaults) and rejects
// invalid submissions. Validation failures are permanent: the daemon
// answers 400 and never admits the job.
func (s *JobSpec) Validate() error {
	if s.Bench != "" {
		if s.Circuit != "" || s.Digital != "" {
			return fmt.Errorf("an inline bench netlist excludes circuit/digital")
		}
		// Parse at admission so a malformed netlist is a permanent 400,
		// not a runtime failure the retry machinery wastes attempts on.
		if _, err := logic.ParseBench("inline", strings.NewReader(s.Bench)); err != nil {
			return err
		}
		return nil
	}
	if s.Circuit == "" {
		s.Circuit = "chebyshev"
	}
	mx, _, _, err := experiments.Vehicle(s.Circuit, s.Digital)
	if err != nil {
		return err
	}
	s.Digital = mx.Digital.Name
	if s.Workers < 0 || s.RandomVectors < 0 || s.BDDNodes < 0 || s.MaxRetries < 0 ||
		s.RunTimeoutMs < 0 || s.FaultTimeoutMs < 0 {
		return fmt.Errorf("negative budgets are invalid")
	}
	return nil
}

// Scope is the checkpoint scope string for the workload, so a stale
// per-job checkpoint recorded for a different workload is rejected
// instead of silently misapplied. Worker count is deliberately not part
// of the scope: checkpoints re-partition on resume at any worker count.
func (s *JobSpec) Scope() string {
	if s.Bench != "" {
		h := fnv.New64a()
		h.Write([]byte(s.Bench))
		return fmt.Sprintf("msatpgd:bench:%x", h.Sum64())
	}
	return fmt.Sprintf("msatpgd:%s:%s", s.Circuit, s.Digital)
}

// Job is one unit of daemon work: the persisted record in the durable
// journal. Everything needed to resume after a crash lives here — the
// spec, the lifecycle state, the retry bookkeeping and the SSE event
// high-water mark; per-fault progress lives in the job's checkpoint
// file next to the journal.
type Job struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`

	State    JobState `json:"state"`
	Error    string   `json:"error,omitempty"`
	Degraded bool     `json:"degraded,omitempty"`

	// Attempts counts started executions; NextRetryNs is the wall-clock
	// instant (UnixNano) before which a retrying job must not restart —
	// the exponential-backoff gate.
	Attempts    int   `json:"attempts,omitempty"`
	NextRetryNs int64 `json:"next_retry_ns,omitempty"`

	SubmittedNs int64 `json:"submitted_ns"`
	StartedNs   int64 `json:"started_ns,omitempty"`
	FinishedNs  int64 `json:"finished_ns,omitempty"`

	// EventSeq is the job's persisted SSE high-water mark: the number
	// of wire-visible event ids handed out across every process
	// incarnation so far. A restarted daemon streams the job's new
	// events from this base, so reconnecting clients get a correct
	// "dropped" gap frame instead of silently restarting ids.
	EventSeq int64 `json:"event_seq,omitempty"`

	// Resumed counts faults restored from the checkpoint on the most
	// recent attempt — how much work the crash did not cost.
	Resumed int `json:"resumed,omitempty"`

	// Result is the canonical classification of a completed run.
	Result *atpg.Classification `json:"result,omitempty"`
}

// clone returns a deep-enough copy for handing across the API boundary
// without sharing mutable state with the scheduler.
func (j *Job) clone() *Job {
	cp := *j
	if j.Result != nil {
		r := *j.Result
		cp.Result = &r
	}
	return &cp
}

// nowNs is the journal's time base.
func nowNs() int64 { return time.Now().UnixNano() }
