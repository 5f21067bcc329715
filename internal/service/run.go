package service

import (
	"context"
	"strings"

	"repro/internal/atpg"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/guard"
	"repro/internal/logic"
	"repro/internal/obs"
)

// workload is the executable form of a validated JobSpec: the digital
// circuit, its collapsed fault list and the per-shard constraint setup
// (nil for unconstrained inline netlists).
type workload struct {
	circuit *logic.Circuit
	faults  []faults.Fault
	setup   func(*atpg.Generator) error
}

// buildWorkload constructs the workload for one job. Construction is
// deterministic — a resumed job rebuilds an identical workload, which is
// what keeps its checkpoint scope valid across restarts.
func buildWorkload(spec JobSpec) (*workload, error) {
	if spec.Bench != "" {
		c, err := logic.ParseBench("inline", strings.NewReader(spec.Bench))
		if err != nil {
			return nil, err
		}
		return &workload{circuit: c, faults: faults.Collapse(c)}, nil
	}
	mx, _, _, err := experiments.Vehicle(spec.Circuit, spec.Digital)
	if err != nil {
		return nil, err
	}
	return &workload{
		circuit: mx.Digital,
		faults:  faults.Collapse(mx.Digital),
		// Shards own independent BDD managers, so the conversion
		// constraint Fc is rebuilt on each shard's manager; mx itself is
		// only read.
		setup: func(g *atpg.Generator) error {
			g.SetConstraint(mx.Conv.ConstraintBDD(g.Manager(), mx.Binding))
			return nil
		},
	}, nil
}

// run executes the workload under the sharded parallel runtime, on the
// job's own collector lane and checkpoint.
func (w *workload) run(ctx context.Context, col *obs.Collector, ckpt *guard.Checkpoint, lim guard.Limits, workers int, spec JobSpec) (*atpg.Result, error) {
	opts := []atpg.RunOption{
		atpg.WithContext(ctx),
		atpg.WithLimits(lim),
		atpg.WithWorkers(workers),
		atpg.WithCheckpoint(ckpt),
		// The job collector is the run's root: each fault event lands on
		// it as the coordinator commits it, so the job's SSE stream and
		// the sync loop's event high-water mark move while the job runs.
		atpg.WithShardOptions(atpg.WithCollector(col)),
	}
	if w.setup != nil {
		opts = append(opts, atpg.WithShardSetup(w.setup))
	}
	if spec.RandomVectors > 0 {
		opts = append(opts, atpg.WithRandomPhase(spec.RandomVectors, spec.RandomSeed))
	}
	return atpg.RunParallel(w.circuit, w.faults, opts...)
}
