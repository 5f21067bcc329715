package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/adc"
	"repro/internal/atpg"
	"repro/internal/benchfmt"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/obs"
)

// obsCircuits is the default -obs workload: the Table 4 benchmark set.
var obsCircuits = []string{"c432", "c499", "c880", "c1355", "c1908"}

func benchRun(res *atpg.Result) *benchfmt.Run {
	r := &benchfmt.Run{
		CPUNs:      res.CPU.Nanoseconds(),
		Vectors:    len(res.Vectors),
		Untestable: len(res.Untestable),
	}
	if s := res.Stats; s != nil {
		// Embed the snapshot without its per-fault event log: the
		// counters, histograms and spans carry the drill-down value,
		// and dropping events keeps committed baselines diff-friendly.
		trimmed := *s
		trimmed.Events = nil
		trimmed.EventsDropped = 0
		r.Snapshot = &trimmed
	}
	if secs := res.CPU.Seconds(); secs > 0 {
		r.VectorsPerSec = float64(len(res.Vectors)) / secs
	}
	if s := res.Stats; s != nil {
		r.ITEHitRate = s.Derived["bdd.ite.hit_rate"]
		r.UniqueHitRate = s.Derived["bdd.unique.hit_rate"]
		r.PeakNodes = s.Gauges["bdd.nodes.peak"]
		r.NodesAlloc = s.Counters["bdd.nodes.alloc"]
		if h, ok := s.Histograms["atpg.fault.latency_ns"]; ok {
			r.FaultP50Ns = h.Quantile(0.5)
			r.FaultP99Ns = h.Quantile(0.99)
		}
		// Shard figures; a workers=1 run reports its one shard too.
		r.ShardWorkers = s.Gauges["atpg.shard.workers"]
		r.ShardVectorsExchanged = s.Counters["atpg.shard.vectors_exchanged"]
		r.ShardAborts = s.Counters["atpg.shard.aborts"]
	}
	return r
}

// emitObs runs free and constrained ATPG on each benchmark circuit, each
// under a fresh collector so the embedded snapshots are per-configuration,
// and writes the report as JSON in the benchfmt schema. With traceChrome
// set, the per-configuration collectors are child lanes of one root
// collector instead, and the merged span log is additionally written as a
// Chrome trace — each circuit/configuration on its own tid lane. With
// workers > 1 each configuration runs on the sharded atpg.RunParallel
// runtime; the per-shard lanes nest under the configuration's lane
// ("c880/free/shard0") and the shard figures land in the report, so a
// workers=1 baseline diffed against a workers=N report is the speedup
// measurement.
func emitObs(path, only, commit, traceChrome string, workers int) error {
	names := obsCircuits
	if only != "" {
		names = []string{only}
	}
	report := benchfmt.Report{
		SchemaVersion: benchfmt.CurrentSchemaVersion,
		GeneratedAt:   time.Now(),
		Commit:        commit,
		Workers:       workers,
	}
	var traceRoot *obs.Collector
	var lanes []*obs.Collector
	if traceChrome != "" {
		traceRoot = obs.NewCollector()
	}
	// newCol returns the collector one configuration runs under: a fresh
	// standalone one normally, or a tracked child lane when tracing. A
	// child is still a per-configuration collector — its snapshot holds
	// only its own lane's activity — so the embedded bench stats are
	// identical either way.
	newCol := func(track string) *obs.Collector {
		if traceRoot == nil {
			return obs.NewCollector()
		}
		lane := traceRoot.NewChild(track)
		lanes = append(lanes, lane)
		return lane
	}
	for _, name := range names {
		c, err := iscas.Benchmark(name)
		if err != nil {
			return err
		}
		fs := faults.Collapse(c)
		rec := benchfmt.Circuit{Circuit: name, Faults: len(fs)}

		resFree, err := atpg.RunParallel(c, fs,
			atpg.WithWorkers(workers),
			atpg.WithShardOptions(atpg.WithCollector(newCol(name+"/free"))))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rec.Free = benchRun(resFree)

		flash := adc.NewFlash(experiments.ComparatorCount, 0, float64(experiments.ComparatorCount+1))
		binding := experiments.BoundInputs(c, name)
		resCons, err := atpg.RunParallel(c, fs,
			atpg.WithWorkers(workers),
			atpg.WithShardOptions(atpg.WithCollector(newCol(name+"/constrained"))),
			atpg.WithShardSetup(func(g *atpg.Generator) error {
				// The constraint must live on each shard's own manager.
				g.SetConstraint(flash.ConstraintBDD(g.Manager(), binding))
				return nil
			}))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rec.Constrained = benchRun(resCons)

		report.Circuits = append(report.Circuits, rec)
		fmt.Fprintf(os.Stderr, "benchgen: %s — free %d vec in %v (ITE hit %.1f%%), constrained %d vec in %v (ITE hit %.1f%%)\n",
			name, rec.Free.Vectors, time.Duration(rec.Free.CPUNs).Round(time.Millisecond), 100*rec.Free.ITEHitRate,
			rec.Constrained.Vectors, time.Duration(rec.Constrained.CPUNs).Round(time.Millisecond), 100*rec.Constrained.ITEHitRate)
	}

	if traceRoot != nil {
		traceRoot.Merge(lanes...)
		f, err := os.Create(traceChrome)
		if err != nil {
			return err
		}
		if err := traceRoot.Snapshot().WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchgen: wrote Chrome trace (%d lanes) to %s\n", len(lanes), traceChrome)
	}

	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
