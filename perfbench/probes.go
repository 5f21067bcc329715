package main

import (
	"fmt"
	"time"

	"repro/internal/adc"
	"repro/internal/atpg"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/mna"
	"repro/internal/obs"
	"repro/perfbench/ledger"
)

// Layer probes time one layer in isolation on fixed inputs, after the
// traced operation, in every traced run whose workload calls into that
// layer. They complement what the traced operation's counters and spans
// show with a unit cost per operation of the layer.

// probeRow generates and sets up one Table 4 circuit for the probes.
func probeRow(name string, seed int64) (*t4row, error) {
	p, err := profileFor(name)
	if err != nil {
		return nil, err
	}
	b, err := bindingFor(name, p, seed)
	if err != nil {
		return nil, err
	}
	row := &t4row{name: name, profile: p, binding: b}
	return row, setupRow(row)
}

// probeReps is how many times a probe repeats; it reports the median.
const probeReps = 5

// digitalProbes measures:
//   - bdd.ns_per_ite: atpg.New on c1908 divided by the ITE calls it made;
//   - faults.ns_per_fault_vector: one 64-vector Detect batch over every
//     c1908 fault, per fault × vector;
//   - atpg.extract_us_per_fault: GenerateVector over every c880 fault
//     under the constraint Fc;
//   - obs.collector_overhead_frac: constrained c880 ATPG with the default
//     collector against atpg.WithCollector(nil), interleaved pairs.
func digitalProbes(l layerSet, seed int64) error {
	big, err := probeRow("c1908", seed)
	if err != nil {
		return err
	}
	small, err := probeRow("c880", seed)
	if err != nil {
		return err
	}
	flash := adc.NewFlash(experiments.ComparatorCount, 0, float64(experiments.ComparatorCount+1))

	var g *atpg.Generator
	var perITE []float64
	for i := 0; i < probeReps; i++ {
		before := obs.Default.Snapshot()
		t0 := time.Now()
		g, err = atpg.New(big.c)
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		delta := obs.Default.Snapshot().Sub(before)
		if ite := delta.Counters["bdd.ite.hit"] + delta.Counters["bdd.ite.miss"]; ite > 0 {
			perITE = append(perITE, float64(d.Nanoseconds())/float64(ite))
		}
	}
	l.set("bdd.ns_per_ite", ledger.Median(perITE))

	var vecs []faults.Vector
	for _, f := range big.fs {
		if v, ok := g.GenerateVector(f); ok {
			vecs = append(vecs, v)
			if len(vecs) == 64 {
				break
			}
		}
	}
	sim := faults.NewSimulator(big.c)
	l.set("faults.ns_per_fault_vector", medianNs(func() { sim.Detect(vecs, big.fs) })/float64(len(big.fs)*len(vecs)))

	// Each repetition starts from a fresh generator, so the BDD computed
	// table is as cold as in a real run.
	var extract []float64
	for i := 0; i < probeReps; i++ {
		gs, err := atpg.New(small.c)
		if err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		gs.SetConstraint(flash.ConstraintBDD(gs.Manager(), small.binding))
		t0 := time.Now()
		for _, f := range small.fs {
			gs.GenerateVector(f)
		}
		extract = append(extract, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(small.fs)))
	}
	l.set("atpg.extract_us_per_fault", ledger.Median(extract))

	var on, off []float64
	for i := 0; i < probeReps; i++ {
		for _, instrumented := range []bool{i%2 == 0, i%2 != 0} {
			var opts []atpg.Option
			if !instrumented {
				opts = append(opts, atpg.WithCollector(nil))
			}
			t0 := time.Now()
			g, err := atpg.New(small.c, opts...)
			if err != nil {
				return fmt.Errorf("probe: %w", err)
			}
			g.SetConstraint(flash.ConstraintBDD(g.Manager(), small.binding))
			g.Run(small.fs)
			d := time.Since(t0).Seconds()
			if instrumented {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
	}
	l.set("obs.collector_overhead_frac", ledger.Median(on)/ledger.Median(off)-1)
	return nil
}

// analogProbe measures mna.ac_solve_us: one AC solve of the filter at
// 10 kHz.
func analogProbe(l layerSet, c *mna.Circuit) error {
	const solves = 400
	var err error
	ns := medianNs(func() {
		for i := 0; i < solves && err == nil; i++ {
			_, err = c.AC(10e3)
		}
	})
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	l.set("mna.ac_solve_us", ns/1e3/solves)
	return nil
}

// medianNs runs fn probeReps times and returns its median duration.
func medianNs(fn func()) float64 {
	ds := make([]float64, probeReps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0).Nanoseconds())
	}
	return ledger.Median(ds)
}
