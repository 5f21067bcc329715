package main

import (
	"context"
	"fmt"

	"repro/internal/adc"
	"repro/internal/atpg"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/obs"
)

// t4row is one Table 4 circuit: its generated inputs and, after set-up,
// the program state its ATPG runs share.
type t4row struct {
	name    string
	profile iscas.Profile
	binding []string
	c       *logic.Circuit
	fs      []faults.Fault
}

// t4run is one ATPG run of a row, free or constrained.
type t4run struct {
	row  *t4row
	cons bool
	res  *atpg.Result
}

func (r t4run) config() string {
	if r.cons {
		return "constrained"
	}
	return "free"
}

func table4Inputs(e *env) ([]*t4row, error) {
	var rows []*t4row
	for _, name := range e.size.circuits() {
		p, err := profileFor(name)
		if err != nil {
			return nil, err
		}
		b, err := bindingFor(name, p, e.seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, &t4row{name: name, profile: p, binding: b})
	}
	return rows, nil
}

// setupRow is the program's set-up for one row: circuit construction and
// fault collapsing.
func setupRow(row *t4row) error {
	c, err := iscas.Generate(row.profile)
	if err != nil {
		return err
	}
	row.c, row.fs = c, faults.Collapse(c)
	return nil
}

// table4Pass runs every row free and constrained, as Table 4 does, at
// the given worker count (1: Generator.Run; more: atpg.RunParallel).
func table4Pass(tr *tracer, rows []*t4row, workers int) ([]t4run, error) {
	flash := adc.NewFlash(experiments.ComparatorCount, 0, float64(experiments.ComparatorCount+1))
	var runs []t4run
	for _, row := range rows {
		for _, cons := range []bool{false, true} {
			run := t4run{row: row, cons: cons}
			lane := tr.lane(fmt.Sprintf("workers%d/%s/%s", workers, row.name, run.config()))
			var binding []string
			if cons {
				binding = row.binding
			}
			res, err := runATPG(lane, row.c, row.fs, flash, binding, workers)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", row.name, run.config(), err)
			}
			run.res = res
			runs = append(runs, run)
		}
	}
	return runs, nil
}

// runATPG is one Table 4 cell: stuck-at ATPG over fs, under the flash
// constraint Fc when binding is non-nil. Spans on lane (nil when not
// tracing) wrap each call into the program.
func runATPG(lane *obs.Collector, c *logic.Circuit, fs []faults.Fault, flash *adc.Flash, binding []string, workers int) (*atpg.Result, error) {
	if workers < 2 {
		sp := lane.StartSpan("bdd.build")
		g, err := atpg.New(c)
		sp.End()
		if err != nil {
			return nil, err
		}
		if binding != nil {
			sp := lane.StartSpan("adc.constraint")
			g.SetConstraint(flash.ConstraintBDD(g.Manager(), binding))
			sp.End()
		}
		sp = lane.StartSpan("atpg.run")
		defer sp.End()
		return g.Run(fs), nil
	}
	sp, ctx := lane.StartSpanCtx(context.Background(), "atpg.run")
	defer sp.End()
	opts := []atpg.RunOption{atpg.WithWorkers(workers)}
	if binding != nil {
		opts = append(opts, atpg.WithShardSetup(func(g *atpg.Generator) error {
			// Each shard builds Fc on its own manager, concurrently.
			csp, _ := lane.StartSpanCtx(ctx, "adc.constraint")
			g.SetConstraint(flash.ConstraintBDD(g.Manager(), binding))
			csp.End()
			return nil
		}))
	}
	return atpg.RunParallel(c, fs, opts...)
}

func runTable4(e *env, workers int) (*result, error) {
	rows, err := table4Inputs(e)
	if err != nil {
		return nil, err
	}
	r := &result{layers: layerSet{}}
	err = r.timeSetup(maxSetupReps, func() error {
		for _, row := range rows {
			if err := setupRow(row); err != nil {
				return err
			}
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}

	var first []t4run
	r.timeOps(e.size.Seconds, func() (opOut, error) {
		runs, err := table4Pass(nil, rows, workers)
		if err != nil {
			return opOut{}, err
		}
		out := opOut{attempted: len(runs)}
		for _, run := range runs {
			out.items += float64(run.res.Total)
			if len(run.res.Aborted)+len(run.res.TimedOut) > 0 {
				out.failed++
			}
		}
		if first == nil {
			first = runs
		} else if !sameRuns(first, runs) {
			r.problemf("pass %d classified differently from pass 1", len(r.ops)+1)
		}
		return out, nil
	})
	if first != nil {
		r.checkTable4(e, first, workers)
	}

	if e.tr != nil {
		var runs []t4run
		d, delta, err := tracedOp(func() error {
			var err error
			runs, err = table4Pass(e.tr, rows, workers)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		if first != nil && !sameRuns(first, runs) {
			r.problemf("traced pass classified differently from the timed passes")
		}
		r.traced(d, delta, e.tr.spans())
		if err := digitalProbes(r.layers, e.seed); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// sameRuns reports whether two passes produced the same outcome counts.
func sameRuns(a, b []t4run) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i].res, b[i].res
		if x.Detected != y.Detected || len(x.Untestable) != len(y.Untestable) ||
			len(x.Vectors) != len(y.Vectors) || len(x.Aborted) != len(y.Aborted) ||
			len(x.TimedOut) != len(y.TimedOut) {
			return false
		}
	}
	return true
}

// checkTable4 is the correctness gate of both Table 4 workloads.
func (r *result) checkTable4(e *env, runs []t4run, workers int) {
	want := e.golden.Table4
	if workers > 1 {
		want = e.golden.Table4Sharded
	}
	for _, run := range runs {
		row, res := run.row, run.res
		label := row.name + " " + run.config()
		if e.seed == 0 {
			g, ok := want[row.name]
			if !ok {
				r.problemf("%s: no golden for %d untestable, %d vectors", label, len(res.Untestable), len(res.Vectors))
			} else {
				wu, wv := g.FreeUntestable, g.FreeVectors
				if run.cons {
					wu, wv = g.ConsUntestable, g.ConsVectors
				}
				if len(res.Untestable) != wu || len(res.Vectors) != wv {
					r.problemf("%s: %d untestable, %d vectors; golden %d, %d",
						label, len(res.Untestable), len(res.Vectors), wu, wv)
				}
			}
		}
		if n := res.Detected + len(res.Untestable) + len(res.Aborted) + len(res.TimedOut); n != res.Total || res.Total != len(row.fs) {
			r.problemf("%s: detected+untestable+aborted+timed-out = %d, total %d, faults %d", label, n, res.Total, len(row.fs))
		}
		var binding []string
		if run.cons {
			binding = row.binding
		}
		r.problems = append(r.problems, checkVectors(label, row.c, row.fs, res.Vectors, res.Detected, res.Untestable, binding, workers < 2)...)
	}
}

// checkVectors re-simulates emitted vectors with an independent fault
// simulator: together they must detect exactly the number of faults the
// run claims and none of those it called untestable, and under a
// constraint every vector must drive the bound inputs with a legal
// thermometer code. firstDetects additionally requires each vector to be
// the first to detect some fault, which holds for a sequential run
// because each vector was generated for a fault no earlier one detected.
func checkVectors(label string, c *logic.Circuit, fs []faults.Fault, vectors []faults.Vector, detected int, untestable []faults.Fault, binding []string, firstDetects bool) []string {
	var problems []string
	det := faults.NewSimulator(c).Detect(vectors, fs)
	n := 0
	firsts := make([]bool, len(vectors))
	for _, d := range det {
		if d >= 0 {
			n++
			firsts[d] = true
		}
	}
	if n != detected {
		problems = append(problems, fmt.Sprintf("%s: vectors detect %d faults, run claims %d", label, n, detected))
	}
	unt := map[faults.Fault]bool{}
	for _, f := range untestable {
		unt[f] = true
	}
	for i, f := range fs {
		if det[i] >= 0 && unt[f] {
			problems = append(problems, fmt.Sprintf("%s: untestable fault %s is detected by vector %d", label, f.Name(c), det[i]))
			break
		}
	}
	if firstDetects {
		for i, ok := range firsts {
			if !ok {
				problems = append(problems, fmt.Sprintf("%s: vector %d detects no fault first", label, i))
				break
			}
		}
	}
	if binding != nil {
		for i, v := range vectors {
			a := v.Assignment(c)
			code := make([]bool, len(binding))
			for k, name := range binding {
				code[k] = a[name]
			}
			if _, ok := adc.DecodeThermometer(code); !ok {
				problems = append(problems, fmt.Sprintf("%s: vector %d violates Fc (comparator code %v)", label, i, code))
				break
			}
		}
	}
	return problems
}
