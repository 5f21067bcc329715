package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/adc"
	"repro/internal/analog"
	"repro/internal/atpg"
	"repro/internal/faults"
	"repro/internal/waveform"
)

// TestProgram is the complete functional test program the paper's flow
// produces for one mixed-signal circuit: analog element tests (stimulus +
// comparator + digital side conditions), conversion-block element tests,
// and the constrained stuck-at vector set for the digital block.
type TestProgram struct {
	CircuitName string

	// AnalogTests holds one entry per analog element and tolerance
	// bound that is testable through the mixed circuit.
	AnalogTests []AnalogTest
	// AnalogUntestable lists elements with no activating/propagating
	// stimulus, with the blocking reason.
	AnalogUntestable []UntestableElement

	// ConversionTests cover the converter's ladder resistors.
	ConversionTests []ConversionTest

	// DigitalVectors is the constrained stuck-at test set.
	DigitalVectors []faults.Vector
	// DigitalUntestable lists the constraint-blocked stuck-at faults by
	// name.
	DigitalUntestable []string
	DigitalFaults     int
	DigitalCoverage   float64

	GeneratedIn time.Duration
}

// AnalogTest is one applied analog measurement.
type AnalogTest struct {
	Element    string
	Bound      Bound
	Param      string
	Deviation  float64 // exercised worst-case deviation (fraction)
	Stimulus   waveform.Stimulus
	Comparator int
	Expect     waveform.Composite // value at the comparator when faulty
	FreeInputs map[string]bool
	Outputs    []string
}

// UntestableElement records an analog element the flow cannot test.
type UntestableElement struct {
	Element string
	Bound   Bound
	Reason  string
}

// ConversionTest is one ladder-resistor test.
type ConversionTest struct {
	Element    string  // "R3"
	Comparator int     // observing comparator (1-based)
	Deviation  float64 // minimal detectable deviation (fraction)
}

// CompileProgram runs the complete flow of the paper on a mixed circuit:
// analog element tests for both tolerance bounds, conversion-block
// coverage restricted to the propagatable comparators, and constrained
// digital ATPG (with static compaction of the vector set). The matrix
// must come from analog.BuildMatrix over the analog block's elements.
func CompileProgram(mx *Mixed, matrix *analog.Matrix, elements []string, opts ...atpg.Option) (*TestProgram, error) {
	return CompileProgramCtx(context.Background(), mx, matrix, elements, opts...)
}

// CompileProgramCtx is CompileProgram with cancellation: the context is
// threaded through every analog element test and the constrained
// digital ATPG run, so a deadline or cancel aborts the compilation at
// the next element or fault boundary instead of grinding through the
// whole flow. It is CompileProgramParallel with one worker on mx.
func CompileProgramCtx(ctx context.Context, mx *Mixed, matrix *analog.Matrix, elements []string, opts ...atpg.Option) (*TestProgram, error) {
	return CompileProgramParallel(ctx, 1, func() (*Mixed, *analog.Matrix, error) {
		return mx, matrix, nil
	}, elements, opts...)
}

// MixedFactory builds one independent copy of the mixed-circuit vehicle:
// the Mixed itself and the sensitivity matrix over the elements under
// test. CompileProgramParallel calls it once per worker, because the BDD
// managers and MNA solver state inside a Mixed/Propagator pair are not
// goroutine-safe — the parallel flow partitions state instead of locking
// it. The factory must be deterministic (every copy identical), so a
// verdict is the same no matter which worker computes it.
type MixedFactory func() (*Mixed, *analog.Matrix, error)

// CompileProgramParallel is the flow of CompileProgram on a worker
// pool: the element×bound analog tests fan out over workers independent
// vehicle copies, and the constrained digital ATPG runs on
// atpg.RunParallel with the conversion constraint rebuilt on every
// shard's own manager. Results are committed in element×bound order
// whatever the worker count, so the analog and conversion sections —
// and the digital coverage and untestable classification — are identical
// for every worker count; only the exact digital vector set may differ
// (shards target faults concurrently that one shard would have dropped
// first), and it always detects the same fault set. workers < 2 runs one
// vehicle and one ATPG shard: CompileProgramCtx is that case.
func CompileProgramParallel(ctx context.Context, workers int, factory MixedFactory, elements []string, opts ...atpg.Option) (*TestProgram, error) {
	workers = max(workers, 1)
	start := time.Now()

	type vehicle struct {
		mx     *Mixed
		matrix *analog.Matrix
		prop   *Propagator
	}
	ws := make([]*vehicle, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range ws {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mx, matrix, err := factory()
			if err != nil {
				errs[w] = err
				return
			}
			prop, err := NewPropagator(mx, opts...)
			if err != nil {
				errs[w] = err
				return
			}
			ws[w] = &vehicle{mx: mx, matrix: matrix, prop: prop}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	mx := ws[0].mx
	prog := &TestProgram{CircuitName: fmt.Sprintf("%s→flash(%d)→%s",
		mx.Analog.Name(), mx.Conv.NumComparators(), mx.Digital.Name)}

	// 1. Analog element tests, both bounds: a job per element×bound, fed
	// to the workers over a channel; verdicts land in job order, so the
	// commit below reads them in the same order for every worker count.
	type job struct {
		elem  string
		bound Bound
	}
	var jobs []job
	for _, elem := range elements {
		for _, bound := range []Bound{UpperBound, LowerBound} {
			jobs = append(jobs, job{elem, bound})
		}
	}
	verdicts := make([]ElementTest, len(jobs))
	jobErrs := make([]error, len(jobs))
	jobCh := make(chan int)
	for w := range ws {
		wg.Add(1)
		go func(v *vehicle) {
			defer wg.Done()
			for j := range jobCh {
				verdicts[j], jobErrs[j] = v.mx.TestAnalogElementCtx(ctx, v.prop, v.matrix, jobs[j].elem, jobs[j].bound)
			}
		}(ws[w])
	}
	for j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	wg.Wait()
	for j, err := range jobErrs {
		if err != nil {
			return nil, fmt.Errorf("core: element %s: %w", jobs[j].elem, err)
		}
	}
	for j, verdict := range verdicts {
		if !verdict.Testable {
			prog.AnalogUntestable = append(prog.AnalogUntestable, UntestableElement{
				Element: jobs[j].elem, Bound: jobs[j].bound, Reason: verdict.Reason,
			})
			continue
		}
		prog.AnalogTests = append(prog.AnalogTests, AnalogTest{
			Element:    jobs[j].elem,
			Bound:      jobs[j].bound,
			Param:      verdict.Param,
			Deviation:  verdict.ED,
			Stimulus:   verdict.Act.Stim,
			Comparator: verdict.Act.Target,
			Expect:     verdict.Act.Pattern[verdict.Act.Target-1],
			FreeInputs: verdict.Prop.Vector,
			Outputs:    verdict.Prop.Outputs,
		})
	}

	// 2. Conversion-block element tests (cheap; worker 0's vehicle).
	census, err := mx.CensusPropagation(ws[0].prop)
	if err != nil {
		return nil, err
	}
	opt := adc.DefaultEDOptions()
	eds := mx.ConversionCoverage(census, opt)
	best := mx.BestConversionComparators(census, opt)
	for i := range eds {
		if best[i] == 0 || math.IsInf(eds[i], 1) {
			continue
		}
		prog.ConversionTests = append(prog.ConversionTests, ConversionTest{
			Element:    fmt.Sprintf("R%d", i+1),
			Comparator: best[i],
			Deviation:  eds[i],
		})
	}

	// 3. Constrained digital stuck-at vectors on the sharded runtime.
	// ConstraintBDD only reads the converter and builds on the passed
	// manager, so every shard rebuilds Fc on its own manager safely.
	fs := faults.Collapse(mx.Digital)
	res, err := atpg.RunParallel(mx.Digital, fs,
		atpg.WithContext(ctx),
		atpg.WithWorkers(workers),
		atpg.WithShardOptions(opts...),
		atpg.WithShardSetup(func(g *atpg.Generator) error {
			g.SetConstraint(mx.Conv.ConstraintBDD(g.Manager(), mx.Binding))
			return nil
		}))
	if err != nil {
		return nil, err
	}
	// Compact builds its own fault simulator over the circuit; any
	// generator over mx.Digital serves.
	prog.DigitalVectors = ws[0].prop.Generator().Compact(res.Vectors, fs)
	prog.DigitalFaults = res.Total
	prog.DigitalCoverage = res.Coverage()
	for _, f := range res.Untestable {
		prog.DigitalUntestable = append(prog.DigitalUntestable, f.Name(mx.Digital))
	}
	sort.Strings(prog.DigitalUntestable)

	prog.GeneratedIn = time.Since(start)
	return prog, nil
}

// Write renders the program as a human-readable test plan.
func (p *TestProgram) Write(w io.Writer) error {
	pr := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	pr("TEST PROGRAM — %s (generated in %v)\n", p.CircuitName, p.GeneratedIn.Round(time.Millisecond))
	pr("\n[1] analog element tests (%d)\n", len(p.AnalogTests))
	for i, t := range p.AnalogTests {
		pr("  %2d. %-4s %-5s bound: apply %v; comparator %d reads %v when |Δ%s| ≥ %.1f%%; free inputs %v; observe %v\n",
			i+1, t.Element, t.Bound, t.Stimulus, t.Comparator, t.Expect,
			t.Param, 100*t.Deviation, t.FreeInputs, t.Outputs)
	}
	for _, u := range p.AnalogUntestable {
		pr("   !  %-4s %-5s bound: NOT TESTABLE (%s)\n", u.Element, u.Bound, u.Reason)
	}
	pr("\n[2] conversion-block element tests (%d)\n", len(p.ConversionTests))
	for i, t := range p.ConversionTests {
		pr("  %2d. %-4s via comparator %d at ≥ %.1f%% deviation\n",
			i+1, t.Element, t.Comparator, 100*t.Deviation)
	}
	pr("\n[3] digital stuck-at vectors (%d for %d faults, coverage %.1f%%)\n",
		len(p.DigitalVectors), p.DigitalFaults, 100*p.DigitalCoverage)
	for i, v := range p.DigitalVectors {
		pr("  %2d. %s\n", i+1, v)
	}
	if len(p.DigitalUntestable) > 0 {
		pr("  untestable under the conversion constraints: %d\n", len(p.DigitalUntestable))
	}
	return nil
}
