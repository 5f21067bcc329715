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
	"repro/internal/guard"
	"repro/internal/obs"
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
	// AnalogAborted lists the element tests that did not complete — a
	// panic, budget trip, error, cancel or deadline — with their guard
	// outcome. They are neither tests nor untestable elements.
	AnalogAborted []AbortedElement

	// Census is the conversion block's propagation census, which
	// restricts the conversion tests to the propagatable comparators.
	Census *PropagationCensus
	// ConversionTests cover the converter's ladder resistors.
	ConversionTests []ConversionTest

	// DigitalVectors is the constrained stuck-at test set.
	DigitalVectors []faults.Vector
	// DigitalUntestable lists the constraint-blocked stuck-at faults by
	// name.
	DigitalUntestable []string
	DigitalFaults     int
	DigitalCoverage   float64
	// Digital is the constrained ATPG run before compaction: its
	// detected, aborted, timed-out, resumed and retry counts, its CPU
	// time and its uncompacted vectors.
	Digital *atpg.Result

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

// AbortedElement records an element test that did not complete.
type AbortedElement struct {
	Element string
	Bound   Bound
	Outcome guard.Outcome
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
// It is CompileProgramParallel with one worker on mx, no limits and no
// checkpoint.
func CompileProgram(mx *Mixed, matrix *analog.Matrix, elements []string) (*TestProgram, error) {
	return CompileProgramParallel(context.Background(), 1, func() (*Mixed, *analog.Matrix, error) {
		return mx, matrix, nil
	}, elements, guard.Limits{}, nil)
}

// MixedFactory builds one independent copy of the mixed-circuit vehicle:
// the Mixed itself and the sensitivity matrix over the elements under
// test. CompileProgramParallel calls it once per worker, because the BDD
// managers and MNA solver state inside a Mixed/Propagator pair are not
// goroutine-safe — the parallel flow partitions state instead of locking
// it. The factory must be deterministic (every copy identical), so a
// verdict is the same no matter which worker computes it.
type MixedFactory func() (*Mixed, *analog.Matrix, error)

// vehicle is one worker's copy of the mixed circuit.
type vehicle struct {
	mx     *Mixed
	matrix *analog.Matrix
	prop   *Propagator
}

// CompileProgramParallel is the flow of the paper on a worker pool, and
// the one implementation of it. The run deadline of limits bounds the
// whole flow, which runs in three phases, each under its own span
// started from ctx (phase.analog, phase.conversion, phase.digital):
//
//  1. The element×bound analog tests fan out over independent vehicle
//     copies, one per worker. Each test runs under the guard harness
//     with the per-item deadline of limits, so a panic, budget trip,
//     error or deadline in one test lands in AnalogAborted instead of
//     failing the flow.
//  2. The conversion census and ladder tests run on the first vehicle.
//  3. The constrained digital ATPG runs on atpg.RunParallel under
//     limits and ckpt (nil means no checkpoint), with the conversion
//     constraint rebuilt on every shard's own manager, and its vectors
//     are compacted.
//
// Results are committed in element×bound order whatever the worker
// count, so the analog and conversion sections — and the digital
// coverage and untestable classification — are identical for every
// worker count; only the exact digital vector set may differ (shards
// target faults concurrently that one shard would have dropped first),
// and it always detects the same fault set. An error means a vehicle
// could not be built; degraded work is reported in the program
// (Degraded).
func CompileProgramParallel(ctx context.Context, workers int, factory MixedFactory, elements []string, limits guard.Limits, ckpt *guard.Checkpoint) (*TestProgram, error) {
	workers = max(workers, 1)
	start := time.Now()
	ctx, cancel := limits.WithRunContext(ctx)
	defer cancel()
	prog := &TestProgram{}
	v, err := prog.testElements(ctx, workers, factory, elements, limits)
	if err != nil {
		return nil, err
	}
	mx := v.mx
	prog.CircuitName = fmt.Sprintf("%s→flash(%d)→%s",
		mx.Analog.Name(), mx.Conv.NumComparators(), mx.Digital.Name)
	if err := prog.testConversion(ctx, v); err != nil {
		return nil, err
	}
	if err := prog.testDigital(ctx, workers, v, limits, ckpt); err != nil {
		return nil, err
	}
	prog.GeneratedIn = time.Since(start)
	return prog, nil
}

// testElements is the analog phase: a job per element×bound, fed to one
// worker per vehicle over a channel. Verdicts land in job order, so the
// commit below reads them in the same order for every worker count. It
// returns the first vehicle, which the later phases reuse.
func (p *TestProgram) testElements(ctx context.Context, workers int, factory MixedFactory, elements []string, limits guard.Limits) (*vehicle, error) {
	span, ctx := obs.Default.StartSpanCtx(ctx, "phase.analog")
	defer span.End()
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

	vs := make([]*vehicle, max(min(workers, len(jobs)), 1))
	errs := make([]error, len(vs))
	var wg sync.WaitGroup
	for w := range vs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mx, matrix, err := factory()
			if err != nil {
				errs[w] = err
				return
			}
			prop, err := NewPropagator(mx)
			if err != nil {
				errs[w] = err
				return
			}
			vs[w] = &vehicle{mx: mx, matrix: matrix, prop: prop}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	verdicts := make([]ElementTest, len(jobs))
	outs := make([]guard.Outcome, len(jobs))
	jobCh := make(chan int)
	for _, v := range vs {
		wg.Add(1)
		go func(v *vehicle) {
			defer wg.Done()
			for j := range jobCh {
				itemCtx, cancelItem := limits.WithItemContext(ctx)
				outs[j] = guard.Do(itemCtx, obs.Default, "element:"+jobs[j].elem, func(ctx context.Context) error {
					var err error
					verdicts[j], err = v.mx.TestAnalogElementCtx(ctx, v.prop, v.matrix, jobs[j].elem, jobs[j].bound)
					return err
				})
				cancelItem()
			}
		}(v)
	}
	for j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	wg.Wait()

	for j, verdict := range verdicts {
		elem, bound := jobs[j].elem, jobs[j].bound
		switch {
		case !outs[j].OK():
			p.AnalogAborted = append(p.AnalogAborted, AbortedElement{Element: elem, Bound: bound, Outcome: outs[j]})
		case !verdict.Testable:
			p.AnalogUntestable = append(p.AnalogUntestable, UntestableElement{
				Element: elem, Bound: bound, Reason: verdict.Reason,
			})
		default:
			p.AnalogTests = append(p.AnalogTests, AnalogTest{
				Element:    elem,
				Bound:      bound,
				Param:      verdict.Param,
				Deviation:  verdict.ED,
				Stimulus:   verdict.Act.Stim,
				Comparator: verdict.Act.Target,
				Expect:     verdict.Act.Pattern[verdict.Act.Target-1],
				FreeInputs: verdict.Prop.Vector,
				Outputs:    verdict.Prop.Outputs,
			})
		}
	}
	return vs[0], nil
}

// testConversion is the conversion phase: the propagation census and the
// ladder-resistor tests it allows (cheap; one vehicle).
func (p *TestProgram) testConversion(ctx context.Context, v *vehicle) error {
	span, _ := obs.Default.StartSpanCtx(ctx, "phase.conversion")
	defer span.End()
	census, err := v.mx.CensusPropagation(v.prop)
	if err != nil {
		return err
	}
	p.Census = census
	opt := adc.DefaultEDOptions()
	eds := v.mx.ConversionCoverage(census, opt)
	best := v.mx.BestConversionComparators(census, opt)
	for i := range eds {
		if best[i] == 0 || math.IsInf(eds[i], 1) {
			continue
		}
		p.ConversionTests = append(p.ConversionTests, ConversionTest{
			Element:    fmt.Sprintf("R%d", i+1),
			Comparator: best[i],
			Deviation:  eds[i],
		})
	}
	return nil
}

// testDigital is the digital phase: constrained stuck-at vectors on the
// sharded runtime, then static compaction. ConstraintBDD only reads the
// converter and builds on the passed manager, so every shard rebuilds
// Fc on its own manager safely.
func (p *TestProgram) testDigital(ctx context.Context, workers int, v *vehicle, limits guard.Limits, ckpt *guard.Checkpoint) error {
	span, ctx := obs.Default.StartSpanCtx(ctx, "phase.digital")
	defer span.End()
	mx := v.mx
	fs := faults.Collapse(mx.Digital)
	res, err := atpg.RunParallel(mx.Digital, fs,
		atpg.WithContext(ctx),
		atpg.WithLimits(limits),
		atpg.WithCheckpoint(ckpt),
		atpg.WithWorkers(workers),
		atpg.WithShardSetup(func(g *atpg.Generator) error {
			g.SetConstraint(mx.Conv.ConstraintBDD(g.Manager(), mx.Binding))
			return nil
		}))
	if err != nil {
		return err
	}
	p.Digital = res
	// Compact builds its own fault simulator over the circuit; any
	// generator over mx.Digital serves.
	p.DigitalVectors = v.prop.Generator().Compact(res.Vectors, fs)
	p.DigitalFaults = res.Total
	p.DigitalCoverage = res.Coverage()
	for _, f := range res.Untestable {
		p.DigitalUntestable = append(p.DigitalUntestable, f.Name(mx.Digital))
	}
	sort.Strings(p.DigitalUntestable)
	return nil
}

// Degraded reports whether work remains unclassified: an element test
// that did not complete, or a digital fault aborted or timed out. A
// resumed run (with the same checkpoint) re-attempts the digital ones.
func (p *TestProgram) Degraded() bool {
	return len(p.AnalogAborted) > 0 ||
		(p.Digital != nil && len(p.Digital.Aborted)+len(p.Digital.TimedOut) > 0)
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
	for _, a := range p.AnalogAborted {
		verdict := "ABORTED"
		if a.Outcome.Class == guard.TimedOut {
			verdict = "TIMED OUT"
		}
		pr("   !  %-4s %-5s bound: %s (%s)\n", a.Element, a.Bound, verdict, a.Outcome.Reason)
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
	if d := p.Digital; d != nil && len(d.Aborted)+len(d.TimedOut) > 0 {
		pr("  not classified: %d aborted, %d timed-out\n", len(d.Aborted), len(d.TimedOut))
	}
	return nil
}
