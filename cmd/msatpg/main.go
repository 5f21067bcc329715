// Command msatpg runs the full mixed-signal automatic test vector
// generation flow on one of the built-in mixed circuits, printing the
// analog element tests (stimulus, comparator, digital vector), the
// conversion-block coverage and the constrained digital stuck-at run.
//
// Usage:
//
//	msatpg                       # Figure 4 vehicle (band-pass + Fig 3)
//	msatpg -circuit chebyshev -digital c880
//	msatpg -circuit chebyshev -digital c1908 -v
//
// Robustness:
//
//	msatpg -timeout 30s -fault-timeout 100ms   # run / per-fault deadlines
//	msatpg -bdd-budget 200000 -retries 2       # node budget, retry aborts
//	msatpg -checkpoint run.ckpt                # resume a killed run
//	msatpg -chaos-prob 0.1 -chaos-seed 7       # deterministic fault injection
//
// Observability:
//
//	msatpg -report run.json        # the run record (JSON), - for stdout
//	msatpg -report-text -          # ... the same record, human-readable
//	msatpg -trace-chrome trace.json  # ... its spans and events as a Chrome
//	                                 # trace (chrome://tracing, Perfetto)
//	msatpg -live localhost:6060    # live ops server: SSE /events, /varz,
//	                               # /samples, /progressz, pprof with
//	                               # phase=/fault= labels
//	msatpg -live :6060 -live-sample 500ms -live-linger 30s
//
// Exit status:
//
//	0  every fault classified: tested, dropped or provably untestable
//	1  degraded run — aborted or timed-out faults remain — or the flow
//	   itself failed
//	2  usage or input error (bad flags, unknown circuit, unreadable
//	   checkpoint file)
//
// The run record (internal/report) carries the process snapshot — the
// whole pipeline's metrics (BDD cache hit rates, peak nodes, per-fault
// ATPG latency histogram, analog solve counts), the per-phase spans of
// the analog → conversion → digital flow and the per-work-item events —
// beside the sections distilled from it; the metric inventory is
// documented in the README.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/adc"
	"repro/internal/analog"
	"repro/internal/atpg"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/guard"
	"repro/internal/guard/chaos"
	"repro/internal/iscas"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/report"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError marks failures the user caused with flags or inputs; they
// exit 2 so scripts can tell "you invoked me wrong" from "the run
// degraded" (exit 1).
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

type options struct {
	circuit, digital string
	verbose, program bool
	workers          int

	checkpoint   string
	runTimeout   time.Duration
	faultTimeout time.Duration
	bddBudget    int
	retries      int

	chaosProb   float64
	chaosSeed   int64
	chaosSites  string
	chaosAction string

	live       string
	liveSample time.Duration
	liveLinger time.Duration
}

// realMain is main with the process edges (args, stdio, exit code) made
// explicit so tests can drive full runs in-process.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("msatpg", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.StringVar(&opt.circuit, "circuit", "bandpass", "analog block: bandpass | chebyshev")
	fs.StringVar(&opt.digital, "digital", "", "digital block: fig3 (default for bandpass) | c432 | c499 | c880 | c1355 | c1908")
	fs.BoolVar(&opt.verbose, "v", false, "print per-element details")
	fs.BoolVar(&opt.program, "program", false, "compile and print the complete test program instead of the summary")
	fs.IntVar(&opt.workers, "workers", 1, "worker shards for the analog element loop and the digital ATPG (1 = sequential)")
	fs.StringVar(&opt.checkpoint, "checkpoint", "", "record completed faults to this file and resume from it on restart")
	fs.DurationVar(&opt.runTimeout, "timeout", 0, "deadline for the whole run (0 = none)")
	fs.DurationVar(&opt.faultTimeout, "fault-timeout", 0, "deadline per fault / per analog element (0 = none)")
	fs.IntVar(&opt.bddBudget, "bdd-budget", 0, "BDD node allowance per fault; doubles on each retry (0 = uncapped)")
	fs.IntVar(&opt.retries, "retries", 0, "extra attempts for faults aborted by budget, panic or injected failure")
	fs.Float64Var(&opt.chaosProb, "chaos-prob", 0, "deterministic fault-injection probability per site visit (0 = off)")
	fs.Int64Var(&opt.chaosSeed, "chaos-seed", 1, "seed for the chaos injector's site hashing")
	fs.StringVar(&opt.chaosSites, "chaos-sites", "", "comma-separated injection sites (default: all sites)")
	fs.StringVar(&opt.chaosAction, "chaos-action", "panic", "what a firing site does: panic | error | budget | timeout")
	reportOut := fs.String("report", "", "write the run record (report sections plus the obs snapshot) as JSON to this file, or - for stdout")
	reportText := fs.String("report-text", "", "write the run record in human-readable form to this file, or - for stdout")
	traceChrome := fs.String("trace-chrome", "", "write the run record's spans and events as a Chrome trace_event JSON file (chrome://tracing, Perfetto)")
	fs.StringVar(&opt.live, "live", "", "serve the live ops surface (SSE /events, /varz, /samples, /progressz, labeled pprof) on this address, e.g. localhost:6060")
	fs.DurationVar(&opt.liveSample, "live-sample", live.DefaultSampleInterval, "live server: snapshot sampler interval for /samples")
	fs.DurationVar(&opt.liveLinger, "live-linger", 0, "live server: keep serving this long after the run completes, so a late scraper still sees the final state")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: msatpg [flags]\n\nExit status:\n")
		fmt.Fprintf(stderr, "  0  every fault classified (tested, dropped or provably untestable)\n")
		fmt.Fprintf(stderr, "  1  degraded run: aborted or timed-out faults remain, or the flow failed\n")
		fmt.Fprintf(stderr, "  2  usage or input error (bad flags, unknown circuit, unreadable checkpoint)\n\n")
		fmt.Fprintf(stderr, "The codebase behind this command is gated in CI by the msalint static\n")
		fmt.Fprintf(stderr, "analysis suite (`go run ./cmd/msalint ./...`); see msalint -h.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "msatpg: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}

	// The base context carries the chaos injector, so both the run loop
	// and the live server's SSE write site (via BaseContext) see it.
	ctx := context.Background()
	in, cerr := chaosInjector(opt)
	if cerr != nil {
		fmt.Fprintf(stderr, "msatpg: %v\n", cerr)
		return 2
	}
	if in != nil {
		ctx = chaos.Into(ctx, in)
	}

	var lv *live.Server
	liveDone := make(chan error, 1)
	stopLive := func() {}
	if opt.live != "" {
		ln, lerr := net.Listen("tcp", opt.live)
		if lerr != nil {
			fmt.Fprintf(stderr, "msatpg: -live %s: %v\n", opt.live, lerr)
			return 2
		}
		lv = live.NewServer(obs.Default, live.WithSampleInterval(opt.liveSample))
		liveCtx, cancelLive := context.WithCancel(ctx)
		stopLive = cancelLive
		go func() { liveDone <- lv.Serve(liveCtx, ln) }()
		fmt.Fprintf(stderr, "msatpg: live ops on http://%s/ (events, varz, samples, progressz, pprof)\n", ln.Addr())
	} else {
		close(liveDone)
	}

	degraded, err := run(ctx, opt, stdout, lv)
	if werr := writeObs(*reportOut, *reportText, *traceChrome); err == nil {
		err = werr
	}
	lv.SetPhase("done")
	if lv != nil && opt.liveLinger > 0 {
		fmt.Fprintf(stderr, "msatpg: run complete; live server lingering %v\n", opt.liveLinger)
		time.Sleep(opt.liveLinger)
	}
	stopLive()
	if serr := <-liveDone; serr != nil {
		fmt.Fprintf(stderr, "msatpg: live server: %v\n", serr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "msatpg: %v\n", err)
		var ue usageError
		if errors.As(err, &ue) {
			return 2
		}
		return 1
	}
	if degraded {
		fmt.Fprintln(stderr, "msatpg: run degraded: aborted or timed-out work remains (rerun with -checkpoint to resume)")
		return 1
	}
	return 0
}

// writeObs builds the run record from one snapshot of the process
// collector and writes it per the -report, -report-text and
// -trace-chrome flags. It runs even when the flow failed, so a crash
// still leaves the record behind.
func writeObs(reportOut, reportText, traceChrome string) error {
	if reportOut == "" && reportText == "" && traceChrome == "" {
		return nil
	}
	rep := report.Build(obs.Default.Snapshot())
	for _, out := range []struct {
		flag, path string
		render     func(io.Writer) error
	}{
		{"-report", reportOut, rep.WriteJSON},
		{"-report-text", reportText, rep.WriteText},
		{"-trace-chrome", traceChrome, rep.Snapshot.WriteChromeTrace},
	} {
		if out.path == "" {
			continue
		}
		if err := writeOut(out.path, out.render); err != nil {
			return fmt.Errorf("writing %s: %w", out.flag, err)
		}
	}
	return nil
}

// writeOut renders to the named file, or to stdout for "-".
func writeOut(path string, render func(io.Writer) error) error {
	if path == "-" {
		return render(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = render(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// chaosInjector builds the injector from the -chaos-* flags, or nil
// when injection is off.
func chaosInjector(opt options) (*chaos.Injector, error) {
	if opt.chaosProb <= 0 {
		return nil, nil
	}
	var action chaos.Action
	switch opt.chaosAction {
	case "panic":
		action = chaos.Panic
	case "error":
		action = chaos.Error
	case "budget":
		action = chaos.Budget
	case "timeout":
		action = chaos.Timeout
	default:
		return nil, usageError{fmt.Errorf("unknown -chaos-action %q (want panic, error, budget or timeout)", opt.chaosAction)}
	}
	copts := []chaos.Option{chaos.WithAction(action)}
	if opt.chaosSites != "" {
		var sites []string
		for _, s := range strings.Split(opt.chaosSites, ",") {
			if s = strings.TrimSpace(s); s == "" {
				continue
			}
			if !chaos.KnownSite(s) {
				return nil, usageError{fmt.Errorf("unknown -chaos-sites entry %q (registered sites: %s)",
					s, strings.Join(chaos.Sites(), ", "))}
			}
			sites = append(sites, s)
		}
		//lint:allow chaossite flag values are validated against chaos.KnownSite above
		copts = append(copts, chaos.AtSites(sites...))
	}
	return chaos.New(opt.chaosSeed, opt.chaosProb, copts...), nil
}

// resolveVehicle validates the -circuit/-digital pair and fills in the
// per-circuit default digital block.
func resolveVehicle(circuit, digital string) (string, string, error) {
	switch circuit {
	case "bandpass":
		if digital == "" {
			digital = "fig3"
		}
		if digital != "fig3" {
			return "", "", usageError{fmt.Errorf("the band-pass vehicle pairs with -digital fig3")}
		}
	case "chebyshev":
		if digital == "" {
			digital = "c880"
		}
		if _, err := iscas.Benchmark(digital); err != nil {
			return "", "", usageError{err}
		}
	default:
		return "", "", usageError{fmt.Errorf("unknown -circuit %q", circuit)}
	}
	return circuit, digital, nil
}

// buildVehicle constructs one independent copy of the resolved vehicle.
// The parallel paths call it once per worker: a Mixed's BDD managers and
// MNA solver state are not goroutine-safe, so workers own copies instead
// of sharing one behind a lock. Construction is deterministic, so every
// copy behaves identically.
func buildVehicle(circuit, digital string) (*core.Mixed, []string, []analog.Parameter, error) {
	switch circuit {
	case "bandpass":
		mx, err := core.NewMixed(circuits.BandPass2(), circuits.BandPassOutput,
			adc.NewFlash(2, 0, 3), iscas.Fig3(), iscas.Fig3ConstrainedLines())
		return mx, circuits.BandPassElements, circuits.BandPassParams(), err
	case "chebyshev":
		dig, err := iscas.Benchmark(digital)
		if err != nil {
			return nil, nil, nil, usageError{err}
		}
		mx, err := core.NewMixed(circuits.Chebyshev5(), circuits.ChebyshevOutput,
			adc.NewFlash(experiments.ComparatorCount, 0, float64(experiments.ComparatorCount+1)),
			dig, experiments.BoundInputs(dig, digital))
		return mx, circuits.ChebyshevElements, circuits.ChebyshevParams(), err
	}
	return nil, nil, nil, usageError{fmt.Errorf("unknown -circuit %q", circuit)}
}

// run executes the three-phase flow. ctx is the process base context
// (carrying the chaos injector, when one is configured); lv, when non-nil,
// is the live ops server whose /healthz and /progressz report the phase.
func run(ctx context.Context, opt options, stdout io.Writer, lv *live.Server) (degraded bool, err error) {
	circuit, digital, err := resolveVehicle(opt.circuit, opt.digital)
	if err != nil {
		return false, err
	}
	if opt.workers < 1 {
		return false, usageError{fmt.Errorf("-workers must be at least 1, got %d", opt.workers)}
	}
	mx, elements, params, err := buildVehicle(circuit, digital)
	if err != nil {
		return false, err
	}

	limits := guard.Limits{
		PerItem:    opt.faultTimeout,
		Run:        opt.runTimeout,
		BDDNodes:   opt.bddBudget,
		MaxRetries: opt.retries,
	}
	runCtx, cancelRun := limits.WithRunContext(ctx)
	defer cancelRun()
	// The root span of the whole invocation: every phase span below is
	// created from runCtx, so the trace is one causal tree and the
	// critical-path section of the report can walk run → phase → item.
	runSpan, runCtx := obs.Default.StartSpanCtx(runCtx, "msatpg.run")
	defer runSpan.End()

	var ckpt *guard.Checkpoint
	if opt.checkpoint != "" {
		scope := fmt.Sprintf("msatpg:%s:%s", circuit, digital)
		ckpt, err = guard.OpenCheckpoint(opt.checkpoint, scope)
		if err != nil {
			return false, usageError{fmt.Errorf("checkpoint: %w", err)}
		}
	}

	fmt.Fprintf(stdout, "mixed circuit: %s → %d-comparator flash → %s (%d PIs, %d bound, %d free)\n",
		mx.Analog.Name(), mx.Conv.NumComparators(), mx.Digital.Name,
		len(mx.Digital.Inputs()), len(mx.Binding), len(mx.FreeInputs()))

	if opt.program {
		factory := func() (*core.Mixed, *analog.Matrix, error) {
			fmx, felems, fparams, ferr := buildVehicle(circuit, digital)
			if ferr != nil {
				return nil, nil, ferr
			}
			matrix, merr := analog.BuildMatrix(fmx.Analog, felems, fparams, analog.DefaultEDOptions())
			if merr != nil {
				return nil, nil, merr
			}
			return fmx, matrix, nil
		}
		prog, err := core.CompileProgramParallel(runCtx, opt.workers, factory, elements)
		if err != nil {
			return false, err
		}
		return false, prog.Write(stdout)
	}

	// Each phase runs in its own closure so the phase span ends by
	// defer on every path, error returns included — the spanend
	// contract the lint suite enforces.

	// 1. Analog element tests through the digital block. Each element
	// runs under the guard harness: a panic or injected failure in one
	// element degrades the run instead of killing it.
	var prop *core.Propagator
	elemAborted, elemTimedOut := 0, 0
	if err := func() error {
		lv.SetPhase("analog")
		span, phaseCtx := obs.Default.StartSpanCtx(runCtx, "phase.analog")
		defer span.End()
		fmt.Fprintln(stdout, "\n-- analog element tests (activation + D propagation) --")
		matrix, err := analog.BuildMatrix(mx.Analog, elements, params, analog.DefaultEDOptions())
		if err != nil {
			return err
		}
		if prop, err = core.NewPropagator(mx); err != nil {
			return err
		}

		// One result slot per element, filled by a pool of -workers
		// independent vehicle copies (the solver and BDD state inside a
		// Mixed are not goroutine-safe; one worker uses the vehicle built
		// above) and printed below in element order, so stdout is
		// identical for every worker count.
		type vehicle struct {
			mx     *core.Mixed
			matrix *analog.Matrix
			prop   *core.Propagator
		}
		type elemResult struct {
			verdict core.ElementTest
			out     guard.Outcome
		}
		testElem := func(v *vehicle, i int) elemResult {
			elem := elements[i]
			var r elemResult
			itemCtx, cancelItem := limits.WithItemContext(phaseCtx)
			r.out = guard.Do(itemCtx, obs.Default, "element:"+elem, func(ctx context.Context) error {
				verdict, terr := v.mx.TestAnalogElementCtx(ctx, v.prop, v.matrix, elem, core.UpperBound)
				if terr != nil {
					return terr
				}
				r.verdict = verdict
				return nil
			})
			cancelItem()
			return r
		}
		results := make([]elemResult, len(elements))
		workers := max(min(opt.workers, len(elements)), 1)
		vs := make([]*vehicle, workers)
		vs[0] = &vehicle{mx: mx, matrix: matrix, prop: prop}
		buildErrs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 1; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wmx, welems, wparams, werr := buildVehicle(circuit, digital)
				if werr != nil {
					buildErrs[w] = werr
					return
				}
				wmatrix, werr := analog.BuildMatrix(wmx.Analog, welems, wparams, analog.DefaultEDOptions())
				if werr != nil {
					buildErrs[w] = werr
					return
				}
				wprop, werr := core.NewPropagator(wmx)
				if werr != nil {
					buildErrs[w] = werr
					return
				}
				vs[w] = &vehicle{mx: wmx, matrix: wmatrix, prop: wprop}
			}(w)
		}
		wg.Wait()
		for _, berr := range buildErrs {
			if berr != nil {
				return berr
			}
		}
		jobs := make(chan int)
		for _, v := range vs {
			wg.Add(1)
			go func(v *vehicle) {
				defer wg.Done()
				for i := range jobs {
					results[i] = testElem(v, i)
				}
			}(v)
		}
		for i := range elements {
			jobs <- i
		}
		close(jobs)
		wg.Wait()

		testable := 0
		for i, elem := range elements {
			r := results[i]
			switch r.out.Class {
			case guard.TimedOut:
				elemTimedOut++
				fmt.Fprintf(stdout, "  %-4s TIMED OUT (%s)\n", elem, r.out.Reason)
				continue
			case guard.Aborted, guard.Canceled:
				elemAborted++
				fmt.Fprintf(stdout, "  %-4s ABORTED (%s)\n", elem, r.out.Reason)
				continue
			}
			if r.verdict.Testable {
				testable++
				if opt.verbose {
					fmt.Fprintf(stdout, "  %-4s ED=%-7s via %-5s %v → comparator %d → outputs %v, free inputs %v\n",
						elem, fmtPct(r.verdict.ED), r.verdict.Param, r.verdict.Act.Stim,
						r.verdict.Act.Target, r.verdict.Prop.Outputs, r.verdict.Prop.Vector)
				}
			} else if opt.verbose {
				fmt.Fprintf(stdout, "  %-4s NOT TESTABLE (%s)\n", elem, r.verdict.Reason)
			}
		}
		fmt.Fprintf(stdout, "  %d/%d elements testable through the mixed circuit", testable, len(elements))
		if elemAborted+elemTimedOut > 0 {
			fmt.Fprintf(stdout, " (%d aborted, %d timed-out)", elemAborted, elemTimedOut)
		}
		fmt.Fprintln(stdout)
		return nil
	}(); err != nil {
		return false, err
	}

	// 2. Conversion-block coverage.
	if err := func() error {
		lv.SetPhase("conversion")
		span, _ := obs.Default.StartSpanCtx(runCtx, "phase.conversion")
		defer span.End()
		census, err := mx.CensusPropagation(prop)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\n-- conversion block: comparators blocked low=%v high=%v --\n",
			census.BlockedLow, census.BlockedHigh)
		eds := mx.ConversionCoverage(census, adc.DefaultEDOptions())
		fmt.Fprint(stdout, "  ladder EDs: ")
		for i, ed := range eds {
			fmt.Fprintf(stdout, "R%d=%s ", i+1, fmtPct(ed))
		}
		fmt.Fprintln(stdout)
		return nil
	}(); err != nil {
		return false, err
	}

	// 3. Constrained digital stuck-at ATPG.
	var res *atpg.Result
	if err := func() error {
		lv.SetPhase("digital")
		span, phaseCtx := obs.Default.StartSpanCtx(runCtx, "phase.digital")
		defer span.End()
		fmt.Fprintln(stdout, "\n-- digital stuck-at ATPG under the conversion constraints --")
		fs := faults.Collapse(mx.Digital)
		runOpts := []atpg.RunOption{
			atpg.WithContext(phaseCtx),
			atpg.WithLimits(limits),
			atpg.WithWorkers(opt.workers),
			atpg.WithShardSetup(func(g *atpg.Generator) error {
				g.SetConstraint(mx.Conv.ConstraintBDD(g.Manager(), mx.Binding))
				return nil
			}),
		}
		if ckpt != nil {
			runOpts = append(runOpts, atpg.WithCheckpoint(ckpt))
		}
		res, err = atpg.RunParallel(mx.Digital, fs, runOpts...)
		if err != nil {
			return err
		}
		if opt.workers > 1 {
			fmt.Fprintf(stdout, "  sharded across %d workers\n", opt.workers)
		}
		if res.Resumed > 0 {
			fmt.Fprintf(stdout, "  resumed %d faults from checkpoint %s\n", res.Resumed, opt.checkpoint)
		}
		fmt.Fprintf(stdout, "  %d collapsed faults: %d detected, %d untestable, %d aborted, %d timed-out, %d vectors, %v, coverage %.1f%%\n",
			res.Total, res.Detected, len(res.Untestable), len(res.Aborted), len(res.TimedOut),
			len(res.Vectors), res.CPU.Round(1e6), 100*res.Coverage())
		if res.Retries > 0 {
			fmt.Fprintf(stdout, "  %d retries spent recovering aborted faults\n", res.Retries)
		}
		if opt.verbose {
			for i, v := range res.Vectors {
				if i >= 10 {
					fmt.Fprintf(stdout, "  ... and %d more vectors\n", len(res.Vectors)-10)
					break
				}
				fmt.Fprintf(stdout, "  vector %2d: %s\n", i+1, v)
			}
		}
		return nil
	}(); err != nil {
		return false, err
	}

	degraded = len(res.Aborted)+len(res.TimedOut)+elemAborted+elemTimedOut > 0
	return degraded, nil
}

func fmtPct(f float64) string {
	if f > 1e6 {
		return "—"
	}
	return fmt.Sprintf("%.1f%%", 100*f)
}
