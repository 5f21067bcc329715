// Command msatpg runs the full mixed-signal automatic test vector
// generation flow on one of the built-in mixed circuits: it compiles the
// circuit's test program once, through core.CompileProgramParallel, and
// renders it. The default rendering is a summary — the analog
// element×bound tests (stimulus, comparator, digital vector with -v),
// the conversion-block coverage and the constrained digital stuck-at
// run; -program prints the whole program. Both renderings run under
// the same limits, checkpoint and chaos flags, and exit alike.
//
// Usage:
//
//	msatpg                       # Figure 4 vehicle (band-pass + Fig 3)
//	msatpg -circuit chebyshev -digital c880
//	msatpg -circuit chebyshev -digital c1908 -v
//	msatpg -program -workers 4   # the complete test program
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
//	msatpg -live localhost:6060    # live ops server: SSE /events, the
//	                               # run record so far at /report,
//	                               # /samples, /healthz, pprof with
//	                               # phase=/fault= labels
//	msatpg -live :6060 -live-sample 500ms -live-linger 30s
//
// Exit status:
//
//	0  every fault classified: tested, dropped or provably untestable
//	1  degraded run — aborted or timed-out analog element tests or
//	   digital faults remain — or the flow itself failed
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
	"time"

	"repro/internal/adc"
	"repro/internal/analog"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/guard"
	"repro/internal/guard/chaos"
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
	fs.StringVar(&opt.live, "live", "", "serve the live ops surface (SSE /events, /report, /samples, /healthz, labeled pprof) on this address, e.g. localhost:6060")
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
	in, cerr := chaos.FromFlags(opt.chaosProb, opt.chaosSeed, opt.chaosSites, opt.chaosAction)
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
		fmt.Fprintf(stderr, "msatpg: live ops on http://%s/ (events, report, samples, healthz, pprof)\n", ln.Addr())
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

// run builds the vehicle for the header line, compiles its test program
// once through core.CompileProgramParallel and renders it: the whole
// program with -program, a summary otherwise. ctx is the process base
// context (carrying the chaos injector, when one is configured); lv,
// when non-nil, is the live ops server whose /healthz reports the
// phase. degraded reports unclassified work of either kind.
func run(ctx context.Context, opt options, stdout io.Writer, lv *live.Server) (degraded bool, err error) {
	if opt.workers < 1 {
		return false, usageError{fmt.Errorf("-workers must be at least 1, got %d", opt.workers)}
	}
	mx, elements, _, err := experiments.Vehicle(opt.circuit, opt.digital)
	if err != nil {
		return false, usageError{err}
	}
	// The root span of the whole invocation: the flow's phase spans
	// start from its context, so the trace is one causal tree and the
	// critical-path section of the report can walk run → phase → item.
	runSpan, runCtx := obs.Default.StartSpanCtx(ctx, "msatpg.run")
	defer runSpan.End()

	var ckpt *guard.Checkpoint
	if opt.checkpoint != "" {
		scope := fmt.Sprintf("msatpg:%s:%s", opt.circuit, mx.Digital.Name)
		ckpt, err = guard.OpenCheckpoint(opt.checkpoint, scope)
		if err != nil {
			return false, usageError{fmt.Errorf("checkpoint: %w", err)}
		}
	}

	fmt.Fprintf(stdout, "mixed circuit: %s → %d-comparator flash → %s (%d PIs, %d bound, %d free)\n",
		mx.Analog.Name(), mx.Conv.NumComparators(), mx.Digital.Name,
		len(mx.Digital.Inputs()), len(mx.Binding), len(mx.FreeInputs()))

	// Every worker builds its own vehicle: a Mixed's BDD managers and
	// MNA solver state are not goroutine-safe.
	factory := func() (*core.Mixed, *analog.Matrix, error) {
		wmx, welems, wparams, err := experiments.Vehicle(opt.circuit, opt.digital)
		if err != nil {
			return nil, nil, err
		}
		matrix, err := analog.BuildMatrix(wmx.Analog, welems, wparams, analog.DefaultEDOptions())
		if err != nil {
			return nil, nil, err
		}
		return wmx, matrix, nil
	}
	limits := guard.Limits{
		PerItem:    opt.faultTimeout,
		Run:        opt.runTimeout,
		BDDNodes:   opt.bddBudget,
		MaxRetries: opt.retries,
	}
	lv.SetPhase("compile")
	prog, err := core.CompileProgramParallel(runCtx, opt.workers, factory, elements, limits, ckpt)
	if err != nil {
		return false, err
	}
	if opt.program {
		return prog.Degraded(), prog.Write(stdout)
	}
	writeSummary(stdout, mx, prog, opt)
	return prog.Degraded(), nil
}

// writeSummary prints the summary of a compiled program: the analog
// element-test count, the conversion census with every ladder ED, and
// the digital run's classification. With -v it also lists every element
// test and the first vectors of the run.
func writeSummary(w io.Writer, mx *core.Mixed, prog *core.TestProgram, opt options) {
	fmt.Fprintln(w, "\n-- analog element tests (activation + D propagation) --")
	if opt.verbose {
		for _, t := range prog.AnalogTests {
			fmt.Fprintf(w, "  %-4s %-5s ED=%-7s via %-5s %v → comparator %d → outputs %v, free inputs %v\n",
				t.Element, t.Bound, fmtPct(t.Deviation), t.Param, t.Stimulus,
				t.Comparator, t.Outputs, t.FreeInputs)
		}
		for _, u := range prog.AnalogUntestable {
			fmt.Fprintf(w, "  %-4s %-5s NOT TESTABLE (%s)\n", u.Element, u.Bound, u.Reason)
		}
	}
	aborted, timedOut := 0, 0
	for _, a := range prog.AnalogAborted {
		verdict := "ABORTED"
		if a.Outcome.Class == guard.TimedOut {
			verdict = "TIMED OUT"
			timedOut++
		} else {
			aborted++
		}
		fmt.Fprintf(w, "  %-4s %-5s %s (%s)\n", a.Element, a.Bound, verdict, a.Outcome.Reason)
	}
	fmt.Fprintf(w, "  %d/%d element tests testable through the mixed circuit (both bounds",
		len(prog.AnalogTests), len(prog.AnalogTests)+len(prog.AnalogUntestable)+len(prog.AnalogAborted))
	if aborted+timedOut > 0 {
		fmt.Fprintf(w, "; %d aborted, %d timed-out", aborted, timedOut)
	}
	fmt.Fprintln(w, ")")

	fmt.Fprintf(w, "\n-- conversion block: comparators blocked low=%v high=%v --\n",
		prog.Census.BlockedLow, prog.Census.BlockedHigh)
	fmt.Fprint(w, "  ladder EDs: ")
	for i, ed := range mx.ConversionCoverage(prog.Census, adc.DefaultEDOptions()) {
		fmt.Fprintf(w, "R%d=%s ", i+1, fmtPct(ed))
	}
	fmt.Fprintln(w)

	res := prog.Digital
	fmt.Fprintln(w, "\n-- digital stuck-at ATPG under the conversion constraints --")
	if opt.workers > 1 {
		fmt.Fprintf(w, "  sharded across %d workers\n", opt.workers)
	}
	if res.Resumed > 0 {
		fmt.Fprintf(w, "  resumed %d faults from checkpoint %s\n", res.Resumed, opt.checkpoint)
	}
	fmt.Fprintf(w, "  %d collapsed faults: %d detected, %d untestable, %d aborted, %d timed-out, %d vectors, %v, coverage %.1f%%\n",
		res.Total, res.Detected, len(res.Untestable), len(res.Aborted), len(res.TimedOut),
		len(res.Vectors), res.CPU.Round(1e6), 100*res.Coverage())
	if res.Retries > 0 {
		fmt.Fprintf(w, "  %d retries spent recovering aborted faults\n", res.Retries)
	}
	if opt.verbose {
		for i, v := range res.Vectors {
			if i >= 10 {
				fmt.Fprintf(w, "  ... and %d more vectors\n", len(res.Vectors)-10)
				break
			}
			fmt.Fprintf(w, "  vector %2d: %s\n", i+1, v)
		}
	}
}

func fmtPct(f float64) string {
	if f > 1e6 {
		return "—"
	}
	return fmt.Sprintf("%.1f%%", 100*f)
}
