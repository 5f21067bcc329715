package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/perfbench/ledger"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage:
  perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
            [--out record.json] [--trace-chrome trace.json]
  perfbench -sets A1.json,A2.json,... B1.json,B2.json,...

Workloads (run in this order by --workload all, one process each):
  table4-serial   Table 4 rows c432–c1908, free and constrained, Generator.Run
  table4-sharded  the same rows through atpg.RunParallel at 2 workers
  analog-ed       Equation 1 band-pass and Table 3 Chebyshev ED matrices
  mixed-c1908     Chebyshev → 15-comparator flash → c1908: BuildMatrix + CompileProgram
  daemon-inline   msatpgd in-process, 2 closed-loop HTTP clients, inline c432 jobs

--seed generates the inputs (0: the paper's). Operations repeat for
--seconds with tracing off and give the end-to-end metrics:
  setup_s, work_per_s, op_p50_s, op_tail_s, peak_rss_mb.
--trace 1 adds one traced operation plus layer probes and reports the
per-layer metrics instead (see BENCHMARK.json for the full catalog).
Every run gates its outputs (goldens at seed 0, independent fault
simulation for every seed) and exits 1 when a check fails. The last
stdout line is {"correct", "attempted", "failed", "metrics"}.

A/B recipe: build the parent and the change, alternate their runs (at
least 5 each, same seed and --seconds, each with --out), then
  perfbench -sets parent1.json,parent2.json,... change1.json,change2.json,...
prints each workload × metric's medians, quartiles, delta, bound and a
verdict (improved, regressed, unchanged, unresolved) and exits 1 only on
a regression.

This ledger supersedes benchgen -obs (schema v2), testdata/BENCH_baseline.json,
CI's bench-obs job and the component benches of bench_test.go.

Flags:
`

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 0, "input seed (0: the paper's inputs)")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced operation")
	out := fs.String("out", "", "write the schema-v3 record to this file")
	chrome := fs.String("trace-chrome", "", "with --trace 1, write the benchmark-side spans as a Chrome trace")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for durable state")
	sets := fs.Bool("sets", false, "compare two comma-separated sets of records")
	benchPath := fs.String("bench", "BENCHMARK.json", "with -sets, the catalog holding the regression bounds")
	fs.Usage = func() {
		fmt.Fprint(stderr, usage)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *sets {
		return compareSets(fs.Args(), *benchPath, stdout, stderr)
	}
	if fs.NArg() != 0 || *name == "" || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fs.Usage()
		return 2
	}
	if runtime.NumCPU() < 2 {
		fmt.Fprintf(stderr, "perfbench: warning: %d CPU; table4-sharded and daemon-inline expect at least 2\n", runtime.NumCPU())
	}
	rec := &ledger.Record{
		SchemaVersion: ledger.SchemaVersion,
		GeneratedAt:   time.Now().UTC(),
		Commit:        commit(),
		Seed:          *seed,
		Seconds:       *seconds,
		Traced:        *trace == 1,
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NProc:         runtime.NumCPU(),
	}
	var err error
	if *name == "all" {
		err = runAll(rec, args, *workdir, stdout, stderr)
	} else {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
			return 2
		}
		err = runOne(rec, w, Size{Seconds: *seconds}, *workdir, *chrome, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := rec.Write(*out); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if err := printResult(rec, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, w := range rec.Workloads {
		if !w.Correct {
			for _, p := range w.Problems {
				fmt.Fprintf(stderr, "perfbench: %s: %s\n", w.Name, p)
			}
			return 1
		}
	}
	return 0
}

// runOne runs one workload in this process and appends its entry.
func runOne(rec *ledger.Record, w workload, size Size, workdir, chrome string, stdout io.Writer) error {
	g, err := loadGoldens()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: rec.Seed, size: size, golden: g, dir: dir}
	if rec.Traced {
		e.tr = newTracer()
	}
	entry, err := measure(w, e)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	rec.Workloads = append(rec.Workloads, *entry)
	if chrome != "" && e.tr != nil {
		if err := e.tr.writeChrome(chrome); err != nil {
			return err
		}
	}
	return printMetrics(stdout, entry)
}

// measure runs a workload and turns its result into a ledger entry.
func measure(w workload, e *env) (*ledger.Workload, error) {
	r, err := w.run(e)
	if err != nil {
		return nil, err
	}
	entry := &ledger.Workload{
		Name:      w.name,
		Attempted: r.attempted,
		Failed:    r.failed,
		Problems:  r.problems,
		E2E:       r.e2e(),
	}
	for _, def := range e2eMetrics {
		if m := entry.E2E[def.Name]; !(m.Value > 0) || math.IsInf(m.Value, 0) {
			entry.Problems = append(entry.Problems, fmt.Sprintf("%s = %v, want a positive measurement", def.Name, m.Value))
			m.Value = 0
			entry.E2E[def.Name] = m
		}
	}
	if r.attempted == 0 {
		entry.Problems = append(entry.Problems, "no operation was attempted")
	}
	if e.tr != nil {
		entry.Layers = r.layers.final()
		for n, m := range entry.Layers {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				m.Value = 0
				entry.Layers[n] = m
			}
		}
	}
	entry.Correct = len(entry.Problems) == 0
	return entry, nil
}

// runAll re-executes this binary once per workload, in catalog order, so
// peak RSS and GC state are per workload, and merges their records.
func runAll(rec *ledger.Record, args []string, workdir string, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(workdir, "all-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	for _, w := range workloads {
		part := filepath.Join(tmp, w.name+".json")
		cmd := exec.Command(exe, childArgs(args, w.name, part)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		runErr := cmd.Run()
		sub, err := ledger.Load(part)
		if err != nil {
			return fmt.Errorf("%s: %v (%v)", w.name, err, runErr)
		}
		rec.Workloads = append(rec.Workloads, sub.Workloads...)
	}
	return nil
}

// childArgs rewrites this invocation's flags for one workload's child.
func childArgs(args []string, name, out string) []string {
	var kept []string
	skip := map[string]bool{"workload": true, "out": true}
	for i := 0; i < len(args); i++ {
		a := args[i]
		flagName := strings.TrimLeft(a, "-")
		if k, _, hasValue := strings.Cut(flagName, "="); skip[k] {
			if !hasValue {
				i++
			}
			continue
		} else if k == "trace-chrome" {
			if !hasValue {
				i++
				a = "--trace-chrome=" + args[i]
			}
			kept = append(kept, strings.TrimSuffix(a, ".json")+"."+name+".json")
			continue
		}
		kept = append(kept, a)
	}
	return append(kept, "--workload", name, "--out", out)
}

// printMetrics prints every metric of an entry by name with its unit.
func printMetrics(w io.Writer, entry *ledger.Workload) error {
	bw := bufio.NewWriter(w)
	section := func(title string, ms map[string]ledger.Metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := ms[n]
			fmt.Fprintf(bw, "%-16s %-6s %-32s %14.6g %-6s n=%d\n", entry.Name, title, n, m.Value, m.Unit, m.N)
		}
	}
	section("e2e", entry.E2E)
	section("layer", entry.Layers)
	fmt.Fprintf(bw, "%-16s correct=%t attempted=%d failed=%d\n", entry.Name, entry.Correct, entry.Attempted, entry.Failed)
	return bw.Flush()
}

// printResult prints the final summary line: the end-to-end metrics of
// an untraced run, the per-layer metrics of a traced one. With several
// workloads, metric names are prefixed by "<workload>/".
func printResult(rec *ledger.Record, w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(rec.Workloads) > 0, Metrics: map[string]value{}}
	for _, wl := range rec.Workloads {
		res.Correct = res.Correct && wl.Correct
		res.Attempted += wl.Attempted
		res.Failed += wl.Failed
		ms := wl.E2E
		if rec.Traced {
			ms = wl.Layers
		}
		for n, m := range ms {
			if len(rec.Workloads) > 1 {
				n = wl.Name + "/" + n
			}
			res.Metrics[n] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty, _ = strconv.ParseBool(s.Value)
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// compareSets is the -sets mode.
func compareSets(args []string, benchPath string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "perfbench: -sets needs two comma-separated lists of records: A1.json,A2.json,... B1.json,B2.json,...")
		return 2
	}
	bench, err := ledger.LoadBenchmark(benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	var sides [2][]*ledger.Record
	for i, list := range args {
		for _, path := range strings.Split(list, ",") {
			r, err := ledger.Load(path)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 2
			}
			sides[i] = append(sides[i], r)
		}
	}
	rows := ledger.CompareSets(bench, sides[0], sides[1])
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "perfbench: the two sets share no workload")
		return 2
	}
	if err := ledger.WriteRows(stdout, rows); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if ledger.AnyRegressed(rows) {
		return 1
	}
	return 0
}
