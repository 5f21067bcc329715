package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/report"
)

// TestChaosRunThenCheckpointResume is the acceptance path for the
// hardened execution layer: a run with injected panics on ~10% of the
// fault sites finishes the remaining faults, reports the aborted ones
// under distinct reasons and exits 1; a second run against the same
// checkpoint restores every completed fault, recomputes only the
// aborted ones and exits 0.
//
// obs.Default is process-global, so the second run's report would
// double-count the first run's events; the report assertions therefore
// target run 1 only, and resume is asserted through run 2's stdout.
func TestChaosRunThenCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	repJSON := filepath.Join(dir, "report.json")

	// Run 1: deterministic chaos panics on the per-fault ATPG site.
	var out1, err1 bytes.Buffer
	code := realMain([]string{
		"-chaos-prob", "0.1", "-chaos-seed", "11", "-chaos-action", "panic",
		"-chaos-sites", "atpg.fault",
		"-checkpoint", ckpt,
		"-report", repJSON,
	}, &out1, &err1)
	if code != 1 {
		t.Fatalf("chaos run: exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out1.String(), err1.String())
	}
	if !strings.Contains(err1.String(), "run degraded") {
		t.Errorf("chaos run stderr missing degradation notice:\n%s", err1.String())
	}
	if strings.Contains(out1.String(), " 0 aborted,") {
		t.Fatalf("chaos run reported no aborted faults; injection did not fire:\n%s", out1.String())
	}
	// The run must still have completed the non-injected faults.
	if !strings.Contains(out1.String(), "detected") {
		t.Fatalf("chaos run produced no fault summary:\n%s", out1.String())
	}

	data, rerr := os.ReadFile(repJSON)
	if rerr != nil {
		t.Fatalf("reading report: %v", rerr)
	}
	var rep report.Report
	if jerr := json.Unmarshal(data, &rep); jerr != nil {
		t.Fatalf("parsing report: %v", jerr)
	}
	if rep.Faults == nil {
		t.Fatal("report has no faults section")
	}
	if rep.Faults.Aborted == 0 {
		t.Errorf("report: aborted = 0, want > 0")
	}
	if len(rep.Faults.AbortReasons) == 0 {
		t.Errorf("report: abort_reasons empty, want per-reason breakdown")
	}
	if rep.Faults.AbortReasons["panic"] == 0 {
		t.Errorf("report: abort_reasons = %v, want a \"panic\" bucket", rep.Faults.AbortReasons)
	}
	if rep.Snapshot == nil || rep.Snapshot.Counters["guard.panics"] == 0 {
		t.Errorf("report: snapshot's guard.panics counter is 0, want > 0")
	}

	// Run 2: no chaos, same checkpoint — completed faults restore,
	// aborted ones recompute, everything classifies → exit 0.
	var out2, err2 bytes.Buffer
	code = realMain([]string{"-checkpoint", ckpt}, &out2, &err2)
	if code != 0 {
		t.Fatalf("resume run: exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out2.String(), err2.String())
	}
	if !strings.Contains(out2.String(), "resumed") || !strings.Contains(out2.String(), "from checkpoint") {
		t.Errorf("resume run did not report restoring from checkpoint:\n%s", out2.String())
	}
	if !strings.Contains(out2.String(), " 0 aborted, 0 timed-out,") {
		t.Errorf("resume run still has degraded faults:\n%s", out2.String())
	}
	if !strings.Contains(out2.String(), "coverage 100.0%") {
		t.Errorf("resume run did not reach full coverage:\n%s", out2.String())
	}
}

// TestChaosPanicsPlusBudgetExhaustion combines injected panics with a
// starvation-level BDD node budget: the run must finish the unaffected
// faults, file the casualties under *distinct* reasons (a panic bucket
// and a budget bucket naming the exhausted resource) and exit 1.
func TestChaosPanicsPlusBudgetExhaustion(t *testing.T) {
	repJSON := filepath.Join(t.TempDir(), "report.json")
	var out, errw bytes.Buffer
	code := realMain([]string{
		"-chaos-prob", "0.1", "-chaos-seed", "11", "-chaos-action", "panic",
		"-chaos-sites", "atpg.fault",
		"-bdd-budget", "1",
		"-report", repJSON,
	}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	data, err := os.ReadFile(repJSON)
	if err != nil {
		t.Fatalf("reading report: %v", err)
	}
	var rep report.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("parsing report: %v", err)
	}
	if rep.Faults == nil {
		t.Fatal("report has no faults section")
	}
	var havePanic, haveBudget bool
	for reason, n := range rep.Faults.AbortReasons {
		if n == 0 {
			continue
		}
		if reason == "panic" {
			havePanic = true
		}
		if strings.HasPrefix(reason, "budget") {
			haveBudget = true
		}
	}
	if !havePanic || !haveBudget {
		t.Errorf("abort_reasons = %v, want both a panic and a budget bucket", rep.Faults.AbortReasons)
	}
	// The run must still have made progress on the surviving faults.
	if !strings.Contains(out.String(), "detected") || strings.Contains(out.String(), " 0 detected,") {
		t.Errorf("run detected nothing despite partial injection:\n%s", out.String())
	}
}

// TestWorkersMatchesSequential is the acceptance path for the sharded
// runtime through the CLI: the same vehicle run with -workers 1 and
// -workers 4 exits 0 both times and reports identical fault
// classification (detected/untestable counts), and the parallel run's
// stdout names the shard count.
func TestWorkersMatchesSequential(t *testing.T) {
	summary := regexp.MustCompile(`(\d+) collapsed faults: (\d+) detected, (\d+) untestable`)
	runOnce := func(workers string) (string, []string) {
		t.Helper()
		var out, errw bytes.Buffer
		code := realMain([]string{"-workers", workers}, &out, &errw)
		if code != 0 {
			t.Fatalf("-workers %s: exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s",
				workers, code, out.String(), errw.String())
		}
		m := summary.FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("-workers %s: no fault summary in stdout:\n%s", workers, out.String())
		}
		return out.String(), m[1:]
	}
	_, seq := runOnce("1")
	parOut, par := runOnce("4")
	for i, name := range []string{"total", "detected", "untestable"} {
		if seq[i] != par[i] {
			t.Errorf("%s faults: sequential %s, workers=4 %s", name, seq[i], par[i])
		}
	}
	if !strings.Contains(parOut, "sharded across 4 workers") {
		t.Errorf("parallel run does not report its shard count:\n%s", parOut)
	}
	// -program compiles the same analog/digital sections either way.
	var progSeq, progPar, errw bytes.Buffer
	if code := realMain([]string{"-program"}, &progSeq, &errw); code != 0 {
		t.Fatalf("-program: exit %d\n%s", code, errw.String())
	}
	if code := realMain([]string{"-program", "-workers", "3"}, &progPar, &errw); code != 0 {
		t.Fatalf("-program -workers 3: exit %d\n%s", code, errw.String())
	}
	stripTimes := func(s string) string {
		return regexp.MustCompile(`generated in [^)]+`).ReplaceAllString(s, "generated in X")
	}
	seqPlan, parPlan := stripTimes(progSeq.String()), stripTimes(progPar.String())
	// The analog and conversion sections are byte-identical; the digital
	// vector set may legitimately differ between worker counts, so
	// compare the plans only up to the digital section header.
	cut := strings.Index(seqPlan, "[3] digital")
	pcut := strings.Index(parPlan, "[3] digital")
	if cut < 0 || pcut < 0 {
		t.Fatalf("plans missing digital section:\n%s\n%s", seqPlan, parPlan)
	}
	if seqPlan[:cut] != parPlan[:pcut] {
		t.Errorf("-program analog/conversion sections diverge between worker counts:\n--- workers=1\n%s\n--- workers=3\n%s",
			seqPlan[:cut], parPlan[:pcut])
	}
	if code := realMain([]string{"-workers", "0"}, &progSeq, &errw); code != 2 {
		t.Errorf("-workers 0: exit %d, want 2", code)
	}
}

// TestExportFlagsWriteFiles runs the default vehicle with every file
// export flag at once and checks that each file renders the one run
// record: the JSON record decodes as a report.Report whose snapshot
// carries counters and spans, the Chrome trace is a JSON document, and
// the text report carries its fault and engine sections. obs.Default is
// process-global, so counts carry over from other tests; only structure
// is asserted.
func TestExportFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	record := filepath.Join(dir, "report.json")
	text := filepath.Join(dir, "report.txt")
	chrome := filepath.Join(dir, "trace.json")
	var out, errw bytes.Buffer
	code := realMain([]string{"-report", record, "-report-text", text, "-trace-chrome", chrome}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr:\n%s", code, errw.String())
	}
	read := func(path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var rec report.Report
	if err := json.Unmarshal(read(record), &rec); err != nil {
		t.Fatalf("run record does not decode as a report: %v", err)
	}
	if rec.Faults == nil || rec.Snapshot == nil {
		t.Fatalf("run record lacks its faults section or snapshot: %+v", rec)
	}
	if rec.Snapshot.Counters["atpg.faults.total"] == 0 || len(rec.Snapshot.Spans) == 0 {
		t.Errorf("run record's snapshot has no fault counters or spans: counters %v, %d spans",
			rec.Snapshot.Counters, len(rec.Snapshot.Spans))
	}
	// The flow's phase spans start from the run's context, so each
	// chains under an msatpg.run span.
	runs := map[int64]bool{}
	for _, sp := range rec.Snapshot.Spans {
		if sp.Name == "msatpg.run" {
			runs[sp.ID] = true
		}
	}
	for _, phase := range []string{"phase.analog", "phase.conversion", "phase.digital"} {
		chained := false
		for _, sp := range rec.Snapshot.Spans {
			chained = chained || (sp.Name == phase && runs[sp.ParentID])
		}
		if !chained {
			t.Errorf("run record has no %s span under msatpg.run", phase)
		}
	}
	var doc map[string]any
	if err := json.Unmarshal(read(chrome), &doc); err != nil {
		t.Errorf("Chrome trace does not parse as JSON: %v", err)
	}
	rep := string(read(text))
	for _, want := range []string{"digital stuck-at faults:", "engine:"} {
		if !strings.Contains(rep, want) {
			t.Errorf("text report lacks %q:\n%s", want, rep)
		}
	}
}

// TestProgramHonoursRobustnessFlags drives -program through the same
// guard harness as the summary: injected panics abort element tests
// instead of killing the process, a starvation node budget degrades the
// digital run, and a checkpoint is written and resumed into the same
// program.
func TestProgramHonoursRobustnessFlags(t *testing.T) {
	var out, errw bytes.Buffer
	if code := realMain([]string{"-program", "-chaos-prob", "0.3", "-chaos-seed", "7"}, &out, &errw); code != 1 {
		t.Errorf("-program with chaos: exit %d, want 1\nstderr:\n%s", code, errw.String())
	}
	if !strings.Contains(out.String(), "ABORTED (panic)") {
		t.Errorf("-program with chaos lists no aborted element test:\n%s", out.String())
	}

	out.Reset()
	if code := realMain([]string{"-program", "-bdd-budget", "1"}, &out, &errw); code != 1 {
		t.Errorf("-program -bdd-budget 1: exit %d, want 1\nstdout:\n%s", code, out.String())
	}

	ckpt := filepath.Join(t.TempDir(), "prog.ckpt")
	stripTimes := regexp.MustCompile(`generated in [^)]+`)
	var plans [2]string
	for i := range plans {
		out.Reset()
		if code := realMain([]string{"-program", "-checkpoint", ckpt}, &out, &errw); code != 0 {
			t.Fatalf("-program -checkpoint run %d: exit %d\nstderr:\n%s", i+1, code, errw.String())
		}
		if fi, err := os.Stat(ckpt); err != nil || fi.Size() == 0 {
			t.Fatalf("-program -checkpoint run %d left no checkpoint: %v", i+1, err)
		}
		plans[i] = stripTimes.ReplaceAllString(out.String(), "generated in X")
	}
	if plans[0] != plans[1] {
		t.Errorf("resumed program differs:\n--- first\n%s\n--- resumed\n%s", plans[0], plans[1])
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	cases := [][]string{
		{"-circuit", "nope"},
		{"-circuit", "chebyshev", "-digital", "c9999"},
		{"-digital", "c432"}, // the band-pass vehicle pairs with fig3 only
		{"-chaos-prob", "0.5", "-chaos-action", "explode"},
		{"-no-such-flag"},
		{"positional"},
		{"-live", "not-an-address"},
		{"-stats", "f"},
		{"-trace-out", "f"},
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if code := realMain(args, &out, &errw); code != 2 {
			t.Errorf("realMain(%v) = %d, want 2\nstderr:\n%s", args, code, errw.String())
		}
	}
}

func TestUsageDocumentsExitCodes(t *testing.T) {
	var out, errw bytes.Buffer
	realMain([]string{"-h"}, &out, &errw)
	usage := errw.String()
	for _, want := range []string{"Exit status", "0  every fault", "1  degraded", "2  usage or input"} {
		if !strings.Contains(usage, want) {
			t.Errorf("usage text missing %q:\n%s", want, usage)
		}
	}
}

func TestCorruptCheckpointExit2(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if code := realMain([]string{"-checkpoint", path}, &out, &errw); code != 2 {
		t.Errorf("corrupt checkpoint: exit code = %d, want 2\nstderr:\n%s", code, errw.String())
	}
}

// lockedBuffer is a bytes.Buffer safe for the concurrent writes the
// live-server test performs (realMain writing stderr in one goroutine,
// the test reading it from another).
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestLiveServerEndToEnd runs the real flow with -live on an ephemeral
// port and scrapes the ops surface while it is up: the announced URL
// must serve /healthz and /progressz, and the run must still exit 0.
func TestLiveServerEndToEnd(t *testing.T) {
	var out lockedBuffer
	var errw lockedBuffer
	code := make(chan int, 1)
	go func() {
		code <- realMain([]string{"-live", "127.0.0.1:0", "-live-linger", "2s"}, &out, &errw)
	}()

	urlRE := regexp.MustCompile(`http://[^/\s]+`)
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := urlRE.FindString(errw.String()); m != "" {
			base = m
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live server URL never announced on stderr:\n%s", errw.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	get := func(path string) []byte {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		return body
	}
	var health struct {
		Status string `json:"status"`
		Phase  string `json:"phase"`
	}
	if err := json.Unmarshal(get("/healthz"), &health); err != nil {
		t.Fatalf("healthz JSON: %v", err)
	}
	if health.Status != "ok" || health.Phase == "" {
		t.Errorf("healthz = %+v, want ok with a phase", health)
	}
	if !bytes.Contains(get("/progressz"), []byte(`"faults"`)) {
		t.Error("progressz does not report faults")
	}

	if c := <-code; c != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr:\n%s", c, errw.String())
	}
	if !strings.Contains(errw.String(), "live ops on") {
		t.Errorf("stderr does not announce the live server:\n%s", errw.String())
	}
}
