package atpg

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/guard"
	"repro/internal/guard/chaos"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/obs"
)

func untestableNames(t *testing.T, c *logic.Circuit, res *Result) []string {
	t.Helper()
	names := make([]string, len(res.Untestable))
	for i, f := range res.Untestable {
		names[i] = f.Name(c)
	}
	sort.Strings(names)
	return names
}

// TestRunParallelMatchesSequentialClassification pins the cross-worker
// half of the determinism contract: for a fixed seed, coverage, the
// detected count and the untestable classification are identical for
// workers ∈ {1, 2, 4} — the paper's classification of each fault is
// intrinsic, not a scheduling artifact.
func TestRunParallelMatchesSequentialClassification(t *testing.T) {
	c := iscas.MustBenchmark("c432")
	fs := faults.Collapse(c)
	type outcome struct {
		coverage   float64
		detected   int
		total      int
		untestable []string
	}
	var ref *outcome
	for _, workers := range []int{1, 2, 4} {
		res, err := RunParallel(c, fs,
			WithWorkers(workers),
			WithRandomPhase(16, 42),
			WithShardOptions(WithCollector(obs.NewCollector())))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Aborted) != 0 || len(res.TimedOut) != 0 {
			t.Fatalf("workers=%d: unexpected aborts %d / timeouts %d",
				workers, len(res.Aborted), len(res.TimedOut))
		}
		got := &outcome{res.Coverage(), res.Detected, res.Total, untestableNames(t, c, res)}
		if ref == nil {
			ref = got
			continue
		}
		if got.coverage != ref.coverage || got.detected != ref.detected || got.total != ref.total {
			t.Errorf("workers=%d: coverage/detected/total = %v/%d/%d, want %v/%d/%d",
				workers, got.coverage, got.detected, got.total, ref.coverage, ref.detected, ref.total)
		}
		if !reflect.DeepEqual(got.untestable, ref.untestable) {
			t.Errorf("workers=%d: untestable set %v, want %v", workers, got.untestable, ref.untestable)
		}
		// Every vector set must detect every testable fault on its own.
		sim := faults.NewSimulator(c)
		det := sim.Detect(res.Vectors, fs)
		missed := 0
		unt := map[string]bool{}
		for _, n := range got.untestable {
			unt[n] = true
		}
		for j, d := range det {
			if d < 0 && !unt[fs[j].Name(c)] {
				missed++
			}
		}
		if missed != 0 {
			t.Errorf("workers=%d: vector set misses %d testable faults", workers, missed)
		}
	}
}

// parallelRunWithRoot runs RunParallel at the given worker count on a
// fresh root collector and returns the result plus the root.
func parallelRunWithRoot(t *testing.T, workers int) (*Result, *obs.Collector) {
	t.Helper()
	c := iscas.MustBenchmark("c432")
	fs := faults.Collapse(c)
	root := obs.NewCollector()
	res, err := RunParallel(c, fs,
		WithWorkers(workers),
		WithRandomPhase(16, 42),
		WithShardOptions(WithCollector(root)))
	if err != nil {
		t.Fatalf("RunParallel(workers=%d): %v", workers, err)
	}
	return res, root
}

// TestRunParallelDeterministic pins the fixed-worker-count half of the
// contract end to end through the real RunParallel entry point: two
// runs at workers=4 with the same seed produce an identical Result and
// a byte-identical normalized merged snapshot (span ids, event order,
// counters — everything but wall-clock).
func TestRunParallelDeterministic(t *testing.T) {
	res1, root1 := parallelRunWithRoot(t, 4)
	res2, root2 := parallelRunWithRoot(t, 4)

	if !reflect.DeepEqual(res1.Vectors, res2.Vectors) {
		t.Errorf("vector sets differ between identical runs (%d vs %d vectors)",
			len(res1.Vectors), len(res2.Vectors))
	}
	c := iscas.MustBenchmark("c432")
	if !reflect.DeepEqual(untestableNames(t, c, res1), untestableNames(t, c, res2)) {
		t.Error("untestable sets differ between identical runs")
	}
	if res1.Detected != res2.Detected || res1.RandomHits != res2.RandomHits ||
		res1.Retries != res2.Retries || res1.Resumed != res2.Resumed ||
		len(res1.Aborted) != len(res2.Aborted) || len(res1.TimedOut) != len(res2.TimedOut) {
		t.Errorf("result scalars differ: %+d/%d/%d vs %d/%d/%d",
			res1.Detected, res1.RandomHits, res1.Retries,
			res2.Detected, res2.RandomHits, res2.Retries)
	}

	snapJSON := func(root *obs.Collector) []byte {
		snap := root.Snapshot()
		normalizeMerged(snap)
		var buf bytes.Buffer
		if err := snap.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := snapJSON(root1), snapJSON(root2)
	if !bytes.Equal(a, b) {
		t.Errorf("merged snapshot differs between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			trunc(a), trunc(b))
	}

	// The merged trace carries one lane per shard.
	snap := root1.Snapshot()
	tracks := map[string]bool{}
	for _, sp := range snap.Spans {
		tracks[sp.Track] = true
	}
	for _, want := range []string{"shard0", "shard1", "shard2", "shard3"} {
		if !tracks[want] {
			t.Errorf("merged snapshot missing track %s", want)
		}
	}
	if got := snap.Gauges["atpg.shard.workers"]; got != 4 {
		t.Errorf("atpg.shard.workers = %d, want 4", got)
	}
	if snap.Counters["atpg.shard.vectors_exchanged"] == 0 {
		t.Error("atpg.shard.vectors_exchanged = 0, want > 0")
	}
}

// TestRunParallelShardChaosAbortsPending injects a certain failure at
// the shard boundary: every worker dies, and instead of hanging the run
// completes with every fault as a typed abort and the shard deaths
// counted on atpg.shard.aborts.
func TestRunParallelShardChaosAbortsPending(t *testing.T) {
	c := iscas.MustBenchmark("c432")
	fs := faults.Collapse(c)
	ctx := chaos.Into(context.Background(),
		chaos.New(7, 1, chaos.AtSites(chaos.SiteATPGShard), chaos.WithAction(chaos.Error)))
	root := obs.NewCollector()
	res, err := RunParallel(c, fs,
		WithWorkers(4),
		WithContext(ctx),
		WithShardOptions(WithCollector(root)))
	if err != nil {
		t.Fatalf("RunParallel: %v", err)
	}
	if res.Detected != 0 || len(res.Aborted) != res.Total {
		t.Errorf("detected=%d aborted=%d, want 0 / %d (all shards dead at init)",
			res.Detected, len(res.Aborted), res.Total)
	}
	if got := root.Snapshot().Counters["atpg.shard.aborts"]; got != 4 {
		t.Errorf("atpg.shard.aborts = %d, want 4", got)
	}
}

// TestRunParallelCheckpointResumeRepartition is the re-partitioning resume
// test: a parallel run at workers=3 is killed mid-flight by chaos
// panics at the shard boundary, then resumed from its checkpoint at
// workers=5. The resumed run must land on exactly the reference
// coverage and untestable classification, and restore rather than
// recompute every checkpointed fault.
func TestRunParallelCheckpointResumeRepartition(t *testing.T) {
	c := iscas.MustBenchmark("c432")
	fs := faults.Collapse(c)

	ref, err := RunParallel(c, fs, WithWorkers(1),
		WithShardOptions(WithCollector(obs.NewCollector())))
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	path := filepath.Join(t.TempDir(), "ckpt.json")
	cp, err := guard.OpenCheckpoint(path, "shard-resume-test")
	if err != nil {
		t.Fatalf("OpenCheckpoint: %v", err)
	}
	// Chaos panics at the shard boundary, with a seed chosen so every
	// worker survives startup and its first rounds (checkpointing that
	// work) and at least one worker dies mid-flight.
	ctx := chaos.Into(context.Background(), midFlightKiller(t, 3))
	killed, err := RunParallel(c, fs,
		WithWorkers(3),
		WithContext(ctx),
		WithCheckpoint(cp),
		WithShardOptions(WithCollector(obs.NewCollector())))
	if err != nil {
		t.Fatalf("killed run: %v", err)
	}
	if len(killed.Aborted) == 0 {
		t.Fatal("chaos run aborted nothing; the kill never happened")
	}
	if killed.Detected == 0 {
		t.Fatal("chaos run completed nothing; there is nothing to resume")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading checkpoint: %v", err)
	}
	file, err := guard.DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("DecodeCheckpoint: %v", err)
	}
	if len(file.Records) == 0 {
		t.Fatal("checkpoint is empty after the killed run")
	}
	restored := map[string]bool{}
	for _, r := range file.Records {
		restored[r.Key] = true
	}

	cp2, err := guard.OpenCheckpoint(path, "shard-resume-test")
	if err != nil {
		t.Fatalf("reopening checkpoint: %v", err)
	}
	root2 := obs.NewCollector()
	resumed, err := RunParallel(c, fs,
		WithWorkers(5),
		WithCheckpoint(cp2),
		WithShardOptions(WithCollector(root2)))
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if resumed.Resumed != len(file.Records) {
		t.Errorf("resumed %d faults, want %d (one per checkpoint record)",
			resumed.Resumed, len(file.Records))
	}
	if len(resumed.Aborted) != 0 || len(resumed.TimedOut) != 0 {
		t.Errorf("resumed run still has %d aborts / %d timeouts",
			len(resumed.Aborted), len(resumed.TimedOut))
	}
	if resumed.Coverage() != ref.Coverage() || resumed.Detected != ref.Detected {
		t.Errorf("resumed coverage/detected = %v/%d, want %v/%d",
			resumed.Coverage(), resumed.Detected, ref.Coverage(), ref.Detected)
	}
	if !reflect.DeepEqual(untestableNames(t, c, resumed), untestableNames(t, c, ref)) {
		t.Error("resumed untestable classification differs from the reference run")
	}
	// No fault computed twice: a restored fault may only appear in the
	// resumed run's event stream with outcome=resumed.
	for _, ev := range root2.Snapshot().Events {
		if ev.Kind != "fault" || !restored[ev.Name] {
			continue
		}
		for _, a := range ev.Attrs {
			if a.Key == "outcome" && a.Value != "resumed" {
				t.Errorf("restored fault %q was recomputed (outcome %q)", ev.Name, a.Value)
			}
		}
	}
}

// midFlightKiller returns a panic-only injector at the shard boundary
// whose deterministic firing pattern (a pure hash of site, key and seed)
// spares every shard's startup key and first two round keys, but kills
// at least one shard within its first 30 rounds. The seed search is
// itself deterministic, so the test replays identically.
func midFlightKiller(t *testing.T, workers int) *chaos.Injector {
	t.Helper()
	track := func(i int) string { return "shard" + string(rune('0'+i)) }
	for seed := int64(0); seed < 10_000; seed++ {
		in := chaos.New(seed, 0.2,
			chaos.AtSites(chaos.SiteATPGShard), chaos.WithAction(chaos.Panic))
		ok, kills := true, false
		for i := 0; i < workers && ok; i++ {
			if in.Decide(chaos.SiteATPGShard, track(i)) != chaos.None {
				ok = false // must survive startup
			}
			for k := 0; k < 2; k++ {
				if in.Decide(chaos.SiteATPGShard, fmt.Sprintf("%s#%d", track(i), k)) != chaos.None {
					ok = false // must complete (and checkpoint) early rounds
				}
			}
			for k := 2; k < 30; k++ {
				if in.Decide(chaos.SiteATPGShard, fmt.Sprintf("%s#%d", track(i), k)) != chaos.None {
					kills = true
				}
			}
		}
		if ok && kills {
			return in
		}
	}
	t.Fatal("no chaos seed kills a shard mid-flight within 10000 candidates")
	return nil
}

// TestRandomHitsCounterNotInflatedOnResume is the regression test for
// the atpg.random.hits double count: hits restored from a checkpoint
// already sit in res.RandomHits, and a resumed run must not re-add them
// to the counter as if its own random phase had found them.
func TestRandomHitsCounterNotInflatedOnResume(t *testing.T) {
	c := iscas.MustBenchmark("c432")
	fs := faults.Collapse(c)
	path := filepath.Join(t.TempDir(), "ckpt.json")

	cp, err := guard.OpenCheckpoint(path, "random-hits-test")
	if err != nil {
		t.Fatalf("OpenCheckpoint: %v", err)
	}
	col := obs.NewCollector()
	g, err := New(c, WithCollector(col))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	first := g.Run(fs, WithRandomPhase(64, 42), WithCheckpoint(cp))
	if first.RandomHits == 0 {
		t.Fatal("first run had no random hits; the regression needs some to restore")
	}
	if got := col.Snapshot().Counters["atpg.random.hits"]; got != int64(first.RandomHits) {
		t.Fatalf("first run counter = %d, want %d", got, first.RandomHits)
	}

	cp2, err := guard.OpenCheckpoint(path, "random-hits-test")
	if err != nil {
		t.Fatalf("reopening checkpoint: %v", err)
	}
	col2 := obs.NewCollector()
	g2, err := New(c, WithCollector(col2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	resumed := g2.Run(fs, WithRandomPhase(64, 42), WithCheckpoint(cp2))
	if resumed.RandomHits != first.RandomHits {
		t.Fatalf("resumed RandomHits = %d, want %d restored", resumed.RandomHits, first.RandomHits)
	}
	// Everything was restored, so the resumed run's own random phase hit
	// nothing — the counter must stay at zero, not re-count the restores.
	if got := col2.Snapshot().Counters["atpg.random.hits"]; got != 0 {
		t.Errorf("resumed run counted atpg.random.hits = %d, want 0 (hits were restored, not found)", got)
	}
}

// TestCheckpointVectorWidthValidated is the regression test for resuming
// a "tested" record whose vector does not match the circuit: a stale or
// cross-circuit checkpoint must trigger a recompute (counted under
// atpg.checkpoint.errors), not inject a wrong-width vector.
func TestCheckpointVectorWidthValidated(t *testing.T) {
	c := adder(t) // 3 inputs
	fs := faults.Collapse(c)
	path := filepath.Join(t.TempDir(), "ckpt.json")
	cp, err := guard.OpenCheckpoint(path, "width-test")
	if err != nil {
		t.Fatalf("OpenCheckpoint: %v", err)
	}
	victim := fs[0].Name(c)
	// A vector twice the circuit's width, as a checkpoint from some other
	// circuit would carry.
	if err := cp.Put(guard.Record{Key: victim, Outcome: "tested", Vector: "010101"}); err != nil {
		t.Fatalf("Put: %v", err)
	}

	col := obs.NewCollector()
	g, err := New(c, WithCollector(col))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := g.Run(fs, WithCheckpoint(cp))
	if res.Resumed != 0 {
		t.Errorf("resumed %d faults from a wrong-width record, want 0", res.Resumed)
	}
	if got := col.Snapshot().Counters["atpg.checkpoint.errors"]; got != 1 {
		t.Errorf("atpg.checkpoint.errors = %d, want 1", got)
	}
	nIn := len(c.Inputs())
	for i, v := range res.Vectors {
		if len(v) != nIn {
			t.Fatalf("vector %d has width %d, want %d — the stale record leaked through", i, len(v), nIn)
		}
	}
	if res.Coverage() != 1 {
		t.Errorf("coverage = %v after recompute, want 1", res.Coverage())
	}
}

// TestParallelSpeedup measures wall-clock at workers=4 against one
// worker on a multi-circuit workload. Timing assertions are
// meaningless under -race or on starved CI runners, so the check is
// opt-in: MSATPG_SPEEDUP=1 go test -run TestParallelSpeedup ./internal/atpg
// (perfbench's table4-sharded against table4-serial work_per_s measures
// the same ratio at 2 workers.)
func TestParallelSpeedup(t *testing.T) {
	if os.Getenv("MSATPG_SPEEDUP") == "" {
		t.Skip("set MSATPG_SPEEDUP=1 to run the wall-clock speedup gate")
	}
	workload := []string{"c880", "c1355", "c1908"}
	elapsed := func(workers int) time.Duration {
		start := time.Now()
		for _, name := range workload {
			c := iscas.MustBenchmark(name)
			fs := faults.Collapse(c)
			if _, err := RunParallel(c, fs, WithWorkers(workers),
				WithShardOptions(WithCollector(obs.NewCollector()))); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
		}
		return time.Since(start)
	}
	w1 := elapsed(1)
	w4 := elapsed(4)
	speedup := float64(w1) / float64(w4)
	t.Logf("workers=1: %v, workers=4: %v, speedup %.2fx", w1, w4, speedup)
	if speedup < 1.2 {
		t.Errorf("workers=4 speedup %.2fx, want >= 1.2x", speedup)
	}
}
