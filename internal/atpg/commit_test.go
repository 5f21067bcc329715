package atpg

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/guard"
	"repro/internal/iscas"
	"repro/internal/obs"
	"repro/internal/report"
)

// rootProbe is a run context whose Value hook reads the run's root
// collector. chaos.Step looks its injector up through Value on every
// shard round and every solve, so the hook samples the root from the
// shard goroutines while the run is in flight.
type rootProbe struct {
	context.Context
	root *obs.Collector

	mu          sync.Mutex
	detected    int64 // highest atpg.faults.detected seen
	faultEvents int   // fault events on the root when detected first moved
}

func (p *rootProbe) Value(key any) any {
	det := p.root.Counter("atpg.faults.detected").Load()
	p.mu.Lock()
	if det > 0 && p.detected == 0 {
		evs, _ := p.root.EventsSince(0)
		for _, ev := range evs {
			if ev.Kind == "fault" {
				p.faultEvents++
			}
		}
	}
	p.detected = max(p.detected, det)
	p.mu.Unlock()
	return p.Context.Value(key)
}

// TestRootRecordsOutcomesLive requires a sharded run's committed
// outcomes to reach its root collector as they commit, not when the
// shard lanes merge at the end: later rounds' solves must already see
// detections and fault events on the root.
func TestRootRecordsOutcomesLive(t *testing.T) {
	c := iscas.MustBenchmark("c880")
	fs := faults.Collapse(c)
	root := obs.NewCollector()
	probe := &rootProbe{Context: context.Background(), root: root}
	res, err := RunParallel(c, fs,
		WithWorkers(3),
		WithContext(probe),
		WithShardOptions(WithCollector(root)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected == 0 {
		t.Fatal("run detected nothing")
	}
	if probe.detected == 0 {
		t.Error("no solve saw atpg.faults.detected > 0 on the root while the run was in flight")
	}
	if probe.faultEvents == 0 {
		t.Error("no solve saw a fault event on the root while the run was in flight")
	}
}

// TestFaultCountersMatchRecord checks the fault tallies against the run
// record built from the same snapshot, at one and three workers, with
// and without the random phase: atpg.faults.detected counts every
// detection (tested, dropped and random), atpg.faults.dropped only the
// faults a deterministic-phase vector detected without targeting them.
// With more than one worker each targeted fault's event names the shard
// lane that solved it.
func TestFaultCountersMatchRecord(t *testing.T) {
	c := iscas.MustBenchmark("c880")
	fs := faults.Collapse(c)
	for _, workers := range []int{1, 3} {
		for _, random := range []int{0, 8} {
			t.Run(fmt.Sprintf("workers=%d/random=%d", workers, random), func(t *testing.T) {
				root := obs.NewCollector()
				opts := []RunOption{WithWorkers(workers), WithShardOptions(WithCollector(root))}
				if random > 0 {
					opts = append(opts, WithRandomPhase(random, 7))
				}
				res, err := RunParallel(c, fs, opts...)
				if err != nil {
					t.Fatal(err)
				}
				snap := root.Snapshot()
				rec := report.Build(snap).Faults
				n := snap.Counters
				if rec.Dropped == 0 || (random > 0) != (rec.Random > 0) {
					t.Fatalf("record has %d dropped and %d random faults; the check needs drops, and random hits exactly with the random phase",
						rec.Dropped, rec.Random)
				}
				if got, want := n["atpg.faults.detected"], int64(rec.Tested+rec.Dropped+rec.Random); got != want {
					t.Errorf("atpg.faults.detected = %d, want tested+dropped+random = %d", got, want)
				}
				if got := n["atpg.faults.detected"]; got != int64(res.Detected) {
					t.Errorf("atpg.faults.detected = %d, Result.Detected %d", got, res.Detected)
				}
				if got := n["atpg.faults.dropped"]; got != int64(rec.Dropped) {
					t.Errorf("atpg.faults.dropped = %d, record's faults.dropped %d", got, rec.Dropped)
				}
				if got := n["atpg.random.hits"]; got != int64(rec.Random) {
					t.Errorf("atpg.random.hits = %d, record's faults.random %d", got, rec.Random)
				}
				if got := n["atpg.faults.untestable"]; got != int64(rec.Untestable) {
					t.Errorf("atpg.faults.untestable = %d, record's faults.untestable %d", got, rec.Untestable)
				}
				for _, ev := range snap.Events {
					if ev.Kind != "fault" || ev.Attr("outcome") != "tested" {
						continue
					}
					shard := ev.Attr("shard")
					if workers > 1 && !strings.HasPrefix(shard, "shard") {
						t.Fatalf("tested event %s names shard %q, want its lane", ev.Name, shard)
					}
					if workers == 1 && shard != "" {
						t.Fatalf("one-worker tested event %s names shard %q", ev.Name, shard)
					}
				}
			})
		}
	}
}

// TestRunParallelResumesLegacyShardTags resumes from a checkpoint whose
// records carry the "shard" key older runs wrote: every record
// restores, the run lands on the reference classification, and the
// checkpoint it flushes no longer carries the key.
func TestRunParallelResumesLegacyShardTags(t *testing.T) {
	c := iscas.MustBenchmark("c432")
	fs := faults.Collapse(c)
	path := filepath.Join(t.TempDir(), "ckpt.json")
	cp, err := guard.OpenCheckpoint(path, "legacy-shard-test")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunParallel(c, fs, WithWorkers(2), WithCheckpoint(cp),
		WithShardOptions(WithCollector(nil)))
	if err != nil {
		t.Fatal(err)
	}

	// Keep every other record and tag each with a shard lane, as a
	// sharded run used to.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var kept []any
	for i, r := range doc["records"].([]any) {
		if i%2 == 0 {
			r.(map[string]any)["shard"] = fmt.Sprintf("shard%d", i%3)
			kept = append(kept, r)
		}
	}
	doc["records"] = kept
	if data, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cp2, err := guard.OpenCheckpoint(path, "legacy-shard-test")
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := RunParallel(c, fs, WithWorkers(3), WithCheckpoint(cp2),
		WithShardOptions(WithCollector(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != len(kept) {
		t.Errorf("resumed %d faults, want %d (one per legacy record)", resumed.Resumed, len(kept))
	}
	if resumed.Coverage() != ref.Coverage() || resumed.Detected != ref.Detected {
		t.Errorf("resumed coverage/detected = %v/%d, want %v/%d",
			resumed.Coverage(), resumed.Detected, ref.Coverage(), ref.Detected)
	}
	if !reflect.DeepEqual(untestableNames(t, c, resumed), untestableNames(t, c, ref)) {
		t.Error("resumed untestable classification differs from the reference run")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(after), `"shard"`) {
		t.Error("the resumed run's checkpoint still carries shard keys")
	}
}
