package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

// span builds a SpanRecord for the critical-path tests. IDs follow the
// lane-major layout obs uses (lane<<32 | seq) so tests mirror real logs.
func span(name, track string, lane, seq, parent, start, dur int64) obs.SpanRecord {
	return obs.SpanRecord{
		Name:     name,
		Track:    track,
		ID:       lane<<32 | seq,
		ParentID: parent,
		StartNs:  start,
		DurNs:    dur,
	}
}

// causalSnapshot models a two-lane run: a root span on the main lane
// fans out to two worker spans; the second worker ends last, so the
// critical path descends through it.
func causalSnapshot() *obs.Snapshot {
	rootID := int64(0)<<32 | 1
	w2ID := int64(2)<<32 | 1
	return &obs.Snapshot{
		Spans: []obs.SpanRecord{
			span("run", "", 0, 1, 0, 0, 1000),
			span("solve", "w1", 1, 1, rootID, 100, 300),
			span("solve", "w2", 2, 1, rootID, 100, 800),
			span("canon", "w2", 2, 2, w2ID, 200, 500),
		},
	}
}

func TestBuildCriticalPath(t *testing.T) {
	c := critical(causalSnapshot())
	if c == nil {
		t.Fatal("critical returned nil for a populated snapshot")
	}
	if c.WallNs != 1000 {
		t.Errorf("WallNs = %d, want 1000", c.WallNs)
	}
	var names []string
	for _, step := range c.Path {
		names = append(names, step.Name)
	}
	want := []string{"run", "solve", "canon"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("path = %v, want %v", names, want)
	}
	// Fully nested chain: overlaps telescope away, so the path length is
	// the root's duration.
	if c.PathNs != 1000 {
		t.Errorf("PathNs = %d, want 1000", c.PathNs)
	}
	if c.Path[1].Track != "w2" {
		t.Errorf("path step 2 track = %q, want w2 (the lane that ends last)", c.Path[1].Track)
	}
}

func TestBuildCriticalUtilization(t *testing.T) {
	c := critical(causalSnapshot())
	util := map[string]TrackUtilization{}
	for _, u := range c.Tracks {
		util[u.Track] = u
	}
	if len(c.Tracks) != 3 || c.Tracks[0].Track != "" {
		t.Fatalf("tracks = %+v, want root lane first of 3", c.Tracks)
	}
	if got := util[""].BusyNs; got != 1000 {
		t.Errorf("main busy = %d, want 1000", got)
	}
	if got := util["w1"].BusyNs; got != 300 {
		t.Errorf("w1 busy = %d, want 300", got)
	}
	// w2's two spans overlap (100..900 and 200..700): union, not sum.
	if got := util["w2"].BusyNs; got != 800 {
		t.Errorf("w2 busy = %d, want 800 (interval union, not sum)", got)
	}
	if got := util["w1"].Percent; got != 30 {
		t.Errorf("w1 percent = %.1f, want 30.0", got)
	}
}

func TestBuildCriticalBlocking(t *testing.T) {
	c := critical(causalSnapshot())
	self := map[string]BlockingSpan{}
	for _, b := range c.Blocking {
		self[b.Name] = b
	}
	// run: 1000 minus children (100..400 ∪ 100..900 = 800) = 200.
	if got := self["run"].SelfNs; got != 200 {
		t.Errorf("run self = %d, want 200", got)
	}
	// solve aggregates both lanes: w1 has no children (300 self), w2's
	// child covers 200..700 of its 100..900 window (800 - 500 = 300).
	if got := self["solve"].SelfNs; got != 600 {
		t.Errorf("solve self = %d, want 600", got)
	}
	if got := self["solve"].Count; got != 2 {
		t.Errorf("solve count = %d, want 2", got)
	}
	if c.Blocking[0].Name != "solve" {
		t.Errorf("top blocking = %q, want solve", c.Blocking[0].Name)
	}
}

func TestBuildCriticalOrphanAndLegacySpans(t *testing.T) {
	// Legacy (id-less) spans and an orphan whose parent fell off the log
	// must not break the analysis.
	s := &obs.Snapshot{
		Spans: []obs.SpanRecord{
			{Name: "legacy", StartNs: 0, DurNs: 50},
			span("orphan", "w1", 1, 5, int64(9)<<32|7, 10, 500),
		},
	}
	c := critical(s)
	if c == nil || len(c.Path) == 0 {
		t.Fatal("no critical path for orphan snapshot")
	}
	if c.Path[0].Name != "orphan" {
		t.Errorf("path root = %q, want orphan (ends last)", c.Path[0].Name)
	}
}

func TestBuildCriticalEmpty(t *testing.T) {
	if c := critical(&obs.Snapshot{}); c != nil {
		t.Errorf("critical on empty snapshot = %+v, want nil", c)
	}
}

func TestWriteTextCriticalSection(t *testing.T) {
	r := Build(causalSnapshot())
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"critical path:", "track utilization:", "top blocking spans", "w2"} {
		if !strings.Contains(out, want) {
			t.Errorf("report text missing %q:\n%s", want, out)
		}
	}
}
