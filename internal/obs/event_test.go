package obs

import (
	"sync"
	"testing"
	"time"
)

func TestEventBasics(t *testing.T) {
	c := NewCollector()
	c.Event("fault", "l3 s-a-0",
		Str("outcome", "tested"), Int("product_nodes", 42), Float("ed", 0.101), Bool("ok", true))
	evs := c.Snapshot().Events
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Kind != "fault" || ev.Name != "l3 s-a-0" {
		t.Errorf("event identity wrong: %+v", ev)
	}
	if ev.Attr("outcome") != "tested" || ev.Attr("product_nodes") != "42" ||
		ev.Attr("ed") != "0.101" || ev.Attr("ok") != "true" {
		t.Errorf("attrs wrong: %+v", ev.Attrs)
	}
	if ev.Attr("absent") != "" {
		t.Error("absent attr should read empty")
	}
	if ev.TimeNs < 0 {
		t.Errorf("TimeNs = %d, want >= 0", ev.TimeNs)
	}
}

func TestEventSinceCarriesDuration(t *testing.T) {
	c := NewCollector()
	start := time.Now()
	time.Sleep(time.Millisecond)
	c.EventSince("element", "R1", start, Str("outcome", "testable"))
	ev := c.Snapshot().Events[0]
	if ev.DurNs <= 0 {
		t.Errorf("DurNs = %d, want > 0", ev.DurNs)
	}
}

func TestEventRingOverwritesOldest(t *testing.T) {
	c := NewCollector(WithMaxEvents(4))
	for i := int64(0); i < 10; i++ {
		c.Event("k", "e", Int("i", i))
	}
	s := c.Snapshot()
	evs := s.Events
	if len(evs) != 4 {
		t.Fatalf("retained = %d, want 4", len(evs))
	}
	// Ring keeps the most recent four, oldest first.
	for j, want := range []string{"6", "7", "8", "9"} {
		if got := evs[j].Attr("i"); got != want {
			t.Errorf("event %d = i:%s, want i:%s", j, got, want)
		}
	}
	if s.EventsDropped != 6 {
		t.Errorf("dropped = %d, want 6", s.EventsDropped)
	}
}

func TestEventsSince(t *testing.T) {
	c := NewCollector(WithMaxEvents(4))
	for i := int64(0); i < 3; i++ {
		c.Event("k", "e", Int("i", i))
	}
	// In-retention resume: exactly the new events, no gap.
	evs, first := c.EventsSince(1)
	if first != 1 || len(evs) != 2 {
		t.Fatalf("EventsSince(1) = %d events from %d, want 2 from 1", len(evs), first)
	}
	if evs[0].Attr("i") != "1" || evs[1].Attr("i") != "2" {
		t.Errorf("EventsSince(1) events = %v %v, want i:1 i:2", evs[0].Attrs, evs[1].Attrs)
	}
	// Up-to-date resume: empty, first == next sequence.
	if evs, first = c.EventsSince(3); len(evs) != 0 || first != 3 {
		t.Errorf("EventsSince(3) = %d events from %d, want 0 from 3", len(evs), first)
	}
	if got := c.EventSeq(); got != 3 {
		t.Errorf("EventSeq() = %d, want 3", got)
	}
	// Overflow: the ring holds sequences 6..9; resuming from 2 reports
	// the gap through first.
	for i := int64(3); i < 10; i++ {
		c.Event("k", "e", Int("i", i))
	}
	evs, first = c.EventsSince(2)
	if first != 6 || len(evs) != 4 {
		t.Fatalf("EventsSince(2) after overflow = %d events from %d, want 4 from 6", len(evs), first)
	}
	for j, want := range []string{"6", "7", "8", "9"} {
		if got := evs[j].Attr("i"); got != want {
			t.Errorf("event %d = i:%s, want i:%s", j, got, want)
		}
	}
}

func TestEventNilCollector(t *testing.T) {
	var c *Collector
	c.Event("k", "n")
	c.EventSince("k", "n", time.Now())
	if s := c.Snapshot(); s.Events != nil || s.EventsDropped != 0 {
		t.Errorf("nil collector events = %v, dropped %d", s.Events, s.EventsDropped)
	}
	if evs, first := c.EventsSince(0); evs != nil || first != 0 {
		t.Errorf("nil collector EventsSince = %v, %d", evs, first)
	}
	if seq := c.EventSeq(); seq != 0 {
		t.Errorf("nil collector EventSeq = %d", seq)
	}
}

func TestSnapshotSubWindowsEvents(t *testing.T) {
	c := NewCollector()
	c.Event("k", "early")
	before := c.Snapshot()
	time.Sleep(time.Millisecond)
	c.Event("k", "late")
	delta := c.Snapshot().Sub(before)
	if len(delta.Events) != 1 || delta.Events[0].Name != "late" {
		t.Errorf("delta events = %+v, want only 'late'", delta.Events)
	}
}

// TestEventConcurrent exercises the ring from many goroutines; run with
// -race (CI does).
func TestEventConcurrent(t *testing.T) {
	c := NewCollector(WithMaxEvents(128))
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Event("k", "n", Int("i", int64(i)))
			}
		}()
	}
	wg.Wait()
	evs, dropped := c.events.events()
	if len(evs) != 128 {
		t.Errorf("retained = %d, want 128", len(evs))
	}
	if total := int64(len(evs)) + dropped; total != workers*each {
		t.Errorf("total events = %d, want %d", total, workers*each)
	}
}
