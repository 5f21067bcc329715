package obs

import (
	"strconv"
	"sync"
	"time"
)

// Attr is one key/value pair attached to an Event. Values are stored as
// strings so an event is a flat, schema-free record: the typed
// constructors (Str, Int, Float, Bool) keep call sites readable and the
// encoding uniform.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Value: strconv.FormatInt(v, 10)} }

// Float builds a float attribute (shortest round-trip formatting).
func Float(k string, v float64) Attr {
	return Attr{Key: k, Value: strconv.FormatFloat(v, 'g', -1, 64)}
}

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: strconv.FormatBool(v)} }

// Event is one unit of pipeline work: a targeted fault, a tested analog
// element, a probed comparator. Where spans trace phases, events trace
// work items — the per-fault/per-element records the run report and the
// Chrome trace export are built from.
type Event struct {
	Kind   string `json:"kind"`             // work-item type: "fault", "element", "comparator", ...
	Name   string `json:"name"`             // work-item identity: fault name, element name, ...
	Track  string `json:"track,omitempty"`  // lane label of the recording collector
	TimeNs int64  `json:"time_ns"`          // offset from the collector epoch
	DurNs  int64  `json:"dur_ns,omitempty"` // 0 for instant events
	Attrs  []Attr `json:"attrs,omitempty"`
}

// Attr returns the value of the named attribute ("" when absent).
func (e Event) Attr(key string) string {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// EventLog is a bounded ring of events. Appends are one short critical
// section over a preallocated buffer — no allocation, no clock reads —
// so per-work-item logging stays cheap next to the work itself (the hot
// per-BDD-op paths use counters, never events). When the ring is full
// the oldest events are overwritten and counted as dropped, so always-on
// event logging cannot grow without limit.
type EventLog struct {
	mu    sync.Mutex
	buf   []Event
	next  int   // next write slot
	total int64 // events ever appended
}

// DefaultMaxEvents bounds a collector's event ring unless overridden
// with WithMaxEvents.
const DefaultMaxEvents = 16384

// newEventLog returns a ring holding at most capacity events (a
// non-positive capacity falls back to DefaultMaxEvents).
func newEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultMaxEvents
	}
	return &EventLog{buf: make([]Event, 0, capacity)}
}

// append stores one event, overwriting the oldest when full.
func (l *EventLog) append(e Event) {
	l.mu.Lock()
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
	} else {
		l.buf[l.next] = e
		l.next++
		if l.next == len(l.buf) {
			l.next = 0
		}
	}
	l.total++
	l.mu.Unlock()
}

// events returns the retained events oldest-first, plus the dropped count.
func (l *EventLog) events() ([]Event, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out, l.total - int64(len(l.buf))
}

// eventsSince returns the retained events with sequence number ≥ seq,
// oldest first, plus the sequence of the first returned event. Events
// are numbered from 0 in append order; when seq predates the ring's
// retention the returned first exceeds seq by the number of events that
// were overwritten before they could be read. An up-to-date seq (== the
// next sequence to be assigned) returns an empty slice.
func (l *EventLog) eventsSince(seq int64) ([]Event, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	oldest := l.total - int64(len(l.buf))
	if seq < oldest {
		seq = oldest
	}
	if seq >= l.total {
		return nil, l.total
	}
	out := make([]Event, 0, l.total-seq)
	// Oldest-first ring order is buf[next:] then buf[:next]; skip the
	// first seq-oldest of them.
	for i := seq - oldest; i < int64(len(l.buf)); i++ {
		j := (int64(l.next) + i) % int64(len(l.buf))
		out = append(out, l.buf[j])
	}
	return out, seq
}

// seq returns the sequence number the next appended event will get —
// equivalently, how many events were ever appended.
func (l *EventLog) seq() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// capacity returns the ring's fixed capacity.
func (l *EventLog) capacity() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return cap(l.buf)
}

// Event records an instant event stamped now. No-op on a nil collector.
func (c *Collector) Event(kind, name string, attrs ...Attr) {
	if c == nil {
		return
	}
	c.events.append(Event{
		Kind:   kind,
		Name:   name,
		Track:  c.track,
		TimeNs: time.Since(c.epoch).Nanoseconds(),
		Attrs:  attrs,
	})
}

// EventSince records an event for work that began at start; the event is
// positioned at start and carries the elapsed duration. No-op on a nil
// collector.
func (c *Collector) EventSince(kind, name string, start time.Time, attrs ...Attr) {
	if c == nil {
		return
	}
	c.events.append(Event{
		Kind:   kind,
		Name:   name,
		Track:  c.track,
		TimeNs: start.Sub(c.epoch).Nanoseconds(),
		DurNs:  time.Since(start).Nanoseconds(),
		Attrs:  attrs,
	})
}

// EventsSince returns the retained events with sequence number ≥ seq,
// oldest first, plus the sequence number of the first returned event.
// Sequence numbers count appends from 0 over the collector's lifetime,
// so they survive ring overflow: when seq has already been overwritten,
// first > seq and the difference is the number of events lost to the
// reader. A reader that polls with the last sequence it saw therefore
// gets exactly the new events, and can detect (and size) any gap.
// Returns (nil, 0) on a nil collector.
func (c *Collector) EventsSince(seq int64) ([]Event, int64) {
	if c == nil {
		return nil, 0
	}
	return c.events.eventsSince(seq)
}

// EventSeq returns the sequence number the next event will be assigned —
// equivalently, how many events were ever appended to this collector.
func (c *Collector) EventSeq() int64 {
	if c == nil {
		return 0
	}
	return c.events.seq()
}
