package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// SpanRecord is one completed span: a named interval of work, positioned
// by its start offset from the collector's epoch so span logs from one
// run compose into a timeline without wall-clock stamps.
//
// ID and ParentID make the span log causal: every span started through a
// collector carries a family-unique id (lane-major: the collector's lane
// in the high bits, a per-lane sequence in the low bits), and a span
// opened with StartSpanCtx under a context that already carries a span
// records that span as its parent. Track is the lane label of the
// collector that recorded the span (empty on a root collector) — the
// worker/shard attribution the Chrome trace export turns into tid lanes
// and the report's per-track utilization is computed from.
type SpanRecord struct {
	Name     string `json:"name"`
	ID       int64  `json:"id,omitempty"`
	ParentID int64  `json:"parent_id,omitempty"`
	Track    string `json:"track,omitempty"`
	StartNs  int64  `json:"start_ns"` // offset from the collector epoch
	DurNs    int64  `json:"dur_ns"`
}

// Span is an in-flight span; call End when the work completes. End is
// idempotent: the first call records the span, every further call is
// counted in the "obs.span.double_end" counter instead of producing a
// duplicate record. A nil Span (from a nil collector) is a valid no-op.
type Span struct {
	c      *Collector
	name   string
	id     int64
	parent int64
	start  time.Time
	ended  atomic.Bool
}

// ID returns the span's family-unique id (0 for a nil span).
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// spanKey is the context key StartSpanCtx threads span identity under.
type spanKey struct{}

// spanRef is the context payload: the span's id plus the family's lane
// allocator, which doubles as the family identity — a span id is only a
// valid parent for spans of the same collector family.
type spanRef struct {
	family *atomic.Int64
	id     int64
}

// StartSpan opens a root span (no parent). Typical use:
//
//	defer c.StartSpan("atpg.run").End()
//
// Returns nil (a no-op span) on a nil collector.
func (c *Collector) StartSpan(name string) *Span {
	if c == nil {
		return nil
	}
	return c.newSpan(name, 0)
}

// StartSpanCtx opens a span whose parent is the span recorded in ctx (if
// any, and if it belongs to the same collector family), and returns a
// derived context carrying the new span — so per-fault, per-frame and
// per-element work nests under its phase simply by passing the phase's
// context down. Typical use:
//
//	span, ctx := c.StartSpanCtx(ctx, "atpg.deterministic_phase")
//	defer span.End()
//
// On a nil collector the returned span is a no-op and ctx is returned
// unchanged, so the parent linkage (from an outer, non-nil collector) is
// preserved for any instrumented callee further down.
func (c *Collector) StartSpanCtx(ctx context.Context, name string) (*Span, context.Context) {
	if c == nil {
		return nil, ctx
	}
	var parent int64
	if ref, ok := ctx.Value(spanKey{}).(spanRef); ok && ref.family == c.lanes {
		parent = ref.id
	}
	sp := c.newSpan(name, parent)
	return sp, context.WithValue(ctx, spanKey{}, spanRef{family: c.lanes, id: sp.id})
}

// newSpan allocates the next lane-major span id and stamps the start.
func (c *Collector) newSpan(name string, parent int64) *Span {
	return &Span{
		c:      c,
		name:   name,
		id:     c.lane<<32 | c.spanSeq.Add(1),
		parent: parent,
		start:  time.Now(),
	}
}

// End closes the span and appends it to the collector's span log. The log
// is capped at the collector's span cap (DefaultMaxSpans unless set with
// WithMaxSpans); overflow is counted in the snapshot's SpansDropped field
// rather than stored. A second End on the same span records nothing and
// increments "obs.span.double_end".
func (s *Span) End() {
	if s == nil {
		return
	}
	if !s.ended.CompareAndSwap(false, true) {
		s.c.Counter("obs.span.double_end").Inc()
		return
	}
	now := time.Now()
	rec := SpanRecord{
		Name:     s.name,
		ID:       s.id,
		ParentID: s.parent,
		Track:    s.c.track,
		StartNs:  s.start.Sub(s.c.epoch).Nanoseconds(),
		DurNs:    now.Sub(s.start).Nanoseconds(),
	}
	s.c.mu.Lock()
	if len(s.c.spans) < s.c.maxSpans {
		s.c.spans = append(s.c.spans, rec)
	} else {
		s.c.spansDrop++
	}
	s.c.mu.Unlock()
}

// Spans returns a copy of the completed span log, in completion (End)
// order — not start order: a long phase span that encloses shorter child
// spans appears after them. (After a Merge the log is re-sorted to
// lane-major id order; see Merge.) The copy is a consistent point-in-time
// snapshot taken under the collector lock; spans ended
// after the call began are not included, and the returned slice is safe
// to read concurrently with an active run.
func (c *Collector) Spans() []SpanRecord {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SpanRecord, len(c.spans))
	copy(out, c.spans)
	return out
}
