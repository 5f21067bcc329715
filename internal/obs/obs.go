// Package obs is the pipeline's zero-dependency instrumentation layer:
// atomic counters, gauges, log-bucketed histograms and causal spans,
// collected per Collector and serialised as a JSON Snapshot.
//
// Spans form a tree: StartSpanCtx threads the current span through a
// context.Context so children record their parent's id, across function
// and goroutine boundaries, and the Chrome trace export and the report
// package's critical-path analysis recover the causal structure. Span
// ids are lane-major (lane<<32 | seq) within a collector family, so a
// root Collector plus children minted by NewChild — one per shard or
// worker, created in a fixed order — assign globally unique,
// run-deterministic ids; Merge later folds the children back into the
// root deterministically (sorted by track then lane; counters add,
// gauges max, histograms merge bucket-wise, span and event logs splice
// in id order). CaptureRuntime bridges runtime/metrics into gauges
// under the runtime.* prefix.
//
// Design constraints, in order:
//
//   - Hot paths (the BDD unique table and ITE cache run tens of millions
//     of events per ATPG run) pay one atomic add per event and nothing
//     else: metric handles are resolved once, by name, outside the hot
//     loop, and the update methods touch no maps, no locks, no clocks.
//   - Everything is nil-safe. A nil *Collector hands out nil metric
//     handles, and every update method on a nil handle is a no-op, so
//     uninstrumented code paths cost a predictable branch.
//   - No dependencies beyond the standard library, and none of the
//     repro's own packages, so every layer (bdd, atpg, analog, mna,
//     core, cmd) can import it freely.
//
// The conventional metric names used across the pipeline are documented
// in the README ("Observability" section).
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v int64
}

// Inc adds 1. No-op on a nil counter.
func (c *Counter) Inc() {
	if c != nil {
		atomic.AddInt64(&c.v, 1)
	}
}

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		atomic.AddInt64(&c.v, n)
	}
}

// Load returns the current value (0 for a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.v)
}

// Gauge is an atomic instantaneous value (a level or a peak).
type Gauge struct {
	v int64
}

// Set stores n. No-op on a nil gauge.
func (g *Gauge) Set(n int64) {
	if g != nil {
		atomic.StoreInt64(&g.v, n)
	}
}

// SetMax raises the gauge to n if n is larger than the current value —
// the update used for peaks (e.g. peak BDD nodes). No-op on nil.
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := atomic.LoadInt64(&g.v)
		if n <= cur || atomic.CompareAndSwapInt64(&g.v, cur, n) {
			return
		}
	}
}

// Load returns the current value (0 for a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return atomic.LoadInt64(&g.v)
}

// Collector owns a named set of metrics, a span log and an event log.
// Metric handles are interned: asking twice for the same name returns
// the same handle, so collectors can be shared across layers and runs.
// All methods are safe for concurrent use; a nil *Collector is a valid
// no-op collector.
type Collector struct {
	epoch    time.Time
	maxSpans int
	events   *EventLog

	// Lane identity for causal tracing across a collector family: track
	// is the human label ("" on a root collector), lane the numeric lane
	// baked into span ids, lanes the family-wide lane allocator shared
	// by every collector descended from the same root (its pointer also
	// serves as the family identity for StartSpanCtx parent linkage),
	// and spanSeq the per-lane span sequence.
	track   string
	lane    int64
	lanes   *atomic.Int64
	spanSeq atomic.Int64

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	spans      []SpanRecord
	spansDrop  int64
}

// DefaultMaxSpans bounds the span log so always-on tracing cannot grow
// without limit; spans beyond the cap are counted, not stored. Override
// per collector with WithMaxSpans.
const DefaultMaxSpans = 8192

// CollectorOption configures a Collector at construction.
type CollectorOption func(*Collector)

// WithMaxSpans sets the span-log cap (non-positive keeps the default).
func WithMaxSpans(n int) CollectorOption {
	return func(c *Collector) {
		if n > 0 {
			c.maxSpans = n
		}
	}
}

// WithMaxEvents sets the event-ring capacity (non-positive keeps the
// default). The ring keeps the most recent events; overwritten ones are
// counted in the snapshot's EventsDropped field.
func WithMaxEvents(n int) CollectorOption {
	return func(c *Collector) {
		if n > 0 {
			c.events = newEventLog(n)
		}
	}
}

// NewCollector returns an empty, enabled collector. It is the root of a
// new collector family: child collectors split off with NewChild share
// its epoch and id space, so their spans and events merge back into one
// causally consistent timeline.
func NewCollector(opts ...CollectorOption) *Collector {
	c := &Collector{
		epoch:      time.Now(),
		maxSpans:   DefaultMaxSpans,
		events:     newEventLog(DefaultMaxEvents),
		lanes:      new(atomic.Int64),
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// NewChild returns a collector on its own lane of c's family: it shares
// the parent's epoch (so offsets stay comparable) and span-id space
// (lane-major, so ids never collide across the family), but owns its
// metrics, span log and event ring outright — children on separate
// goroutines never contend on the parent's locks. track labels the lane
// (worker/shard name); it is stamped on every span and event the child
// records. Fold a child's state back into the parent with Merge.
//
// Lane numbers are assigned in NewChild call order, so creating the
// children deterministically (before fanning work out) keeps span ids —
// and therefore the merged span order — reproducible across runs.
// Returns nil (a valid no-op collector) on a nil parent.
func (c *Collector) NewChild(track string) *Collector {
	if c == nil {
		return nil
	}
	return &Collector{
		epoch:      c.epoch,
		maxSpans:   c.maxSpans,
		events:     newEventLog(c.events.capacity()),
		track:      track,
		lane:       c.lanes.Add(1),
		lanes:      c.lanes,
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Track returns the collector's lane label ("" on a root collector or a
// nil collector).
func (c *Collector) Track() string {
	if c == nil {
		return ""
	}
	return c.track
}

// Default is the process-wide collector the pipeline reports to unless a
// caller installs its own (e.g. atpg.WithCollector).
var Default = NewCollector()

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op handle) on a nil collector.
func (c *Collector) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ctr, ok := c.counters[name]
	if !ok {
		ctr = &Counter{}
		c.counters[name] = ctr
	}
	return ctr
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// (a no-op handle) on a nil collector.
func (c *Collector) Gauge(name string) *Gauge {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.gauges[name]
	if !ok {
		g = &Gauge{}
		c.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil (a no-op handle) on a nil collector.
func (c *Collector) Histogram(name string) *Histogram {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.histograms[name]
	if !ok {
		h = &Histogram{}
		c.histograms[name] = h
	}
	return h
}
