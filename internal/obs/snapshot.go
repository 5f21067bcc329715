package obs

import (
	"encoding/json"
	"io"
	"strings"
	"time"
)

// Snapshot is the serialisable state of a collector at one instant. For
// every counter pair named "<x>.hit"/"<x>.miss" a derived "<x>.hit_rate"
// in [0, 1] is included, so consumers (and the acceptance criteria) read
// cache hit rates directly from the JSON.
type Snapshot struct {
	TakenAt       time.Time                    `json:"taken_at"`
	OffsetNs      int64                        `json:"offset_ns"` // time since collector epoch
	Counters      map[string]int64             `json:"counters"`
	Gauges        map[string]int64             `json:"gauges,omitempty"`
	Derived       map[string]float64           `json:"derived,omitempty"`
	Histograms    map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans         []SpanRecord                 `json:"spans,omitempty"`
	SpansDropped  int64                        `json:"spans_dropped,omitempty"`
	Events        []Event                      `json:"events,omitempty"`
	EventsDropped int64                        `json:"events_dropped,omitempty"`
}

// Snapshot captures the collector's current state: Metrics plus the span
// and event logs. Returns an empty snapshot on a nil collector.
func (c *Collector) Snapshot() *Snapshot {
	s := c.Metrics()
	if c == nil {
		return s
	}
	c.mu.Lock()
	s.Spans = make([]SpanRecord, len(c.spans))
	copy(s.Spans, c.spans)
	s.SpansDropped = c.spansDrop
	c.mu.Unlock()
	s.Events, s.EventsDropped = c.events.events()
	return s
}

// Metrics captures the collector's counters, gauges and histograms, with
// the rates derived from them, but not its span and event logs: its cost
// does not grow with the logs, which is what a periodic sampler needs.
// Returns an empty snapshot on a nil collector.
func (c *Collector) Metrics() *Snapshot {
	s := &Snapshot{
		TakenAt:    time.Now(),
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if c == nil {
		return s
	}
	s.OffsetNs = s.TakenAt.Sub(c.epoch).Nanoseconds()
	c.mu.Lock()
	counters := make(map[string]*Counter, len(c.counters))
	for n, ctr := range c.counters {
		counters[n] = ctr
	}
	gauges := make(map[string]*Gauge, len(c.gauges))
	for n, g := range c.gauges {
		gauges[n] = g
	}
	histograms := make(map[string]*Histogram, len(c.histograms))
	for n, h := range c.histograms {
		histograms[n] = h
	}
	c.mu.Unlock()

	for n, ctr := range counters {
		s.Counters[n] = ctr.Load()
	}
	for n, g := range gauges {
		s.Gauges[n] = g.Load()
	}
	for n, h := range histograms {
		s.Histograms[n] = h.snapshot()
	}
	s.derive()
	return s
}

// derive fills the Derived map with hit rates for every hit/miss counter
// pair present in Counters.
func (s *Snapshot) derive() {
	s.Derived = map[string]float64{}
	for name, hits := range s.Counters {
		base, ok := strings.CutSuffix(name, ".hit")
		if !ok {
			continue
		}
		// An absent miss counter counts as 0 misses: delta snapshots drop
		// zero-change counters, and a window can be all hits.
		misses := s.Counters[base+".miss"]
		if total := hits + misses; total > 0 {
			s.Derived[base+".hit_rate"] = float64(hits) / float64(total)
		}
	}
	if len(s.Derived) == 0 {
		s.Derived = nil
	}
}

// Sub returns the change from prev to s: counters and histograms are
// subtracted, spans are restricted to those started after prev was taken,
// derived rates are recomputed over the delta. Gauges keep their current
// values (they are levels/peaks, not totals). Use it to carve a per-run
// snapshot out of a shared long-lived collector.
func (s *Snapshot) Sub(prev *Snapshot) *Snapshot {
	if prev == nil {
		return s
	}
	out := &Snapshot{
		TakenAt:      s.TakenAt,
		OffsetNs:     s.OffsetNs,
		Counters:     map[string]int64{},
		Gauges:       s.Gauges,
		Histograms:   map[string]HistogramSnapshot{},
		SpansDropped: s.SpansDropped - prev.SpansDropped,
	}
	for n, v := range s.Counters {
		if d := v - prev.Counters[n]; d != 0 {
			out.Counters[n] = d
		}
	}
	for n, h := range s.Histograms {
		if p, ok := prev.Histograms[n]; ok {
			if d := h.Sub(p); d.Count > 0 {
				out.Histograms[n] = d
			}
		} else if h.Count > 0 {
			out.Histograms[n] = h
		}
	}
	for _, sp := range s.Spans {
		if sp.StartNs >= prev.OffsetNs {
			out.Spans = append(out.Spans, sp)
		}
	}
	for _, ev := range s.Events {
		if ev.TimeNs >= prev.OffsetNs {
			out.Events = append(out.Events, ev)
		}
	}
	out.EventsDropped = s.EventsDropped - prev.EventsDropped
	out.derive()
	return out
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
