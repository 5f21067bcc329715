package live

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
)

// Sample is one sampler tick: the collector's movement over one interval,
// reduced to the fields an ops dashboard plots. Counters are deltas over
// the window, Rates the same deltas divided by the window's length in
// seconds, Gauges the instantaneous levels at the tick, and Derived the
// cache hit rates recomputed over the window (not since process start).
type Sample struct {
	TakenAt  time.Time          `json:"taken_at"`
	WindowNs int64              `json:"window_ns"`
	Counters map[string]int64   `json:"counters,omitempty"`
	Rates    map[string]float64 `json:"rates,omitempty"`
	Gauges   map[string]int64   `json:"gauges,omitempty"`
	Derived  map[string]float64 `json:"derived,omitempty"`
}

// DefaultSampleInterval is the sampler tick period unless overridden.
const DefaultSampleInterval = time.Second

// DefaultSampleCapacity bounds the sample ring: at the default interval
// it retains the last five minutes of history.
const DefaultSampleCapacity = 300

// Sampler periodically snapshots a collector's metrics and keeps the
// per-interval deltas (Snapshot.Sub) in a bounded ring, so per-second
// rates and a short time series are available from a single scrape
// (/samples) instead of requiring the client to diff two /report
// reads itself.
//
// The clock is injectable for tests: Tick(now) performs one capture and
// derives the window length from the previous tick's now, so a fake
// clock produces fully deterministic rate math. Run drives Tick from a
// real time.Ticker.
type Sampler struct {
	col      *obs.Collector
	interval time.Duration

	mu    sync.Mutex
	ring  []Sample
	next  int   // next write slot once the ring is full
	total int64 // samples ever taken
	prev  *obs.Snapshot
	last  time.Time // the previous Tick's now
}

// NewSampler returns a sampler over col taking one sample per interval
// into a ring of the given capacity. Non-positive interval or capacity
// fall back to the defaults.
func NewSampler(col *obs.Collector, interval time.Duration, capacity int) *Sampler {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	if capacity <= 0 {
		capacity = DefaultSampleCapacity
	}
	return &Sampler{
		col:      col,
		interval: interval,
		ring:     make([]Sample, 0, capacity),
	}
}

// Interval returns the configured tick period.
func (s *Sampler) Interval() time.Duration { return s.interval }

// Tick captures one sample stamped now. The first Tick establishes the
// baseline snapshot and records no sample (there is no window yet);
// every later Tick appends the delta since the previous one, evicting
// the oldest sample when the ring is full. Safe for concurrent use with
// Samples.
func (s *Sampler) Tick(now time.Time) {
	// Fold the Go runtime's own telemetry (GC pauses, heap, scheduler
	// latency) into the collector first, so every sample window carries
	// runtime.* gauge levels alongside the pipeline's counters.
	obs.CaptureRuntime(s.col)
	// Samples carry the aggregate movement only; the event/span tails
	// are served by /events and /report, and copying them each tick would
	// cost in proportion to the logs.
	snap := s.col.Metrics()

	s.mu.Lock()
	defer s.mu.Unlock()
	prev, last := s.prev, s.last
	s.prev, s.last = snap, now
	if prev == nil {
		return
	}
	delta := snap.Sub(prev)
	sample := Sample{
		TakenAt:  now,
		WindowNs: now.Sub(last).Nanoseconds(),
		Counters: delta.Counters,
		Gauges:   delta.Gauges,
		Derived:  delta.Derived,
	}
	if secs := now.Sub(last).Seconds(); secs > 0 && len(delta.Counters) > 0 {
		sample.Rates = make(map[string]float64, len(delta.Counters))
		for name, d := range delta.Counters {
			sample.Rates[name] = float64(d) / secs
		}
	}
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, sample)
	} else {
		s.ring[s.next] = sample
		s.next++
		if s.next == len(s.ring) {
			s.next = 0
		}
	}
	s.total++
}

// Samples returns a copy of the retained samples oldest-first, plus how
// many older samples were evicted from the ring.
func (s *Sampler) Samples() ([]Sample, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, 0, len(s.ring))
	out = append(out, s.ring[s.next:]...)
	out = append(out, s.ring[:s.next]...)
	return out, s.total - int64(len(s.ring))
}

// Run drives Tick from a real clock until ctx is done. An immediate
// first tick establishes the baseline so the first interval's sample
// lands one period after startup.
func (s *Sampler) Run(ctx context.Context) {
	s.Tick(time.Now())
	tick := time.NewTicker(s.interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-tick.C:
			s.Tick(now)
		}
	}
}
