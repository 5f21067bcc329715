package live

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock hands out a strictly advancing sequence of instants, so the
// sampler's window and rate math is fully deterministic in tests.
type fakeClock struct {
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) advance(d time.Duration) time.Time {
	f.now = f.now.Add(d)
	return f.now
}

func TestSamplerDeterministicDeltasAndRates(t *testing.T) {
	col := obs.NewCollector()
	clk := newFakeClock()
	s := NewSampler(col, time.Second, 8)

	// First tick is the baseline: no window exists yet, no sample.
	s.Tick(clk.now)
	if got, _ := s.Samples(); len(got) != 0 {
		t.Fatalf("samples after baseline tick = %d, want 0", len(got))
	}

	col.Counter("atpg.vectors").Add(10)
	col.Counter("bdd.ite.hit").Add(30)
	col.Counter("bdd.ite.miss").Add(10)
	col.Gauge("bdd.nodes.peak").Set(512)
	s.Tick(clk.advance(2 * time.Second))

	samples, evicted := s.Samples()
	if evicted != 0 || len(samples) != 1 {
		t.Fatalf("samples = %d evicted = %d, want 1/0", len(samples), evicted)
	}
	sm := samples[0]
	if sm.WindowNs != (2 * time.Second).Nanoseconds() {
		t.Errorf("window = %dns, want 2s", sm.WindowNs)
	}
	if sm.Counters["atpg.vectors"] != 10 {
		t.Errorf("vectors delta = %d, want 10", sm.Counters["atpg.vectors"])
	}
	if got := sm.Rates["atpg.vectors"]; got != 5 {
		t.Errorf("vectors rate = %v/s, want 5 (10 over a 2s window)", got)
	}
	if sm.Gauges["bdd.nodes.peak"] != 512 {
		t.Errorf("peak gauge = %d, want 512", sm.Gauges["bdd.nodes.peak"])
	}
	// Hit rate is recomputed over the window, not since process start.
	if got := sm.Derived["bdd.ite.hit_rate"]; got != 0.75 {
		t.Errorf("windowed ite hit rate = %v, want 0.75", got)
	}

	// A quiet window still yields a sample, with no counter movement.
	s.Tick(clk.advance(time.Second))
	samples, _ = s.Samples()
	if len(samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(samples))
	}
	if len(samples[1].Counters) != 0 || len(samples[1].Rates) != 0 {
		t.Errorf("quiet window sample moved: counters=%v rates=%v",
			samples[1].Counters, samples[1].Rates)
	}
}

func TestSamplerRingIsBounded(t *testing.T) {
	col := obs.NewCollector()
	clk := newFakeClock()
	s := NewSampler(col, time.Second, 3)
	ctr := col.Counter("work")

	s.Tick(clk.now) // baseline
	for i := int64(1); i <= 6; i++ {
		ctr.Add(i) // distinct delta per window: 1, 2, ..., 6
		s.Tick(clk.advance(time.Second))
	}
	samples, evicted := s.Samples()
	if len(samples) != 3 {
		t.Fatalf("retained samples = %d, want capacity 3", len(samples))
	}
	if evicted != 3 {
		t.Errorf("evicted = %d, want 3 (6 samples through a 3-slot ring)", evicted)
	}
	// Oldest-first: the three most recent windows with deltas 4, 5, 6.
	for i, want := range []int64{4, 5, 6} {
		if got := samples[i].Counters["work"]; got != want {
			t.Errorf("sample %d delta = %d, want %d", i, got, want)
		}
	}
}

func TestSamplerDefaults(t *testing.T) {
	s := NewSampler(nil, 0, 0)
	if s.Interval() != DefaultSampleInterval {
		t.Errorf("interval = %v, want default %v", s.Interval(), DefaultSampleInterval)
	}
	if cap(s.ring) != DefaultSampleCapacity {
		t.Errorf("capacity = %d, want default %d", cap(s.ring), DefaultSampleCapacity)
	}
	// A nil collector samples cleanly (empty snapshots).
	clk := newFakeClock()
	s.Tick(clk.now)
	s.Tick(clk.advance(time.Second))
	if samples, _ := s.Samples(); len(samples) != 1 {
		t.Errorf("nil-collector samples = %d, want 1", len(samples))
	}
}

// TestSamplerTickCopiesMetricsOnly fills a collector's span log and
// event ring, then ticks: a tick must cost in proportion to the metrics,
// not the logs, which the sampler never reads. Copying 20,000 events and
// spans per tick allocates megabytes; the metrics of 40 counters and 40
// gauges, a few kilobytes.
func TestSamplerTickCopiesMetricsOnly(t *testing.T) {
	const n = 20000
	col := obs.NewCollector(obs.WithMaxSpans(n), obs.WithMaxEvents(n))
	for i := 0; i < n; i++ {
		col.Event("fault", "f", obs.Str("outcome", "tested"))
		col.StartSpan("atpg.fault").End()
	}
	for i := 0; i < 40; i++ {
		col.Counter(fmt.Sprintf("c%d", i)).Inc()
		col.Gauge(fmt.Sprintf("g%d", i)).Set(int64(i))
	}
	clk := newFakeClock()
	s := NewSampler(col, time.Second, 8)
	s.Tick(clk.now)

	const ticks = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ticks; i++ {
		s.Tick(clk.advance(time.Second))
	}
	runtime.ReadMemStats(&after)
	if perTick := (after.TotalAlloc - before.TotalAlloc) / ticks; perTick >= 64<<10 {
		t.Errorf("a tick allocates %d bytes on a collector with %d events and spans, want < 64 KB", perTick, n)
	}
}
