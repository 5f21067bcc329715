package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	c := NewCollector()
	ctr := c.Counter("x.hit")
	ctr.Inc()
	ctr.Add(4)
	if got := ctr.Load(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if c.Counter("x.hit") != ctr {
		t.Error("counter handle not interned")
	}
	g := c.Gauge("g")
	g.Set(7)
	g.SetMax(3) // lower: ignored
	if got := g.Load(); got != 7 {
		t.Errorf("gauge after SetMax(3) = %d, want 7", got)
	}
	g.SetMax(11)
	if got := g.Load(); got != 11 {
		t.Errorf("gauge after SetMax(11) = %d, want 11", got)
	}
}

func TestNilCollectorIsNoop(t *testing.T) {
	var c *Collector
	c.Counter("a").Inc()
	c.Counter("a").Add(3)
	c.Gauge("b").Set(1)
	c.Gauge("b").SetMax(2)
	c.Histogram("h").Observe(5)
	sp := c.StartSpan("s")
	sp.End()
	if got := c.Counter("a").Load(); got != 0 {
		t.Errorf("nil collector counter = %d", got)
	}
	s := c.Snapshot()
	if len(s.Counters) != 0 || len(s.Spans) != 0 {
		t.Errorf("nil collector snapshot not empty: %+v", s)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{0, 1, 1, 2, 3, 900, 1 << 40} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if s.Min != 0 || s.Max != 1<<40 {
		t.Errorf("min/max = %d/%d", s.Min, s.Max)
	}
	wantSum := int64(0 + 1 + 1 + 2 + 3 + 900 + (1 << 40))
	if s.Sum != wantSum {
		t.Errorf("sum = %d, want %d", s.Sum, wantSum)
	}
	// v<=0 lands in the le=0 bucket; 1 in le=2; 2 and 3 in le=4.
	at := map[int64]int64{}
	for _, b := range s.Buckets {
		at[b.LE] = b.N
	}
	if at[0] != 1 || at[2] != 2 || at[4] != 2 {
		t.Errorf("bucket layout wrong: %+v", s.Buckets)
	}
	if q := s.Quantile(0.5); q <= 0 || q > 4 {
		t.Errorf("median estimate %g outside (0, 4]", q)
	}
	if q := s.Quantile(1); q < 900 {
		t.Errorf("p100 estimate %g < 900", q)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	c := NewCollector()
	c.Counter("bdd.ite.hit").Add(90)
	c.Counter("bdd.ite.miss").Add(10)
	c.Gauge("bdd.nodes.peak").Set(1234)
	h := c.Histogram("atpg.fault.latency_ns")
	h.Observe(1500)
	h.Observe(3000)
	sp := c.StartSpan("phase.digital")
	time.Sleep(time.Millisecond)
	sp.End()

	s := c.Snapshot()
	if rate := s.Derived["bdd.ite.hit_rate"]; math.Abs(rate-0.9) > 1e-12 {
		t.Errorf("derived hit rate = %g, want 0.9", rate)
	}

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(back.Counters, s.Counters) {
		t.Errorf("counters changed over round-trip: %v vs %v", back.Counters, s.Counters)
	}
	if !reflect.DeepEqual(back.Gauges, s.Gauges) {
		t.Errorf("gauges changed over round-trip")
	}
	if !reflect.DeepEqual(back.Histograms, s.Histograms) {
		t.Errorf("histograms changed over round-trip")
	}
	if len(back.Spans) != 1 || back.Spans[0].Name != "phase.digital" || back.Spans[0].DurNs <= 0 {
		t.Errorf("span lost in round-trip: %+v", back.Spans)
	}

	// Schema spot-checks on the raw JSON.
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"taken_at", "offset_ns", "counters", "gauges", "derived", "histograms", "spans"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("snapshot JSON missing %q", key)
		}
	}
	if !strings.Contains(buf.String(), `"le"`) {
		t.Error("histogram buckets not serialised with le edges")
	}
}

func TestSnapshotSub(t *testing.T) {
	c := NewCollector()
	c.Counter("n.hit").Add(10)
	c.Counter("n.miss").Add(10)
	c.Histogram("h").Observe(5)
	c.StartSpan("early").End()
	before := c.Snapshot()

	c.Counter("n.hit").Add(30)
	c.Histogram("h").Observe(7)
	c.Histogram("h").Observe(9)
	c.StartSpan("late").End()
	delta := c.Snapshot().Sub(before)

	if got := delta.Counters["n.hit"]; got != 30 {
		t.Errorf("delta hit = %d, want 30", got)
	}
	if _, ok := delta.Counters["n.miss"]; ok {
		t.Error("unchanged counter should be absent from delta")
	}
	// 30 new hits over 0 new misses.
	if rate := delta.Derived["n.hit_rate"]; rate != 1 {
		t.Errorf("delta hit rate = %g, want 1", rate)
	}
	if h := delta.Histograms["h"]; h.Count != 2 || h.Sum != 16 {
		t.Errorf("delta histogram = %+v, want count 2 sum 16", h)
	}
	if len(delta.Spans) != 1 || delta.Spans[0].Name != "late" {
		t.Errorf("delta spans = %+v, want only 'late'", delta.Spans)
	}
}

// TestConcurrentUpdates exercises every metric type from many goroutines;
// run with -race (CI does) to verify the atomic paths.
func TestConcurrentUpdates(t *testing.T) {
	c := NewCollector()
	const workers, each = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Counter("c").Inc()
				c.Gauge("g").SetMax(int64(w*each + i))
				c.Histogram("h").Observe(int64(i))
				if i%500 == 0 {
					c.StartSpan("s").End()
				}
			}
		}(w)
	}
	wg.Wait()
	s := c.Snapshot()
	if got := s.Counters["c"]; got != workers*each {
		t.Errorf("counter = %d, want %d", got, workers*each)
	}
	if got := s.Gauges["g"]; got != workers*each-1 {
		t.Errorf("gauge max = %d, want %d", got, workers*each-1)
	}
	if h := s.Histograms["h"]; h.Count != workers*each {
		t.Errorf("histogram count = %d, want %d", h.Count, workers*each)
	}
}

func TestSpanCap(t *testing.T) {
	c := NewCollector()
	for i := 0; i < DefaultMaxSpans+10; i++ {
		c.StartSpan("s").End()
	}
	s := c.Snapshot()
	if got := len(s.Spans); got != DefaultMaxSpans {
		t.Errorf("span log length = %d, want %d", got, DefaultMaxSpans)
	}
	if s.SpansDropped != 10 {
		t.Errorf("dropped = %d, want 10", s.SpansDropped)
	}
}

func TestSpanCapConfigurable(t *testing.T) {
	c := NewCollector(WithMaxSpans(4))
	for i := 0; i < 10; i++ {
		c.StartSpan("s").End()
	}
	if got := len(c.Spans()); got != 4 {
		t.Errorf("span log length = %d, want 4", got)
	}
	if s := c.Snapshot(); s.SpansDropped != 6 {
		t.Errorf("snapshot SpansDropped = %d, want 6", s.SpansDropped)
	}
}
