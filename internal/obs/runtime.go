package obs

import (
	"math"
	"runtime/metrics"
)

// The runtime/metrics samples the bridge reads, resolved once. Each maps
// to a gauge name documented in the README's "Tracing" section:
//
//	runtime.goroutines           live goroutine count
//	runtime.heap.objects_bytes   bytes of live heap objects
//	runtime.mem.total_bytes      total memory mapped by the Go runtime
//	runtime.gc.cycles            completed GC cycles
//	runtime.gc.pause_p99_ns      p99 stop-the-world GC pause
//	runtime.sched.latency_p99_ns p99 time goroutines spent runnable
//	                             before being scheduled
var runtimeSamples = []struct {
	metric string
	gauge  string
}{
	{"/sched/goroutines:goroutines", "runtime.goroutines"},
	{"/memory/classes/heap/objects:bytes", "runtime.heap.objects_bytes"},
	{"/memory/classes/total:bytes", "runtime.mem.total_bytes"},
	{"/gc/cycles/total:gc-cycles", "runtime.gc.cycles"},
	{"/sched/pauses/total/gc:seconds", "runtime.gc.pause_p99_ns"},
	{"/sched/latencies:seconds", "runtime.sched.latency_p99_ns"},
}

// CaptureRuntime samples the Go runtime's own telemetry (runtime/metrics)
// into c's gauges, so GC pressure, heap growth and scheduler latency sit
// in the same snapshot — and the same /report and /samples documents — as
// the pipeline's counters. Histogram-kind metrics (GC pauses, scheduler
// latencies) are reduced to their p99 in nanoseconds; the distributions
// are cumulative since process start. Metrics this Go version does not
// export are skipped. No-op on a nil collector.
func CaptureRuntime(c *Collector) {
	if c == nil {
		return
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, rs := range runtimeSamples {
		samples[i].Name = rs.metric
	}
	metrics.Read(samples)
	for i, s := range samples {
		g := runtimeSamples[i].gauge
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v := s.Value.Uint64()
			if v > math.MaxInt64 {
				v = math.MaxInt64
			}
			c.Gauge(g).Set(int64(v))
		case metrics.KindFloat64:
			c.Gauge(g).Set(int64(s.Value.Float64() * 1e9))
		case metrics.KindFloat64Histogram:
			c.Gauge(g).Set(int64(histQuantile(s.Value.Float64Histogram(), 0.99) * 1e9))
		}
	}
}

// histQuantile estimates the q-quantile of a runtime/metrics histogram in
// its native unit (seconds for the time distributions). Returns 0 for an
// empty histogram; infinite bucket edges fall back to the nearest finite
// neighbour.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, n := range h.Counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, n := range h.Counts {
		cum += float64(n)
		if cum >= rank {
			// Bucket i spans Buckets[i] (inclusive) to Buckets[i+1].
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			return hi
		}
	}
	last := h.Buckets[len(h.Buckets)-1]
	if math.IsInf(last, 1) {
		last = h.Buckets[len(h.Buckets)-2]
	}
	return last
}
