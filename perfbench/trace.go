package main

import (
	"os"
	"sort"

	"repro/internal/obs"
)

// tracer holds the benchmark-side spans of a traced run: one collector
// lane per workload configuration, merged into one root at the end. The
// spans wrap calls into the program's public functions; the program
// itself records nothing extra.
type tracer struct {
	root  *obs.Collector
	lanes []*obs.Collector
}

func newTracer() *tracer {
	return &tracer{root: obs.NewCollector(obs.WithMaxSpans(1 << 20))}
}

// lane returns a fresh lane, or nil (obs's no-op collector) when not
// tracing, so untraced operations run the same code with spans off.
func (t *tracer) lane(track string) *obs.Collector {
	if t == nil {
		return nil
	}
	l := t.root.NewChild(track)
	t.lanes = append(t.lanes, l)
	return l
}

// merge folds the lanes opened since the last merge into the root.
func (t *tracer) merge() {
	t.root.Merge(t.lanes...)
	t.lanes = nil
}

// spans returns every span recorded so far.
func (t *tracer) spans() []obs.SpanRecord {
	t.merge()
	return t.root.Spans()
}

// writeChrome writes the spans as a Chrome trace, one tid lane per
// workload configuration.
func (t *tracer) writeChrome(path string) error {
	t.merge()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.root.Snapshot().WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover (children may overlap when
// they ran concurrently, so their union is subtracted), in seconds.
func selfTimes(spans []obs.SpanRecord) map[string]float64 {
	children := map[int64][]obs.SpanRecord{}
	for _, s := range spans {
		if s.ParentID != 0 {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(s.DurNs-covered(s, children[s.ID])) / 1e9
	}
	return out
}

// covered is how many nanoseconds of parent's interval the union of the
// children's intervals spans.
func covered(parent obs.SpanRecord, kids []obs.SpanRecord) int64 {
	type iv struct{ lo, hi int64 }
	lo0, hi0 := parent.StartNs, parent.StartNs+parent.DurNs
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.StartNs, lo0), min(k.StartNs+k.DurNs, hi0)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	end = lo0
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		total += v.hi - max(v.lo, end)
		end = v.hi
	}
	return total
}

// durationsMs lists the durations of the spans with the given name.
func durationsMs(spans []obs.SpanRecord, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.DurNs)/1e6)
		}
	}
	return out
}
