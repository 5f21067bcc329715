package report

import (
	"sort"

	"repro/internal/obs"
)

// topBlocking is how many top blocking spans a report keeps.
const topBlocking = 8

// PathStep is one span on the critical path.
type PathStep struct {
	Name    string `json:"name"`
	Track   string `json:"track,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// TrackUtilization is the busy fraction of one track (worker/shard lane):
// the union of its span intervals over the wall-clock window spanned by
// the whole trace. Spans with no id (pre-causal recordings) count toward
// the root track.
type TrackUtilization struct {
	Track   string  `json:"track,omitempty"`
	Spans   int     `json:"spans"`
	BusyNs  int64   `json:"busy_ns"`
	Percent float64 `json:"percent"`
}

// BlockingSpan aggregates self time — a span's duration minus the time
// covered by its own children — by span name. The names with the most
// self time are where the run actually spent its wall clock, as opposed
// to container spans that merely enclose other work.
type BlockingSpan struct {
	Name   string `json:"name"`
	Count  int    `json:"count"`
	SelfNs int64  `json:"self_ns"`
	MaxNs  int64  `json:"max_ns"` // largest single self time
}

// CriticalSection is the causal analysis of a span log: the longest
// parent→child chain by end time, per-track utilization, and the spans
// whose self time dominates the run.
type CriticalSection struct {
	// WallNs is the window from the earliest span start to the latest
	// span end.
	WallNs int64 `json:"wall_ns"`
	// PathNs is the wall-clock length of the critical path: each step's
	// duration minus its overlap with the next step, so nested chains do
	// not double-count (a fully nested chain sums to the root's
	// duration).
	PathNs int64 `json:"path_ns"`
	// Path is the critical path: starting from the root span that ends
	// last, repeatedly descend into the child that ends last.
	Path []PathStep `json:"path,omitempty"`
	// Tracks is per-lane utilization, root lane first then sorted.
	Tracks []TrackUtilization `json:"tracks,omitempty"`
	// Blocking is the top self-time span names, descending.
	Blocking []BlockingSpan `json:"blocking,omitempty"`
}

// critical runs the causal analysis over a snapshot's span log for the
// report's critical section; a live server's /report runs it mid-run.
// Returns nil when there are no spans to analyse.
func critical(s *obs.Snapshot) *CriticalSection {
	if len(s.Spans) == 0 {
		return nil
	}
	sec := &CriticalSection{}

	// Trace window.
	minStart, maxEnd := s.Spans[0].StartNs, int64(0)
	for _, sp := range s.Spans {
		if sp.StartNs < minStart {
			minStart = sp.StartNs
		}
		if end := sp.StartNs + sp.DurNs; end > maxEnd {
			maxEnd = end
		}
	}
	sec.WallNs = maxEnd - minStart

	// Causal index. Spans recorded before the causal upgrade have ID 0
	// and cannot carry children; they still count for utilization.
	children := map[int64][]obs.SpanRecord{}
	present := map[int64]bool{}
	for _, sp := range s.Spans {
		if sp.ID != 0 {
			present[sp.ID] = true
		}
		if sp.ParentID != 0 {
			children[sp.ParentID] = append(children[sp.ParentID], sp)
		}
	}

	// Critical path: among roots (no recorded parent), take the one that
	// ends last, then repeatedly descend into the child ending last. Ties
	// break toward the lower span id so the walk is deterministic.
	later := func(a, b obs.SpanRecord) bool {
		ea, eb := a.StartNs+a.DurNs, b.StartNs+b.DurNs
		if ea != eb {
			return ea > eb
		}
		return a.ID < b.ID
	}
	var root obs.SpanRecord
	found := false
	for _, sp := range s.Spans {
		// A root has no parent, or its parent fell off the capped span
		// log (an orphan still anchors its own subtree).
		if sp.ParentID != 0 && present[sp.ParentID] {
			continue
		}
		if !found || later(sp, root) {
			root, found = sp, true
		}
	}
	if found {
		cur := root
		for {
			sec.Path = append(sec.Path, PathStep{
				Name: cur.Name, Track: cur.Track, StartNs: cur.StartNs, DurNs: cur.DurNs,
			})
			sec.PathNs += cur.DurNs
			kids := children[cur.ID]
			if cur.ID == 0 || len(kids) == 0 {
				break
			}
			next := kids[0]
			for _, k := range kids[1:] {
				if later(k, next) {
					next = k
				}
			}
			// Telescope the overlap away so a nested chain sums to the
			// root's duration rather than counting shared time twice.
			lo := max(cur.StartNs, next.StartNs)
			hi := min(cur.StartNs+cur.DurNs, next.StartNs+next.DurNs)
			if hi > lo {
				sec.PathNs -= hi - lo
			}
			cur = next
		}
	}

	// Per-track utilization: union of span intervals per track over the
	// trace window.
	byTrack := map[string][][2]int64{}
	counts := map[string]int{}
	for _, sp := range s.Spans {
		byTrack[sp.Track] = append(byTrack[sp.Track], [2]int64{sp.StartNs, sp.StartNs + sp.DurNs})
		counts[sp.Track]++
	}
	names := make([]string, 0, len(byTrack))
	for t := range byTrack {
		if t != "" {
			names = append(names, t)
		}
	}
	sort.Strings(names)
	if _, ok := byTrack[""]; ok {
		names = append([]string{""}, names...)
	}
	for _, t := range names {
		busy := intervalUnion(byTrack[t])
		u := TrackUtilization{Track: t, Spans: counts[t], BusyNs: busy}
		if sec.WallNs > 0 {
			u.Percent = 100 * float64(busy) / float64(sec.WallNs)
		}
		sec.Tracks = append(sec.Tracks, u)
	}

	// Top blocking spans by aggregated self time. A span's self time is
	// its duration minus the union of its children's intervals (clamped
	// to the parent's window).
	agg := map[string]*BlockingSpan{}
	for _, sp := range s.Spans {
		self := sp.DurNs
		if kids := children[sp.ID]; sp.ID != 0 && len(kids) > 0 {
			ivs := make([][2]int64, 0, len(kids))
			end := sp.StartNs + sp.DurNs
			for _, k := range kids {
				lo, hi := k.StartNs, k.StartNs+k.DurNs
				if lo < sp.StartNs {
					lo = sp.StartNs
				}
				if hi > end {
					hi = end
				}
				if hi > lo {
					ivs = append(ivs, [2]int64{lo, hi})
				}
			}
			self -= intervalUnion(ivs)
			if self < 0 {
				self = 0
			}
		}
		b := agg[sp.Name]
		if b == nil {
			b = &BlockingSpan{Name: sp.Name}
			agg[sp.Name] = b
		}
		b.Count++
		b.SelfNs += self
		if self > b.MaxNs {
			b.MaxNs = self
		}
	}
	blocking := make([]BlockingSpan, 0, len(agg))
	for _, b := range agg {
		blocking = append(blocking, *b)
	}
	sort.Slice(blocking, func(i, j int) bool {
		if blocking[i].SelfNs != blocking[j].SelfNs {
			return blocking[i].SelfNs > blocking[j].SelfNs
		}
		return blocking[i].Name < blocking[j].Name
	})
	sec.Blocking = blocking[:min(topBlocking, len(blocking))]
	return sec
}

// intervalUnion returns the total length covered by the union of the
// [start, end) intervals. The input slice is sorted in place.
func intervalUnion(ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := ivs[0][0], ivs[0][1]
	for _, iv := range ivs[1:] {
		if iv[0] > curHi {
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
			continue
		}
		if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	return total + (curHi - curLo)
}
