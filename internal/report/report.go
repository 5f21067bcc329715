// Package report builds the run record: one Report per instrumented
// pipeline run, holding the obs.Snapshot it was built from (counters,
// gauges, histograms, derived rates, spans and events) beside the
// sections distilled from it — per-fault outcomes with an
// untestability-reason histogram, per-element analog results, the
// comparator census, the critical path and the top slowest faults. The
// record serialises to JSON (for machines and the CI artifact) and
// renders as human-readable text; its Snapshot renders as a Chrome
// trace.
//
// The event conventions the builder understands are the ones the
// pipeline emits (documented in the README "Observability" section):
//
//	kind "fault"       one targeted stuck-at fault (atpg.Run)
//	kind "element"     one analog element test (core.TestAnalogElement)
//	kind "comparator"  one conversion-block census probe (core.CensusPropagation)
//	kind "analog.ed"   one element row of the worst-case deviation matrix
//	kind "seq.fault"   one sequential (time-frame-expanded) fault
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// topSlowest is how many of the slowest faults a report keeps.
const topSlowest = 10

// FaultRecord is one targeted fault distilled from its event.
type FaultRecord struct {
	Name         string `json:"name"`
	Outcome      string `json:"outcome"`
	Reason       string `json:"reason,omitempty"` // degradation reason for aborted/timed-out
	LatencyNs    int64  `json:"latency_ns"`
	ProductNodes int64  `json:"product_nodes,omitempty"` // OBDD size of S = ∂F/∂l·f_l·Fc
	Vector       string `json:"vector,omitempty"`
}

// FaultSection summarises the digital stuck-at run.
type FaultSection struct {
	Total   int `json:"total"`
	Tested  int `json:"tested"`
	Dropped int `json:"dropped"`          // detected by an earlier vector, never targeted
	Random  int `json:"random,omitempty"` // detected by the random phase
	Aborted int `json:"aborted"`
	// TimedOut counts faults whose per-fault or run deadline expired —
	// kept apart from Aborted (panic/budget/error) because the fixes
	// differ: more time versus more budget or a bug report.
	TimedOut int `json:"timed_out,omitempty"`
	// Resumed counts faults restored from a checkpoint instead of being
	// recomputed; each is also tallied under its original outcome.
	Resumed int `json:"resumed,omitempty"`
	// AbortReasons histograms the degradation reasons ("panic",
	// "budget:bdd-nodes", "deadline", "canceled", ...).
	AbortReasons map[string]int `json:"abort_reasons,omitempty"`
	// Untestable splits by reason: "constrained-out" (testable without
	// Fc, killed by the conversion constraints) vs "no-difference" (no
	// output ever differs). Reasons holds the histogram.
	Untestable int            `json:"untestable"`
	Reasons    map[string]int `json:"untestable_reasons,omitempty"`
	Coverage   float64        `json:"coverage"`
	P50Ns      float64        `json:"latency_p50_ns,omitempty"`
	P99Ns      float64        `json:"latency_p99_ns,omitempty"`
	Slowest    []FaultRecord  `json:"slowest,omitempty"`
}

// ElementRecord is one analog element test distilled from its event.
// Bound names the tolerance bound the test probed ("upper", "lower").
type ElementRecord struct {
	Name       string  `json:"name"`
	Bound      string  `json:"bound,omitempty"`
	Testable   bool    `json:"testable"`
	Reason     string  `json:"reason,omitempty"`
	ED         float64 `json:"ed,omitempty"`
	Param      string  `json:"param,omitempty"`
	Stimulus   string  `json:"stimulus,omitempty"`
	Comparator int     `json:"comparator,omitempty"`
	LatencyNs  int64   `json:"latency_ns,omitempty"`
}

// ElementSection summarises the analog element tests.
type ElementSection struct {
	Total    int             `json:"total"`
	Testable int             `json:"testable"`
	Reasons  map[string]int  `json:"untestable_reasons,omitempty"`
	Elements []ElementRecord `json:"elements,omitempty"`
}

// ComparatorSection summarises the conversion-block census.
type ComparatorSection struct {
	Probed      int   `json:"probed"`
	BlockedLow  []int `json:"blocked_low,omitempty"`
	BlockedHigh []int `json:"blocked_high,omitempty"`
}

// Report is the record of one run: the snapshot it was built from and
// the sections distilled from that snapshot.
type Report struct {
	Faults      *FaultSection      `json:"faults,omitempty"`
	Elements    *ElementSection    `json:"elements,omitempty"`
	Comparators *ComparatorSection `json:"comparators,omitempty"`
	Critical    *CriticalSection   `json:"critical,omitempty"`
	Service     *ServiceSection    `json:"service,omitempty"`
	Snapshot    *obs.Snapshot      `json:"snapshot"`
}

// Build distils a snapshot into a Report that carries it. Sections whose
// events are absent from the snapshot are omitted.
func Build(s *obs.Snapshot) *Report {
	return &Report{
		Faults:      buildFaults(s),
		Elements:    buildElements(s),
		Comparators: buildComparators(s),
		Critical:    Critical(s),
		Service:     BuildService(s),
		Snapshot:    s,
	}
}

func buildFaults(s *obs.Snapshot) *FaultSection {
	var recs []FaultRecord
	for _, ev := range s.Events {
		if ev.Kind != "fault" {
			continue
		}
		rec := FaultRecord{
			Name:         ev.Name,
			Outcome:      ev.Attr("outcome"),
			Reason:       ev.Attr("reason"),
			LatencyNs:    ev.DurNs,
			ProductNodes: atoi(ev.Attr("product_nodes")),
			Vector:       ev.Attr("vector"),
		}
		if rec.Outcome == "resumed" {
			// A checkpoint restoration counts under its original outcome
			// (the "was" attr) so coverage matches a from-scratch run.
			rec.Reason = ev.Attr("was")
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil
	}
	sec := &FaultSection{Total: len(recs), Reasons: map[string]int{}, AbortReasons: map[string]int{}}
	classify := func(outcome, reason string) {
		switch outcome {
		case "tested":
			sec.Tested++
		case "dropped":
			sec.Dropped++
		case "random":
			sec.Random++
		case "aborted":
			sec.Aborted++
			if reason == "" {
				reason = "error"
			}
			sec.AbortReasons[reason]++
		case "timed-out":
			sec.TimedOut++
			if reason == "" {
				reason = "deadline"
			}
			sec.AbortReasons[reason]++
		default: // an untestability reason: "constrained-out", "no-difference", ...
			sec.Untestable++
			sec.Reasons[outcome]++
		}
	}
	for _, rec := range recs {
		if rec.Outcome == "resumed" {
			sec.Resumed++
			classify(rec.Reason, "")
			continue
		}
		classify(rec.Outcome, rec.Reason)
	}
	if len(sec.Reasons) == 0 {
		sec.Reasons = nil
	}
	if len(sec.AbortReasons) == 0 {
		sec.AbortReasons = nil
	}
	if den := sec.Total - sec.Untestable; den > 0 {
		sec.Coverage = float64(sec.Tested+sec.Dropped+sec.Random) / float64(den)
	} else if sec.Total > 0 {
		sec.Coverage = 1
	}
	if h, ok := s.Histograms["atpg.fault.latency_ns"]; ok {
		sec.P50Ns = h.Quantile(0.5)
		sec.P99Ns = h.Quantile(0.99)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].LatencyNs > recs[j].LatencyNs })
	// Dropped faults were never targeted and carry no latency; keep only
	// timed records in the slowest table.
	for _, rec := range recs[:min(topSlowest, len(recs))] {
		if rec.LatencyNs > 0 {
			sec.Slowest = append(sec.Slowest, rec)
		}
	}
	return sec
}

func buildElements(s *obs.Snapshot) *ElementSection {
	var recs []ElementRecord
	reasons := map[string]int{}
	for _, ev := range s.Events {
		if ev.Kind != "element" {
			continue
		}
		rec := ElementRecord{
			Name:       ev.Name,
			Bound:      ev.Attr("bound"),
			Testable:   ev.Attr("outcome") == "testable",
			Reason:     ev.Attr("reason"),
			ED:         atof(ev.Attr("ed")),
			Param:      ev.Attr("param"),
			Stimulus:   ev.Attr("stim"),
			Comparator: int(atoi(ev.Attr("comparator"))),
			LatencyNs:  ev.DurNs,
		}
		if !rec.Testable && rec.Reason != "" {
			reasons[rec.Reason]++
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil
	}
	sec := &ElementSection{Total: len(recs), Elements: recs}
	for _, rec := range recs {
		if rec.Testable {
			sec.Testable++
		}
	}
	if len(reasons) > 0 {
		sec.Reasons = reasons
	}
	return sec
}

func buildComparators(s *obs.Snapshot) *ComparatorSection {
	sec := &ComparatorSection{}
	for _, ev := range s.Events {
		if ev.Kind != "comparator" {
			continue
		}
		sec.Probed++
		k := int(atoi(ev.Attr("comparator")))
		if ev.Attr("blocked_low") == "true" {
			sec.BlockedLow = append(sec.BlockedLow, k)
		}
		if ev.Attr("blocked_high") == "true" {
			sec.BlockedHigh = append(sec.BlockedHigh, k)
		}
	}
	if sec.Probed == 0 {
		return nil
	}
	sort.Ints(sec.BlockedLow)
	sort.Ints(sec.BlockedHigh)
	return sec
}

func atoi(s string) int64 {
	v, _ := strconv.ParseInt(s, 10, 64)
	return v
}

func atof(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the report for humans.
func (r *Report) WriteText(w io.Writer) error {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	snap := r.Snapshot
	p("run report (%s)\n", snap.TakenAt.Format(time.RFC3339))
	if f := r.Faults; f != nil {
		p("\ndigital stuck-at faults: %d total — %d tested, %d dropped, %d random, %d untestable, %d aborted, %d timed-out (coverage %.1f%%)\n",
			f.Total, f.Tested, f.Dropped, f.Random, f.Untestable, f.Aborted, f.TimedOut, 100*f.Coverage)
		if f.Resumed > 0 {
			p("  resumed from checkpoint: %d (not recomputed)\n", f.Resumed)
		}
		if len(f.AbortReasons) > 0 {
			p("  degradation reasons:\n")
			for _, reason := range sortedKeys(f.AbortReasons) {
				p("    %-16s %d\n", reason, f.AbortReasons[reason])
			}
		}
		if len(f.Reasons) > 0 {
			p("  untestability reasons:\n")
			for _, reason := range sortedKeys(f.Reasons) {
				p("    %-16s %d\n", reason, f.Reasons[reason])
			}
		}
		if f.P50Ns > 0 {
			p("  per-fault latency: p50 %s, p99 %s\n", fmtNs(f.P50Ns), fmtNs(f.P99Ns))
		}
		if len(f.Slowest) > 0 {
			p("  slowest faults:\n")
			for _, rec := range f.Slowest {
				p("    %-24s %-16s %9s", rec.Name, rec.Outcome, fmtNs(float64(rec.LatencyNs)))
				if rec.ProductNodes > 0 {
					p("  S nodes %d", rec.ProductNodes)
				}
				if rec.Vector != "" {
					p("  vector %s", rec.Vector)
				}
				p("\n")
			}
		}
	}
	if e := r.Elements; e != nil {
		p("\nanalog elements: %d/%d testable through the mixed circuit\n", e.Testable, e.Total)
		for _, reason := range sortedKeys(e.Reasons) {
			p("  %-16s %d\n", reason, e.Reasons[reason])
		}
		for _, rec := range e.Elements {
			name := rec.Name
			if rec.Bound != "" {
				name += " " + rec.Bound
			}
			if rec.Testable {
				p("  %-4s ED %.1f%% via %s, comparator %d, stim %s\n",
					name, 100*rec.ED, rec.Param, rec.Comparator, rec.Stimulus)
			} else {
				p("  %-4s NOT TESTABLE (%s)\n", name, rec.Reason)
			}
		}
	}
	if c := r.Comparators; c != nil {
		p("\nconversion census: %d comparators probed, blocked low=%v high=%v\n",
			c.Probed, c.BlockedLow, c.BlockedHigh)
	}
	if c := r.Critical; c != nil {
		p("\ncritical path: %s of %s wall (%.1f%%)\n",
			fmtNs(float64(c.PathNs)), fmtNs(float64(c.WallNs)), pct(c.PathNs, c.WallNs))
		for _, step := range c.Path {
			lane := step.Track
			if lane == "" {
				lane = "main"
			}
			p("    %-28s %-12s %9s\n", step.Name, lane, fmtNs(float64(step.DurNs)))
		}
		if len(c.Tracks) > 0 {
			p("  track utilization:\n")
			for _, u := range c.Tracks {
				lane := u.Track
				if lane == "" {
					lane = "main"
				}
				p("    %-12s %5.1f%% busy (%s over %d spans)\n",
					lane, u.Percent, fmtNs(float64(u.BusyNs)), u.Spans)
			}
		}
		if len(c.Blocking) > 0 {
			p("  top blocking spans (self time):\n")
			for _, b := range c.Blocking {
				p("    %-28s %9s over %d spans (max %s)\n",
					b.Name, fmtNs(float64(b.SelfNs)), b.Count, fmtNs(float64(b.MaxNs)))
			}
		}
	}
	if s := r.Service; s != nil {
		p("\njob daemon: %d submitted, %d started, %d completed, %d failed, %d canceled (%d queued, %d running)\n",
			s.Submitted, s.Started, s.Completed, s.Failed, s.Canceled, s.QueueDepth, s.Running)
		if s.Retried > 0 || s.Recovered > 0 || s.Rejected > 0 {
			p("  resilience: %d retries, %d crash-recovered, %d load-shed\n",
				s.Retried, s.Recovered, s.Rejected)
		}
		if s.StoreErrors > 0 || s.StoreCorrupt > 0 || s.CheckpointCorrupt > 0 {
			p("  store degradation: %d failed writes, %d corrupt journals quarantined, %d corrupt checkpoints quarantined\n",
				s.StoreErrors, s.StoreCorrupt, s.CheckpointCorrupt)
		}
	}
	c := snap.Counters
	p("\nengine: ITE hit %.1f%%, unique hit %.1f%%, peak nodes %d, nodes alloc %d, MNA solves %d\n",
		100*snap.Derived["bdd.ite.hit_rate"], 100*snap.Derived["bdd.unique.hit_rate"],
		snap.Gauges["bdd.nodes.peak"], c["bdd.nodes.alloc"], c["mna.solves.dc"]+c["mna.solves.ac"])
	if c["guard.retries"] > 0 || c["guard.panics"] > 0 || c["bdd.budget.trips"] > 0 {
		p("robustness: %d retries, %d recovered panics, %d BDD budget trips\n",
			c["guard.retries"], c["guard.panics"], c["bdd.budget.trips"])
	}
	if snap.SpansDropped > 0 || snap.EventsDropped > 0 {
		p("warning: trace truncated — %d spans and %d events dropped (raise the caps)\n",
			snap.SpansDropped, snap.EventsDropped)
	}
	return nil
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtNs(ns float64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

func pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}
