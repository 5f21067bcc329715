package mna

import (
	"testing"

	"repro/internal/obs"
)

// TestInstrumentRedirectsSolveMetrics verifies the per-circuit collector
// hook: an instrumented circuit's solves land on its own collector (the
// worker lane), not on obs.Default, and detaching restores the default.
// Solves through GainMag, which skip building a Solution, count exactly
// like DC and AC.
func TestInstrumentRedirectsSolveMetrics(t *testing.T) {
	build := func() *Circuit {
		c := New("divider")
		c.AddV("Vin", "in", "0", 10, 10)
		c.AddR("R1", "in", "out", 1e3)
		c.AddR("R2", "out", "0", 3e3)
		return c
	}

	col := obs.NewCollector()
	c := build()
	c.Instrument(col)
	defaultDC := obs.Default.Counter("mna.solves.dc").Load()
	defaultAC := obs.Default.Counter("mna.solves.ac").Load()
	if _, err := c.DC(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AC(1e3); err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{0, 1e3, 2e3} {
		if _, err := c.GainMag("out", f); err != nil {
			t.Fatal(err)
		}
	}
	snap := col.Snapshot()
	if got := snap.Counters["mna.solves.dc"]; got != 2 {
		t.Errorf("lane mna.solves.dc = %d, want 2", got)
	}
	if got := snap.Counters["mna.solves.ac"]; got != 3 {
		t.Errorf("lane mna.solves.ac = %d, want 3", got)
	}
	if h := snap.Histograms["mna.solve.size"]; h.Count != 5 {
		t.Errorf("lane mna.solve.size count = %d, want 5", h.Count)
	}
	if got := obs.Default.Counter("mna.solves.dc").Load(); got != defaultDC {
		t.Errorf("instrumented solve leaked to obs.Default: %d -> %d", defaultDC, got)
	}
	if got := obs.Default.Counter("mna.solves.ac").Load(); got != defaultAC {
		t.Errorf("instrumented GainMag leaked to obs.Default: %d -> %d", defaultAC, got)
	}

	// Detach: solves fall back to the process-wide collector.
	c.Instrument(nil)
	if _, err := c.DC(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GainMag("out", 1e3); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default.Counter("mna.solves.dc").Load(); got != defaultDC+1 {
		t.Errorf("detached solve not on obs.Default: %d, want %d", got, defaultDC+1)
	}
	if got := obs.Default.Counter("mna.solves.ac").Load(); got != defaultAC+1 {
		t.Errorf("detached GainMag not on obs.Default: %d, want %d", got, defaultAC+1)
	}
	snap = col.Snapshot()
	if got := snap.Counters["mna.solves.dc"] + snap.Counters["mna.solves.ac"]; got != 5 {
		t.Errorf("detached solves still landed on the lane: %d solves, want 5", got)
	}
}
