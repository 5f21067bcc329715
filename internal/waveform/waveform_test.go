package waveform

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mna"
	"repro/internal/numeric"
)

func rcCircuit() *mna.Circuit {
	c := mna.New("rc")
	c.AddV("Vin", "in", "0", 1, 1)
	c.AddR("R", "in", "out", 10e3)
	c.AddC("C", "out", "0", 10e-9)
	return c
}

func TestResponseAmplitude(t *testing.T) {
	c := rcCircuit()
	fc := 1 / (2 * math.Pi * 10e3 * 10e-9)
	amp, err := ResponseAmplitude(c, "out", Stimulus{Kind: Sine, Amplitude: 2, Freq: fc})
	if err != nil {
		t.Fatalf("ResponseAmplitude: %v", err)
	}
	if !numeric.ApproxEqual(amp, 2/math.Sqrt2, 1e-9) {
		t.Errorf("amp = %g, want %g", amp, 2/math.Sqrt2)
	}
	dc, err := ResponseAmplitude(c, "out", Stimulus{Kind: DC, Amplitude: 3})
	if err != nil {
		t.Fatalf("DC: %v", err)
	}
	if !numeric.ApproxEqual(dc, 3, 1e-9) {
		t.Errorf("DC amp = %g, want 3", dc)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		good, faulty, vref float64
		want               Composite
	}{
		{2, 2, 1, One},
		{0.5, 0.5, 1, Zero},
		{2, 0.5, 1, D},
		{0.5, 2, 1, DBar},
	}
	for _, cse := range cases {
		if got := Classify(cse.good, cse.faulty, cse.vref); got != cse.want {
			t.Errorf("Classify(%g,%g,%g) = %v, want %v", cse.good, cse.faulty, cse.vref, got, cse.want)
		}
	}
}

func TestCompositeSemantics(t *testing.T) {
	if !D.IsComposite() || !DBar.IsComposite() || Zero.IsComposite() || One.IsComposite() {
		t.Error("IsComposite wrong")
	}
	if !D.GoodValue() || D.FaultyValue() {
		t.Error("D must be good=1 faulty=0")
	}
	if DBar.GoodValue() || !DBar.FaultyValue() {
		t.Error("D̄ must be good=0 faulty=1")
	}
	if One.String() != "1" || D.String() != "D" || DBar.String() != "D̄" || Zero.String() != "0" {
		t.Error("String rendering wrong")
	}
}

func TestDutyAbove(t *testing.T) {
	c := rcCircuit()
	// Well below cut-off the RC passes the sine unchanged: peak 2 V.
	s := Stimulus{Kind: Sine, Amplitude: 2, Freq: 1}
	// Threshold at 0: above half the period.
	d, err := DutyAbove(c, "out", s, 0)
	if err != nil {
		t.Fatalf("DutyAbove: %v", err)
	}
	if !numeric.ApproxEqual(d, 0.5, 1e-6) {
		t.Errorf("duty at 0 = %g, want 0.5", d)
	}
	// Threshold above the peak: never.
	d, err = DutyAbove(c, "out", s, 5)
	if err != nil || d != 0 {
		t.Errorf("duty above peak = %g (err %v), want 0", d, err)
	}
	// Threshold below the trough: always.
	d, err = DutyAbove(c, "out", s, -5)
	if err != nil || d != 1 {
		t.Errorf("duty below trough = %g (err %v), want 1", d, err)
	}
	// Threshold at peak/√2: duty = (π − 2·asin(1/√2))/2π = 0.25.
	d, err = DutyAbove(c, "out", s, 2/math.Sqrt2)
	if err != nil {
		t.Fatalf("DutyAbove: %v", err)
	}
	if !numeric.ApproxEqual(d, 0.25, 1e-6) {
		t.Errorf("duty at 0.707·peak = %g, want 0.25", d)
	}
	// DC stimulus: all or nothing.
	d, err = DutyAbove(c, "out", Stimulus{Kind: DC, Amplitude: 2}, 1)
	if err != nil || d != 1 {
		t.Errorf("DC duty = %g (err %v), want 1", d, err)
	}
}

func TestSampleSine(t *testing.T) {
	c := rcCircuit()
	s := Stimulus{Kind: Sine, Amplitude: 1, Freq: 10}
	samples, err := SampleSine(c, "out", s, 256)
	if err != nil {
		t.Fatalf("SampleSine: %v", err)
	}
	if len(samples) != 256 {
		t.Fatalf("len = %d", len(samples))
	}
	// Peak of the sampled waveform ≈ response amplitude.
	peak := 0.0
	for _, v := range samples {
		if math.Abs(v) > peak {
			peak = math.Abs(v)
		}
	}
	want, _ := ResponseAmplitude(c, "out", s)
	if !numeric.ApproxEqual(peak, want, 1e-3) {
		t.Errorf("sampled peak = %g, want %g", peak, want)
	}
	if _, err := SampleSine(c, "out", Stimulus{Kind: DC, Amplitude: 1}, 8); err == nil {
		t.Error("DC stimulus must be rejected")
	}
}

func TestStimulusString(t *testing.T) {
	s := Stimulus{Kind: Sine, Amplitude: 1.5, Freq: 1000}
	if got := s.String(); got != "sine 1.5 V @ 1000 Hz" {
		t.Errorf("String = %q", got)
	}
	d := Stimulus{Kind: DC, Amplitude: 0.25}
	if got := d.String(); got != "DC 0.25 V" {
		t.Errorf("String = %q", got)
	}
}

// Property: Classify is consistent with the good/faulty projections.
func TestClassifyProjectionProperty(t *testing.T) {
	f := func(g, fv, vr float64) bool {
		c := Classify(g, fv, vr)
		return c.GoodValue() == (g > vr) && c.FaultyValue() == (fv > vr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: duty decreases as the threshold rises.
func TestDutyMonotoneProperty(t *testing.T) {
	c := rcCircuit()
	s := Stimulus{Kind: Sine, Amplitude: 2, Freq: 1}
	f := func(a, b float64) bool {
		va := math.Mod(math.Abs(a), 5) - 2.5
		vb := math.Mod(math.Abs(b), 5) - 2.5
		if va > vb {
			va, vb = vb, va
		}
		da, err1 := DutyAbove(c, "out", s, va)
		db, err2 := DutyAbove(c, "out", s, vb)
		return err1 == nil && err2 == nil && da >= db
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
