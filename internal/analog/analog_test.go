package analog

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mna"
	"repro/internal/numeric"
)

// rcLowPass builds a single-pole RC low-pass: fc = 1/(2πRC) ≈ 1591.5 Hz.
func rcLowPass() *mna.Circuit {
	c := mna.New("rc")
	c.AddV("Vin", "in", "0", 1, 1)
	c.AddR("R", "in", "out", 10e3)
	c.AddC("C", "out", "0", 10e-9)
	return c
}

// divider builds a resistive divider with DC gain R2/(R1+R2) = 0.5.
func divider() *mna.Circuit {
	c := mna.New("div")
	c.AddV("Vin", "in", "0", 1, 1)
	c.AddR("R1", "in", "out", 10e3)
	c.AddR("R2", "out", "0", 10e3)
	return c
}

func TestDCGainMeasure(t *testing.T) {
	c := divider()
	g, err := (DCGain{Label: "Adc", Out: "out"}).Measure(c)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if !numeric.ApproxEqual(g, 0.5, 1e-9) {
		t.Errorf("Adc = %g, want 0.5", g)
	}
}

func TestACGainMeasure(t *testing.T) {
	c := rcLowPass()
	fc := 1 / (2 * math.Pi * 10e3 * 10e-9)
	g, err := (ACGain{Label: "A", Out: "out", Freq: fc}).Measure(c)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if !numeric.ApproxEqual(g, 1/math.Sqrt2, 1e-6) {
		t.Errorf("gain at fc = %g, want 1/sqrt2", g)
	}
}

func TestHighCutoffMeasure(t *testing.T) {
	c := rcLowPass()
	fc := 1 / (2 * math.Pi * 10e3 * 10e-9)
	p := CutoffFreq{Label: "fh", Out: "out", Side: HighSide, Ref: RefDC, Lo: 1, Hi: 1e6}
	f, err := p.Measure(c)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if !numeric.ApproxEqual(f, fc, 1e-4) {
		t.Errorf("fh = %g, want %g", f, fc)
	}
}

func TestRefAtFreqCutoff(t *testing.T) {
	c := rcLowPass()
	fc := 1 / (2 * math.Pi * 10e3 * 10e-9)
	// Reference taken at a frequency well inside the passband gives the
	// same −3 dB point as the DC reference.
	p := CutoffFreq{Label: "fh", Out: "out", Side: HighSide, Ref: RefAtFreq,
		RefFreqHz: fc / 100, Lo: fc / 100, Hi: 1e6}
	f, err := p.Measure(c)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if !numeric.ApproxEqual(f, fc, 1e-3) {
		t.Errorf("fh = %g, want %g", f, fc)
	}
}

func TestCutoffErrorWhenWindowWrong(t *testing.T) {
	c := rcLowPass()
	// Search window entirely inside the passband: no crossing.
	p := CutoffFreq{Label: "fh", Out: "out", Side: HighSide, Ref: RefDC, Lo: 1, Hi: 10}
	if _, err := p.Measure(c); err == nil {
		t.Error("expected error when the window misses the crossing")
	}
}

func TestParamDeviationDivider(t *testing.T) {
	c := divider()
	p := DCGain{Label: "Adc", Out: "out"}
	// R2 +10%: gain = 1.1/2.1 = 0.5238 → ΔT/T = +4.76%.
	dev, err := ParamDeviation(c, "R2", p, 0.10)
	if err != nil {
		t.Fatalf("ParamDeviation: %v", err)
	}
	if !numeric.ApproxEqual(dev, 1.1/2.1/0.5-1, 1e-9) {
		t.Errorf("dev = %g, want %g", dev, 1.1/2.1/0.5-1)
	}
	// Perturbation must be restored.
	if c.Value("R2") != 10e3 {
		t.Error("ParamDeviation leaked a perturbation")
	}
}

func TestSensitivityDivider(t *testing.T) {
	c := divider()
	p := DCGain{Label: "Adc", Out: "out"}
	// S(gain, R2) = 1 − gain = 0.5; S(gain, R1) = −0.5 for equal Rs.
	s2, err := Sensitivity(c, "R2", p, 1e-4)
	if err != nil {
		t.Fatalf("Sensitivity: %v", err)
	}
	if !numeric.ApproxEqual(s2, 0.5, 1e-3) {
		t.Errorf("S_R2 = %g, want 0.5", s2)
	}
	s1, err := Sensitivity(c, "R1", p, 1e-4)
	if err != nil {
		t.Fatalf("Sensitivity: %v", err)
	}
	if !numeric.ApproxEqual(s1, -0.5, 1e-3) {
		t.Errorf("S_R1 = %g, want -0.5", s1)
	}
}

func TestSensitivityRCCutoff(t *testing.T) {
	c := rcLowPass()
	p := CutoffFreq{Label: "fh", Out: "out", Side: HighSide, Ref: RefDC, Lo: 1, Hi: 1e6}
	// fh = 1/(2πRC): S = −1 for both R and C.
	for _, e := range []string{"R", "C"} {
		s, err := Sensitivity(c, e, p, 1e-3)
		if err != nil {
			t.Fatalf("Sensitivity(%s): %v", e, err)
		}
		if !numeric.ApproxEqual(s, -1, 1e-2) {
			t.Errorf("S_%s = %g, want -1", e, s)
		}
	}
}

func TestWorstCaseEDNoMasking(t *testing.T) {
	c := divider()
	p := DCGain{Label: "Adc", Out: "out"}
	// Without masking, the deviation of the divider gain is δ/(2+δ)
	// upward and |δ|/(2−|δ|) downward; the 5% box is escaped first on
	// the downward side at |δ| = 2/21 ≈ 9.52%.
	ed, err := WorstCaseED(c, "R2", p, []string{"R1", "R2"},
		EDOptions{Tol: 0.05, ElemTol: 0, MaxDev: 20, Step: 1e-4})
	if err != nil {
		t.Fatalf("WorstCaseED: %v", err)
	}
	want := 2.0 / 21.0
	if !numeric.ApproxEqual(ed, want, 1e-3) {
		t.Errorf("ED = %g, want %g", ed, want)
	}
}

func TestWorstCaseEDWithMaskingIsLarger(t *testing.T) {
	c := divider()
	p := DCGain{Label: "Adc", Out: "out"}
	noMask, err := WorstCaseED(c, "R2", p, []string{"R1", "R2"},
		EDOptions{Tol: 0.05, ElemTol: 0, MaxDev: 20, Step: 1e-4})
	if err != nil {
		t.Fatalf("no mask: %v", err)
	}
	masked, err := WorstCaseED(c, "R2", p, []string{"R1", "R2"}, DefaultEDOptions())
	if err != nil {
		t.Fatalf("masked: %v", err)
	}
	if masked <= noMask {
		t.Errorf("masking must increase the required deviation: %g <= %g", masked, noMask)
	}
}

func TestWorstCaseEDUnobservable(t *testing.T) {
	// A parameter that does not depend on the element at all: DC gain of
	// the RC low-pass is exactly 1 regardless of R (capacitor open).
	c := rcLowPass()
	p := ACGain{Label: "A0", Out: "in", Freq: 100} // source node: gain 1 always
	ed, err := WorstCaseED(c, "R", p, []string{"R", "C"},
		EDOptions{Tol: 0.05, ElemTol: 0, MaxDev: 20, Step: 1e-4})
	if err != nil {
		t.Fatalf("WorstCaseED: %v", err)
	}
	if !Unobservable(ed) {
		t.Errorf("ED = %g, want +Inf (unobservable)", ed)
	}
}

func TestBuildMatrixAndSelection(t *testing.T) {
	c := rcLowPass()
	params := []Parameter{
		DCGain{Label: "Adc", Out: "out"},
		CutoffFreq{Label: "fh", Out: "out", Side: HighSide, Ref: RefDC, Lo: 1, Hi: 1e6},
	}
	m, err := BuildMatrix(c, []string{"R", "C"}, params,
		EDOptions{Tol: 0.05, ElemTol: 0, MaxDev: 20, Step: 1e-4})
	if err != nil {
		t.Fatalf("BuildMatrix: %v", err)
	}
	// Adc observes nothing (gain is identically 1); fh observes both at
	// ≈5% (|S| = 1).
	if v, _ := m.Lookup("R", "Adc"); !Unobservable(v) {
		t.Errorf("ED(R, Adc) = %g, want +Inf", v)
	}
	if v, _ := m.Lookup("R", "fh"); !numeric.ApproxEqual(v, 0.05, 5e-2) {
		t.Errorf("ED(R, fh) = %g, want ≈0.05", v)
	}
	ts := m.SelectTestSet()
	if len(ts.ParamIdx) != 1 || m.Params[ts.ParamIdx[0]].Name() != "fh" {
		t.Errorf("test set = %v, want just fh", ts.ParamNames(m))
	}
	if !ts.Covered() {
		t.Error("both elements must be covered by fh")
	}
	if ed := ts.ElementED["C"]; !numeric.ApproxEqual(ed, 0.05, 5e-2) {
		t.Errorf("element ED for C = %g", ed)
	}
}

func TestBestParamForAndParamsFor(t *testing.T) {
	c := rcLowPass()
	params := []Parameter{
		DCGain{Label: "Adc", Out: "out"},
		CutoffFreq{Label: "fh", Out: "out", Side: HighSide, Ref: RefDC, Lo: 1, Hi: 1e6},
	}
	m, err := BuildMatrix(c, []string{"R"}, params,
		EDOptions{Tol: 0.05, ElemTol: 0, MaxDev: 20, Step: 1e-4})
	if err != nil {
		t.Fatalf("BuildMatrix: %v", err)
	}
	if got := m.BestParamFor("R"); got != 1 {
		t.Errorf("best param = %d, want 1 (fh)", got)
	}
	if got := m.ParamsFor("R"); len(got) != 1 || got[0] != 1 {
		t.Errorf("ParamsFor = %v, want [1]", got)
	}
	if m.BestParamFor("nope") != -1 {
		t.Error("unknown element must return -1")
	}
}

func TestMeasureAllPropagatesErrors(t *testing.T) {
	c := rcLowPass()
	bad := CutoffFreq{Label: "fx", Out: "out", Side: HighSide, Ref: RefDC, Lo: 1, Hi: 2}
	if _, err := MeasureAll(c, []Parameter{bad}); err == nil {
		t.Error("expected error from impossible window")
	}
}

// Property: ED is monotone in the tolerance — a wider box needs a larger
// deviation to escape it.
func TestEDMonotoneInToleranceProperty(t *testing.T) {
	c := divider()
	p := DCGain{Label: "Adc", Out: "out"}
	f := func(raw float64) bool {
		tol1 := 0.01 + math.Mod(math.Abs(raw), 0.08)
		tol2 := tol1 * 1.5
		ed1, err1 := WorstCaseED(c, "R2", p, nil, EDOptions{Tol: tol1, MaxDev: 20, Step: 1e-4})
		ed2, err2 := WorstCaseED(c, "R2", p, nil, EDOptions{Tol: tol2, MaxDev: 20, Step: 1e-4})
		if err1 != nil || err2 != nil {
			return false
		}
		return ed2 > ed1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: an injected deviation at least as large as the computed ED
// pushes the parameter out of its tolerance box (soundness of the ED
// bound without masking).
func TestEDSoundnessProperty(t *testing.T) {
	c := divider()
	p := DCGain{Label: "Adc", Out: "out"}
	ed, err := WorstCaseED(c, "R1", p, nil, EDOptions{Tol: 0.05, MaxDev: 20, Step: 1e-4})
	if err != nil {
		t.Fatalf("WorstCaseED: %v", err)
	}
	f := func(extra float64) bool {
		v := math.Abs(extra)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = 1
		}
		scale := 1 + math.Mod(v, 3) // ED·[1, 4)
		mag := ed * scale * 1.0001
		// ED is the min over both deviation signs, so soundness says at
		// least one sign of a deviation ≥ ED escapes the box.
		for _, sign := range []float64{1, -1} {
			d := sign * mag
			if d <= -0.95 {
				continue
			}
			dev, err := ParamDeviation(c, "R1", p, d)
			if err != nil {
				return false
			}
			if math.Abs(dev) >= 0.05*0.999 {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
