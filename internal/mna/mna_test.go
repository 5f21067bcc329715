package mna

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVoltageDivider(t *testing.T) {
	c := New("divider")
	c.AddV("Vin", "in", "0", 10, 10)
	c.AddR("R1", "in", "out", 1e3)
	c.AddR("R2", "out", "0", 3e3)
	sol, err := c.DC()
	if err != nil {
		t.Fatalf("DC: %v", err)
	}
	if got := real(sol.V("out")); math.Abs(got-7.5) > 1e-9 {
		t.Errorf("V(out) = %g, want 7.5", got)
	}
	if sol.V("0") != 0 {
		t.Errorf("ground voltage = %v, want 0", sol.V("0"))
	}
}

func TestRCLowPassCutoff(t *testing.T) {
	// fc = 1/(2πRC) = 1591.5 Hz for R=10k, C=10n.
	c := New("rc")
	c.AddV("Vin", "in", "0", 0, 1)
	c.AddR("R", "in", "out", 10e3)
	c.AddC("C", "out", "0", 10e-9)
	fc := 1 / (2 * math.Pi * 10e3 * 10e-9)

	g, err := c.GainMag("out", fc)
	if err != nil {
		t.Fatalf("GainMag: %v", err)
	}
	if math.Abs(g-1/math.Sqrt2) > 1e-9 {
		t.Errorf("|H(fc)| = %g, want 1/sqrt(2)", g)
	}
	// A decade above the cut-off, attenuation is ~20 dB.
	g10, err := c.GainMag("out", 10*fc)
	if err != nil {
		t.Fatalf("GainMag: %v", err)
	}
	if math.Abs(20*math.Log10(g10)+20.04) > 0.1 {
		t.Errorf("gain a decade up = %.2f dB, want about -20 dB", 20*math.Log10(g10))
	}
}

func TestRCLowPassDCGain(t *testing.T) {
	c := New("rc")
	c.AddV("Vin", "in", "0", 2, 1)
	c.AddR("R", "in", "out", 10e3)
	c.AddC("C", "out", "0", 10e-9)
	g, err := c.Gain("out", 0)
	if err != nil {
		t.Fatalf("Gain: %v", err)
	}
	if cmplx.Abs(g-1) > 1e-9 {
		t.Errorf("DC gain = %v, want 1", g)
	}
}

func TestInvertingAmplifier(t *testing.T) {
	// Ideal inverting amp: gain = -Rf/Rin = -4.7.
	c := New("inv")
	c.AddV("Vin", "in", "0", 1, 1)
	c.AddR("Rin", "in", "sum", 10e3)
	c.AddR("Rf", "sum", "out", 47e3)
	c.AddOpAmp("A1", "0", "sum", "out")
	g, err := c.Gain("out", 0)
	if err != nil {
		t.Fatalf("Gain: %v", err)
	}
	if cmplx.Abs(g-(-4.7)) > 1e-9 {
		t.Errorf("gain = %v, want -4.7", g)
	}
	// Virtual ground: summing node sits at 0.
	sol, err := c.DC()
	if err != nil {
		t.Fatalf("DC: %v", err)
	}
	if sol.Mag("sum") > 1e-9 {
		t.Errorf("summing node = %v, want virtual ground", sol.V("sum"))
	}
}

func TestNonInvertingAmplifier(t *testing.T) {
	// Gain = 1 + Rf/Rg = 3.
	c := New("noninv")
	c.AddV("Vin", "in", "0", 1, 1)
	c.AddOpAmp("A1", "in", "fb", "out")
	c.AddR("Rf", "out", "fb", 20e3)
	c.AddR("Rg", "fb", "0", 10e3)
	g, err := c.Gain("out", 0)
	if err != nil {
		t.Fatalf("Gain: %v", err)
	}
	if cmplx.Abs(g-3) > 1e-9 {
		t.Errorf("gain = %v, want 3", g)
	}
}

func TestOpAmpIntegratorMagnitude(t *testing.T) {
	// Inverting integrator: |H(f)| = 1/(2πf·R·C).
	c := New("integrator")
	c.AddV("Vin", "in", "0", 0, 1)
	c.AddR("R", "in", "sum", 10e3)
	c.AddC("C", "sum", "out", 100e-9)
	c.AddOpAmp("A1", "0", "sum", "out")
	f := 1234.0
	g, err := c.GainMag("out", f)
	if err != nil {
		t.Fatalf("GainMag: %v", err)
	}
	want := 1 / (2 * math.Pi * f * 10e3 * 100e-9)
	if math.Abs(g/want-1) > 1e-9 {
		t.Errorf("|H| = %g, want %g", g, want)
	}
}

func TestRLCSeriesResonance(t *testing.T) {
	// Series RLC: at resonance the reactances cancel and V(R) = V(in).
	c := New("rlc")
	c.AddV("Vin", "in", "0", 0, 1)
	c.AddL("L", "in", "n1", 10e-3)
	c.AddC("C", "n1", "n2", 1e-6)
	c.AddR("R", "n2", "0", 100)
	f0 := 1 / (2 * math.Pi * math.Sqrt(10e-3*1e-6))
	g, err := c.GainMag("n2", f0)
	if err != nil {
		t.Fatalf("GainMag: %v", err)
	}
	if math.Abs(g-1) > 1e-9 {
		t.Errorf("|H(f0)| = %g, want 1", g)
	}
	// Off resonance the series branch has net reactance, so |H| < 1.
	gOff, err := c.GainMag("n2", f0*3)
	if err != nil {
		t.Fatalf("GainMag: %v", err)
	}
	if gOff >= 1 {
		t.Errorf("|H(3·f0)| = %g, want < 1", gOff)
	}
}

func TestInductorIsShortAtDC(t *testing.T) {
	c := New("ldc")
	c.AddV("Vin", "in", "0", 5, 0)
	c.AddL("L", "in", "out", 1e-3)
	c.AddR("R", "out", "0", 1e3)
	sol, err := c.DC()
	if err != nil {
		t.Fatalf("DC: %v", err)
	}
	if math.Abs(real(sol.V("out"))-5) > 1e-9 {
		t.Errorf("V(out) = %v, want 5 (inductor shorts at DC)", sol.V("out"))
	}
}

func TestVCVS(t *testing.T) {
	c := New("vcvs")
	c.AddV("Vin", "in", "0", 2, 0)
	c.AddR("Rload1", "in", "0", 1e3)
	c.AddVCVS("E1", "out", "0", "in", "0", 10)
	c.AddR("Rload2", "out", "0", 1e3)
	sol, err := c.DC()
	if err != nil {
		t.Fatalf("DC: %v", err)
	}
	if math.Abs(real(sol.V("out"))-20) > 1e-9 {
		t.Errorf("V(out) = %v, want 20", sol.V("out"))
	}
}

func TestCurrentSource(t *testing.T) {
	c := New("isrc")
	c.AddI("I1", "0", "n", 1e-3, 0)
	c.AddR("R", "n", "0", 2e3)
	sol, err := c.DC()
	if err != nil {
		t.Fatalf("DC: %v", err)
	}
	if math.Abs(real(sol.V("n"))-2) > 1e-9 {
		t.Errorf("V(n) = %v, want 2 (1 mA into 2 kΩ)", sol.V("n"))
	}
}

func TestPerturbRestores(t *testing.T) {
	c := New("perturb")
	c.AddV("Vin", "in", "0", 1, 1)
	c.AddR("R1", "in", "out", 1e3)
	c.AddR("R2", "out", "0", 1e3)
	restore := c.Perturb("R2", 0.5)
	if got := c.Value("R2"); math.Abs(got-1500) > 1e-9 {
		t.Errorf("perturbed value = %g, want 1500", got)
	}
	restore()
	if got := c.Value("R2"); got != 1e3 {
		t.Errorf("restored value = %g, want 1000", got)
	}
}

func TestElementNamesFiltered(t *testing.T) {
	c := New("names")
	c.AddV("Vin", "in", "0", 1, 1)
	c.AddR("R2", "in", "m", 1e3)
	c.AddR("R1", "m", "0", 1e3)
	c.AddC("C1", "m", "0", 1e-9)
	rs := c.ElementNames(KindResistor)
	if len(rs) != 2 || rs[0] != "R1" || rs[1] != "R2" {
		t.Errorf("resistors = %v, want [R1 R2]", rs)
	}
	all := c.ElementNames()
	if len(all) != 4 {
		t.Errorf("all = %v, want 4 names", all)
	}
	rc := c.ElementNames(KindResistor, KindCapacitor)
	if len(rc) != 3 {
		t.Errorf("R+C = %v, want 3 names", rc)
	}
}

func TestDuplicateElementRecordsError(t *testing.T) {
	c := New("dup")
	c.AddR("R1", "a", "0", 1)
	c.AddR("R1", "b", "0", 1)
	if c.Err() == nil {
		t.Fatal("expected a construction error for duplicate element name")
	}
	if c.NumElements() != 1 {
		t.Fatalf("duplicate was added anyway: %d elements", c.NumElements())
	}
	if _, err := c.DC(); err == nil {
		t.Fatal("DC on a broken circuit succeeded")
	}
}

func TestNonPositiveResistorRecordsError(t *testing.T) {
	c := New("bad")
	c.AddR("R1", "a", "0", 0)
	if c.Err() == nil {
		t.Fatal("expected a construction error for non-positive resistance")
	}
	if c.HasElement("R1") {
		t.Fatal("invalid resistor was added anyway")
	}
	if _, err := c.DC(); err == nil {
		t.Fatal("DC on a broken circuit succeeded")
	}
}

func TestUnknownNodePanics(t *testing.T) {
	c := New("unknown")
	c.AddV("Vin", "in", "0", 1, 1)
	c.AddR("R", "in", "0", 1e3)
	sol, err := c.DC()
	if err != nil {
		t.Fatalf("DC: %v", err)
	}
	const want = `mna: no node "nope" in circuit "unknown"`
	for _, probe := range []struct {
		name string
		call func()
	}{
		{"Solution.V", func() { sol.V("nope") }},
		{"Gain", func() { _, _ = c.Gain("nope", 100) }},
	} {
		func() {
			defer func() {
				if got := recover(); got != want {
					t.Errorf("%s on an unknown node panicked with %v, want %q", probe.name, got, want)
				}
			}()
			probe.call()
		}()
	}
}

func TestGainErrors(t *testing.T) {
	c := New("gerr")
	c.AddR("R", "a", "0", 1e3)
	if _, err := c.Gain("a", 100); err == nil {
		t.Error("expected error with no active source")
	}
	c.AddV("V1", "a", "0", 0, 1)
	c.AddV("V2", "b", "0", 0, 1)
	c.AddR("R2", "b", "0", 1e3)
	if _, err := c.Gain("a", 100); err == nil {
		t.Error("expected error with two active sources")
	}
}

func TestFloatingNodeIsSingular(t *testing.T) {
	c := New("floating")
	c.AddV("Vin", "in", "0", 1, 1)
	c.AddR("R1", "in", "mid", 1e3)
	c.AddC("C1", "other", "far", 1e-9) // disconnected island
	if _, err := c.DC(); err == nil {
		t.Error("expected singular-matrix error for floating subcircuit")
	}
}

func TestNegativeFrequency(t *testing.T) {
	c := New("negf")
	c.AddV("Vin", "in", "0", 1, 1)
	c.AddR("R", "in", "0", 1e3)
	const want = "mna: negative frequency -1"
	if _, err := c.AC(-1); err == nil || err.Error() != want {
		t.Errorf("AC(-1) = %v, want %q", err, want)
	}
	if _, err := c.GainMag("in", -1); err == nil || err.Error() != want {
		t.Errorf("GainMag(-1) = %v, want %q", err, want)
	}
}

// Property: for a two-resistor divider with random positive values, the
// computed output follows the divider equation.
func TestDividerProperty(t *testing.T) {
	f := func(r1, r2 float64) bool {
		r1 = 1 + math.Mod(math.Abs(r1), 1e6)
		r2 = 1 + math.Mod(math.Abs(r2), 1e6)
		c := New("p")
		c.AddV("Vin", "in", "0", 1, 1)
		c.AddR("R1", "in", "out", r1)
		c.AddR("R2", "out", "0", r2)
		sol, err := c.DC()
		if err != nil {
			return false
		}
		want := r2 / (r1 + r2)
		return math.Abs(real(sol.V("out"))-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: AC gain magnitude of the RC low-pass matches the analytic
// 1/sqrt(1+(f/fc)²) over random frequencies.
func TestRCAnalyticProperty(t *testing.T) {
	c := New("rcprop")
	c.AddV("Vin", "in", "0", 0, 1)
	c.AddR("R", "in", "out", 10e3)
	c.AddC("C", "out", "0", 10e-9)
	fc := 1 / (2 * math.Pi * 10e3 * 10e-9)
	f := func(raw float64) bool {
		freq := 1 + math.Mod(math.Abs(raw), 1e6)
		g, err := c.GainMag("out", freq)
		if err != nil {
			return false
		}
		want := 1 / math.Sqrt(1+(freq/fc)*(freq/fc))
		return math.Abs(g/want-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestSweep(t *testing.T) {
	c := New("sweep")
	c.AddV("Vin", "in", "0", 0, 1)
	c.AddR("R", "in", "out", 10e3)
	c.AddC("C", "out", "0", 10e-9)
	freqs := []float64{10, 100, 1000, 10000}
	gains, err := c.Sweep("out", freqs)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(gains) != len(freqs) {
		t.Fatalf("len = %d, want %d", len(gains), len(freqs))
	}
	// Low-pass: magnitudes must be non-increasing with frequency.
	for i := 1; i < len(gains); i++ {
		if cmplx.Abs(gains[i]) > cmplx.Abs(gains[i-1]) {
			t.Errorf("magnitude increased between %g and %g Hz", freqs[i-1], freqs[i])
		}
	}
}
