package adc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bdd"
	"repro/internal/numeric"
)

func TestThresholdsEquallySpaced(t *testing.T) {
	f := NewFlash(15, 0, 16)
	th := f.Thresholds()
	if len(th) != 15 {
		t.Fatalf("len = %d, want 15", len(th))
	}
	for k := 1; k <= 15; k++ {
		if !numeric.ApproxEqual(th[k-1], float64(k), 1e-12) {
			t.Errorf("Vt%d = %g, want %d", k, th[k-1], k)
		}
	}
}

func TestEncodeThermometer(t *testing.T) {
	f := NewFlash(15, 0, 16)
	enc := f.Encode(7.5)
	for k := 1; k <= 15; k++ {
		want := k <= 7
		if enc[k-1] != want {
			t.Errorf("comparator %d at 7.5 V = %v, want %v", k, enc[k-1], want)
		}
	}
	if f.Code(7.5) != 7 {
		t.Errorf("code = %d, want 7", f.Code(7.5))
	}
	if f.Code(-1) != 0 || f.Code(100) != 15 {
		t.Error("codes must clip at the rails")
	}
}

func TestPerturbShiftsThresholds(t *testing.T) {
	f := NewFlash(15, 0, 16)
	vt8 := f.Threshold(8)
	restore := f.PerturbR(1, 0.5) // bottom resistor up 50%
	// All thresholds move up (bottom tap rises relative to total).
	if f.Threshold(8) <= vt8 {
		t.Error("growing R1 must raise Vt8")
	}
	restore()
	if f.Threshold(8) != vt8 {
		t.Error("restore failed")
	}
	// Perturbing a resistor above tap k lowers Vt_k.
	restore = f.PerturbR(16, 0.5)
	if f.Threshold(8) >= vt8 {
		t.Error("growing R16 must lower Vt8")
	}
	restore()
}

func TestThermometerRows(t *testing.T) {
	f := NewFlash(3, 0, 4)
	rows := f.ThermometerRows()
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	want := [][]bool{
		{false, false, false},
		{true, false, false},
		{true, true, false},
		{true, true, true},
	}
	for i := range want {
		for j := range want[i] {
			if rows[i][j] != want[i][j] {
				t.Errorf("row %d bit %d = %v", i, j, rows[i][j])
			}
		}
	}
}

func TestConstraintBDDMatchesThermometerCodes(t *testing.T) {
	f := NewFlash(4, 0, 5)
	m := bdd.New()
	names := []string{"c1", "c2", "c3", "c4"}
	fc := f.ConstraintBDD(m, names)
	// Exactly 5 of the 16 assignments are legal.
	if got := m.SatCount(fc, 4); got != 5 {
		t.Errorf("SatCount(Fc) = %g, want 5", got)
	}
	// Every encoding of a real voltage satisfies Fc.
	for _, v := range []float64{-1, 0.5, 1.5, 2.5, 3.5, 4.5, 9} {
		enc := f.Encode(v)
		a := bdd.Assignment{}
		for i, n := range names {
			a[n] = enc[i]
		}
		if !m.Eval(fc, a) {
			t.Errorf("encoding of %g V violates Fc", v)
		}
	}
	// A non-thermometer assignment is forbidden.
	if m.Eval(fc, bdd.Assignment{"c1": false, "c2": true}) {
		t.Error("0,1,... must violate Fc")
	}
}

func TestConstraintBDDEqualsProductForm(t *testing.T) {
	// The linear implication construction must equal the explicit
	// sum-of-products over the thermometer rows.
	f := NewFlash(5, 0, 6)
	m := bdd.New()
	names := []string{"c1", "c2", "c3", "c4", "c5"}
	fc := f.ConstraintBDD(m, names)
	sum := bdd.False
	for _, row := range f.ThermometerRows() {
		term := bdd.True
		for i, n := range names {
			v := m.Var(n)
			if row[i] {
				term = m.And(term, v)
			} else {
				term = m.And(term, m.Not(v))
			}
		}
		sum = m.Or(sum, term)
	}
	if fc != sum {
		t.Error("implication form and product form differ")
	}
}

func TestCoverageTableShape(t *testing.T) {
	// The headline qualitative claim of Table 6: coverage is worst
	// (largest ED) for mid-ladder resistors and improves toward both
	// rails.
	f := NewFlash(15, 0, 16)
	eds := f.CoverageTable(nil, DefaultEDOptions())
	if len(eds) != 16 {
		t.Fatalf("len = %d, want 16", len(eds))
	}
	mid := eds[7] // R8
	if eds[0] >= mid || eds[15] >= mid {
		t.Errorf("ends must beat the middle: R1=%.3f R8=%.3f R16=%.3f",
			eds[0], mid, eds[15])
	}
	// Monotone rise R1..R8 and fall R9..R16 (symmetric ladder).
	for i := 1; i < 8; i++ {
		if eds[i] < eds[i-1] {
			t.Errorf("ED must rise toward the middle: R%d=%.3f < R%d=%.3f",
				i+1, eds[i], i, eds[i-1])
		}
	}
	for i := 9; i < 16; i++ {
		if eds[i] > eds[i-1] {
			t.Errorf("ED must fall toward the top: R%d=%.3f > R%d=%.3f",
				i+1, eds[i], i, eds[i-1])
		}
	}
	// Symmetric ladder → symmetric table.
	for i := 0; i < 8; i++ {
		if !numeric.ApproxEqual(eds[i], eds[15-i], 1e-6) {
			t.Errorf("ED(R%d)=%.4f != ED(R%d)=%.4f", i+1, eds[i], 16-i, eds[15-i])
		}
	}
}

func TestCoverageMagnitudes(t *testing.T) {
	// With ε = 5% and equal resistors, R1's best comparator is Vt1:
	// required |ΔVt1| = ε·Vt1; analytic δ ≈ ε·S_tot/(S_tot−S1)·(…) —
	// small, around 5–6%. The mid resistor needs roughly 0.8 (80%).
	f := NewFlash(15, 0, 16)
	opt := DefaultEDOptions()
	if ed := f.ElementED(1, nil, opt); ed > 0.10 {
		t.Errorf("ED(R1) = %.3f, want < 0.10", ed)
	}
	mid := f.ElementED(8, nil, opt)
	if mid < 0.5 || mid > 1.2 {
		t.Errorf("ED(R8) = %.3f, want ≈0.8", mid)
	}
}

func TestCoverageRestrictedComparators(t *testing.T) {
	f := NewFlash(15, 0, 16)
	opt := DefaultEDOptions()
	full := f.ElementED(3, nil, opt)
	// Forbid the comparators near R3; coverage must degrade (larger ED).
	allowed := map[int]bool{}
	for k := 8; k <= 15; k++ {
		allowed[k] = true
	}
	restricted := f.ElementED(3, allowed, opt)
	if restricted <= full {
		t.Errorf("restricting comparators must not improve coverage: %g <= %g",
			restricted, full)
	}
	// No comparators at all → unobservable.
	if !math.IsInf(f.ElementED(3, map[int]bool{}, opt), 1) {
		t.Error("empty comparator set must yield +Inf")
	}
}

func TestBestComparatorFor(t *testing.T) {
	f := NewFlash(15, 0, 16)
	opt := DefaultEDOptions()
	// R1 is best observed at the comparator just above it.
	if k := f.BestComparatorFor(1, nil, opt); k != 1 {
		t.Errorf("best comparator for R1 = %d, want 1", k)
	}
	// R16 (above every tap) is best observed at the top comparator.
	if k := f.BestComparatorFor(16, nil, opt); k != 15 {
		t.Errorf("best comparator for R16 = %d, want 15", k)
	}
	if k := f.BestComparatorFor(5, map[int]bool{}, opt); k != 0 {
		t.Errorf("no allowed comparators must return 0, got %d", k)
	}
}

func TestFlashValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewFlash(0, 0, 1) },
		func() { NewFlash(3, 2, 1) },
		func() { NewFlash(3, 0, 1).SetR(1, -5) },
		func() { NewFlash(3, 0, 1).Threshold(9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: for random input voltages the comparator pattern is always a
// thermometer code (healthy ladder), and the code equals the threshold
// count below the input.
func TestEncodeThermometerProperty(t *testing.T) {
	f := NewFlash(15, 0, 16)
	fn := func(raw float64) bool {
		v := math.Mod(math.Abs(raw), 20) - 2
		if math.IsNaN(v) {
			v = 0
		}
		enc := f.Encode(v)
		// Thermometer: no 1 after a 0.
		seenZero := false
		ones := 0
		for _, b := range enc {
			if b {
				if seenZero {
					return false
				}
				ones++
			} else {
				seenZero = true
			}
		}
		return ones == f.Code(v)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestSARBasics(t *testing.T) {
	a := NewSAR(8, 0, 2.56)
	if a.Bits() != 8 {
		t.Errorf("bits = %d", a.Bits())
	}
	if !numeric.ApproxEqual(a.LSB(), 0.01, 1e-12) {
		t.Errorf("LSB = %g, want 0.01", a.LSB())
	}
	if got := a.Convert(1.28); got != 128 {
		t.Errorf("Convert(1.28) = %d, want 128", got)
	}
	if a.Convert(-1) != 0 {
		t.Error("below range must clip to 0")
	}
	if a.Convert(5) != 255 {
		t.Error("above range must clip to full scale")
	}
	bits := a.ConvertBits(0.05) // code 5 = 00000101
	want := []bool{true, false, true, false, false, false, false, false}
	for i := range want {
		if bits[i] != want[i] {
			t.Errorf("bit %d = %v, want %v", i, bits[i], want[i])
		}
	}
}

// Property: the SAR transfer characteristic is monotone.
func TestSARMonotoneProperty(t *testing.T) {
	a := NewSAR(8, 0, 2.56)
	f := func(x, y float64) bool {
		vx := math.Mod(math.Abs(x), 3)
		vy := math.Mod(math.Abs(y), 3)
		if math.IsNaN(vx) || math.IsNaN(vy) {
			return true
		}
		if vx > vy {
			vx, vy = vy, vx
		}
		return a.Convert(vx) <= a.Convert(vy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestINLAndDNLNominal(t *testing.T) {
	f := NewFlash(15, 0, 16)
	if inl := f.INLMaxLSB(); inl > 1e-12 {
		t.Errorf("nominal INL = %g, want 0", inl)
	}
	if dnl := f.DNLMaxLSB(); dnl > 1e-12 {
		t.Errorf("nominal DNL = %g, want 0", dnl)
	}
	if lsb := f.LSB(); !numeric.ApproxEqual(lsb, 1, 1e-12) {
		t.Errorf("LSB = %g, want 1", lsb)
	}
}

func TestINLGrowsWithLadderError(t *testing.T) {
	f := NewFlash(15, 0, 16)
	restore := f.PerturbR(8, 0.5) // mid-ladder resistor +50%
	defer restore()
	inl := f.INLMaxLSB()
	dnl := f.DNLMaxLSB()
	if inl < 0.2 {
		t.Errorf("INL after fault = %.3f LSB, want noticeable", inl)
	}
	if dnl < 0.2 {
		t.Errorf("DNL after fault = %.3f LSB, want noticeable", dnl)
	}
	// DNL concentrates at the faulted step; INL accumulates — the
	// faulted-step DNL must be at least the INL of any single tap.
	if dnl < inl/2 {
		t.Errorf("DNL = %.3f implausibly small vs INL = %.3f", dnl, inl)
	}
}

func TestDecodeThermometer(t *testing.T) {
	code, ok := DecodeThermometer([]bool{true, true, false, false})
	if !ok || code != 2 {
		t.Errorf("clean code: %d %v, want 2 true", code, ok)
	}
	code, ok = DecodeThermometer([]bool{true, false, true, false})
	if ok {
		t.Error("bubble must be flagged")
	}
	if code != 2 {
		t.Errorf("bubble-blind count = %d, want 2", code)
	}
	if code, ok := DecodeThermometer(nil); code != 0 || !ok {
		t.Error("empty pattern is the zero code")
	}
}

func TestSuppressBubblesRepairsSingleBubble(t *testing.T) {
	// 1,0,1,1,0 has a bubble at position 1; majority voting repairs it.
	in := []bool{true, false, true, true, false}
	out := SuppressBubbles(in)
	if _, ok := DecodeThermometer(out); !ok {
		t.Errorf("suppression left a bubble: %v", out)
	}
	// Input untouched.
	if !in[0] || in[1] {
		t.Error("input mutated")
	}
	// Clean codes pass through unchanged.
	clean := []bool{true, true, true, false, false}
	got := SuppressBubbles(clean)
	for i := range clean {
		if got[i] != clean[i] {
			t.Errorf("clean code changed at %d", i)
		}
	}
}

func TestFaultyLadderProducesBubbleAndSuppressionRecovers(t *testing.T) {
	// A grossly shorted mid resistor makes adjacent thresholds collapse
	// and can invert their order relative to neighbours under a second
	// perturbation — emulate non-monotone thresholds directly by
	// swapping two ladder values hard.
	f := NewFlash(7, 0, 8)
	f.SetR(3, 10)  // nearly short
	f.SetR(4, 6e3) // huge
	// Find an input that produces a bubble, if any; with collapsed
	// thresholds the comparator order can invert only if thresholds are
	// non-monotone. Thresholds from a resistor string are always
	// monotone, so Encode stays thermometer — verify that invariant,
	// then exercise suppression on a synthetic comparator fault instead.
	for v := 0.0; v <= 8; v += 0.05 {
		if _, ok := DecodeThermometer(f.Encode(v)); !ok {
			t.Fatalf("resistor-string thresholds must stay monotone (v=%g)", v)
		}
	}
	// Synthetic stuck comparator: comparator 4 stuck at 0 creates a
	// bubble for mid-range inputs; suppression recovers a legal code
	// within one LSB of the true one.
	enc := f.Encode(5.5)
	trueCode, _ := DecodeThermometer(enc)
	enc[1] = false // comparator stuck mid-run of the asserted block
	if _, ok := DecodeThermometer(enc); ok {
		t.Fatal("expected a bubble from the stuck comparator")
	}
	rep := SuppressBubbles(enc)
	code, ok := DecodeThermometer(rep)
	if !ok {
		t.Fatalf("suppression failed: %v", rep)
	}
	if d := code - trueCode; d < -1 || d > 1 {
		t.Errorf("recovered code %d too far from true %d", code, trueCode)
	}
}
