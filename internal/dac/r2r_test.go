package dac

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/numeric"
)

func TestIdealTransfer(t *testing.T) {
	d := NewR2R(6, 2.56)
	for code := 0; code <= d.FullScale(); code++ {
		v, err := d.Vout(code)
		if err != nil {
			t.Fatalf("Vout(%d): %v", code, err)
		}
		want := d.IdealVout(code)
		if !numeric.ApproxEqual(v, want, 1e-9) {
			t.Fatalf("Vout(%d) = %.9f, want %.9f", code, v, want)
		}
	}
}

func TestTransferTableMatchesVout(t *testing.T) {
	d := NewR2R(5, 1)
	table, err := d.TransferTable()
	if err != nil {
		t.Fatalf("TransferTable: %v", err)
	}
	if len(table) != 32 {
		t.Fatalf("table size = %d", len(table))
	}
	for _, code := range []int{0, 1, 7, 16, 31} {
		v, err := d.Vout(code)
		if err != nil {
			t.Fatalf("Vout: %v", err)
		}
		if !numeric.ApproxEqual(table[code], v, 1e-12) {
			t.Errorf("table[%d] = %g, Vout = %g", code, table[code], v)
		}
	}
}

func TestVoutRangeChecks(t *testing.T) {
	d := NewR2R(4, 1)
	if _, err := d.Vout(-1); err == nil {
		t.Error("negative code must error")
	}
	if _, err := d.Vout(16); err == nil {
		t.Error("overflow code must error")
	}
}

func TestINLZeroWhenNominal(t *testing.T) {
	d := NewR2R(8, 2.56)
	inl, err := d.INLMaxLSB()
	if err != nil {
		t.Fatalf("INL: %v", err)
	}
	if inl > 1e-6 {
		t.Errorf("nominal ladder INL = %g LSB, want ≈0", inl)
	}
}

func TestINLGrowsWithMSBLegError(t *testing.T) {
	d := NewR2R(8, 2.56)
	restore := d.Perturb("Ra7", 0.02) // MSB leg +2%
	defer restore()
	inl, err := d.INLMaxLSB()
	if err != nil {
		t.Fatalf("INL: %v", err)
	}
	// A 2% MSB-leg error moves the half-scale step by roughly
	// 0.01·128 LSB ≈ 1 LSB; it must clearly exceed half an LSB.
	if inl < 0.5 {
		t.Errorf("INL after MSB error = %.3f LSB, want > 0.5", inl)
	}
}

func TestElementEDMonotoneAcrossBits(t *testing.T) {
	// The R-2R dual of Table 6: the MSB-side elements dominate the
	// output, so their detectable deviations are small, while deep-LSB
	// elements need ever larger deviations.
	d := NewR2R(6, 2.56)
	opt := DefaultEDOptions()
	edMSB := d.ElementED("Ra5", opt)
	edMid := d.ElementED("Ra3", opt)
	edLSB := d.ElementED("Ra0", opt)
	if !(edMSB < edMid && edMid < edLSB) {
		t.Errorf("EDs not ordered MSB<mid<LSB: %.3f, %.3f, %.3f", edMSB, edMid, edLSB)
	}
	// MSB leg: a 5%-of-Vref error needs roughly a 20% element change
	// (the leg carries half the full scale); sanity-band the value.
	if edMSB < 0.02 || edMSB > 0.8 {
		t.Errorf("ED(Ra5) = %.3f out of sanity band", edMSB)
	}
}

func TestCoverageTableComplete(t *testing.T) {
	d := NewR2R(4, 1)
	names := d.ElementNames()
	eds := d.CoverageTable(DefaultEDOptions())
	if len(eds) != len(names) {
		t.Fatalf("coverage %d entries for %d elements", len(eds), len(names))
	}
	// Terminator + 4 legs + 3 rungs = 8 elements.
	if len(names) != 8 {
		t.Errorf("element count = %d, want 8", len(names))
	}
	finite := 0
	for _, ed := range eds {
		if !math.IsInf(ed, 1) {
			finite++
		}
	}
	if finite < 5 {
		t.Errorf("only %d elements observable; expected most of the ladder", finite)
	}
}

func TestConstructorValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewR2R(0, 1) },
		func() { NewR2R(17, 1) },
		func() { NewR2R(8, -1) },
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

// Property: the transfer function is strictly monotone in the code for a
// healthy ladder, and superposition (TransferTable) matches per-code
// solves under random single-element perturbations.
func TestMonotoneAndSuperpositionProperty(t *testing.T) {
	d := NewR2R(5, 1)
	names := d.ElementNames()
	f := func(pick uint8, rawDelta float64) bool {
		name := names[int(pick)%len(names)]
		delta := math.Mod(math.Abs(rawDelta), 0.04) // small, keeps monotonicity
		if math.IsNaN(delta) {
			delta = 0.01
		}
		restore := d.Perturb(name, delta)
		defer restore()
		table, err := d.TransferTable()
		if err != nil {
			return false
		}
		for code := 1; code < len(table); code++ {
			if table[code] <= table[code-1] {
				return false
			}
		}
		// Spot-check superposition against a direct solve.
		v, err := d.Vout(21)
		if err != nil {
			return false
		}
		return numeric.ApproxEqual(v, table[21], 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
