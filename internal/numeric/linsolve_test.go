package numeric

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveComplexIdentity(t *testing.T) {
	a := NewComplexMatrix(3)
	for i := 0; i < 3; i++ {
		a[i][i] = 1
	}
	b := []complex128{1 + 2i, 3, -4i}
	x, err := SolveComplex(CloneComplexMatrix(a), append([]complex128(nil), b...))
	if err != nil {
		t.Fatalf("SolveComplex: %v", err)
	}
	for i := range b {
		if x[i] != b[i] {
			t.Errorf("x[%d] = %v, want %v", i, x[i], b[i])
		}
	}
}

func TestSolveComplexKnownSystem(t *testing.T) {
	// 2x + y = 5; x - y = 1  ->  x = 2, y = 1
	a := [][]complex128{{2, 1}, {1, -1}}
	b := []complex128{5, 1}
	x, err := SolveComplex(a, b)
	if err != nil {
		t.Fatalf("SolveComplex: %v", err)
	}
	if cmplx.Abs(x[0]-2) > 1e-12 || cmplx.Abs(x[1]-1) > 1e-12 {
		t.Errorf("got x = %v, want [2 1]", x)
	}
}

func TestSolveComplexSingular(t *testing.T) {
	a := [][]complex128{{1, 2}, {2, 4}}
	b := []complex128{1, 2}
	if _, err := SolveComplex(a, b); err == nil {
		t.Fatal("expected ErrSingular for rank-deficient matrix")
	}
}

func TestSolveComplexNeedsPivoting(t *testing.T) {
	// Zero on the initial diagonal forces a row swap.
	a := [][]complex128{{0, 1}, {1, 0}}
	b := []complex128{3, 7}
	x, err := SolveComplex(a, b)
	if err != nil {
		t.Fatalf("SolveComplex: %v", err)
	}
	if cmplx.Abs(x[0]-7) > 1e-12 || cmplx.Abs(x[1]-3) > 1e-12 {
		t.Errorf("got %v, want [7 3]", x)
	}
}

func TestSolveComplexDimensionErrors(t *testing.T) {
	if _, err := SolveComplex(nil, nil); err == nil {
		t.Error("empty system should error")
	}
	if _, err := SolveComplex([][]complex128{{1}}, []complex128{1, 2}); err == nil {
		t.Error("rhs length mismatch should error")
	}
	if _, err := SolveComplex([][]complex128{{1, 2}, {3}}, []complex128{1, 2}); err == nil {
		t.Error("ragged matrix should error")
	}
}

func TestSolveRealMatchesHandSolution(t *testing.T) {
	a := [][]float64{{3, 2, -1}, {2, -2, 4}, {-1, 0.5, -1}}
	b := []float64{1, -2, 0}
	x, err := SolveReal(a, b)
	if err != nil {
		t.Fatalf("SolveReal: %v", err)
	}
	want := []float64{1, -2, -2}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

// Property: for random well-conditioned systems, solving then multiplying
// back recovers the right-hand side.
func TestSolveComplexResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		a := NewComplexMatrix(n)
		b := make([]complex128, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a[i][j] = complex(r.NormFloat64(), r.NormFloat64())
			}
			// Diagonal dominance guarantees conditioning.
			a[i][i] += complex(float64(n)*4, 0)
			b[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		orig := CloneComplexMatrix(a)
		borig := append([]complex128(nil), b...)
		x, err := SolveComplex(a, b)
		if err != nil {
			return false
		}
		return ResidualNorm(orig, x, borig) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLinspace(t *testing.T) {
	pts := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(pts) != len(want) {
		t.Fatalf("len = %d, want %d", len(pts), len(want))
	}
	for i := range want {
		if math.Abs(pts[i]-want[i]) > 1e-15 {
			t.Errorf("pts[%d] = %g, want %g", i, pts[i], want[i])
		}
	}
	if got := Linspace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("Linspace n=1: got %v", got)
	}
	if got := Linspace(0, 1, 0); got != nil {
		t.Errorf("Linspace n=0: got %v, want nil", got)
	}
}

func TestLogspace(t *testing.T) {
	pts := Logspace(1, 10000, 5)
	want := []float64{1, 10, 100, 1000, 10000}
	for i := range want {
		if math.Abs(pts[i]/want[i]-1) > 1e-12 {
			t.Errorf("pts[%d] = %g, want %g", i, pts[i], want[i])
		}
	}
}

func TestLogspacePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive bound")
		}
	}()
	Logspace(0, 10, 3)
}

// refSolveComplex is SolveComplex's elimination as it stood before the
// zero skips and caller scratch, kept as the oracle that they move no
// pivot and no bit of the result. It reports the row swaps it made.
func refSolveComplex(a [][]complex128, b []complex128) ([]complex128, int, error) {
	n := len(a)
	scale := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			if m := cmplx.Abs(a[i][j]); m > s {
				s = m
			}
		}
		if s == 0 {
			return nil, 0, ErrSingular
		}
		scale[i] = s
	}
	swaps := 0
	for k := 0; k < n; k++ {
		p, best := k, cmplx.Abs(a[k][k])/scale[k]
		for i := k + 1; i < n; i++ {
			if m := cmplx.Abs(a[i][k]) / scale[i]; m > best {
				p, best = i, m
			}
		}
		if best < pivotEps {
			return nil, swaps, ErrSingular
		}
		if p != k {
			a[p], a[k] = a[k], a[p]
			b[p], b[k] = b[k], b[p]
			scale[p], scale[k] = scale[k], scale[p]
			swaps++
		}
		piv := a[k][k]
		for i := k + 1; i < n; i++ {
			if a[i][k] == 0 {
				continue
			}
			m := a[i][k] / piv
			a[i][k] = 0
			for j := k + 1; j < n; j++ {
				a[i][j] -= m * a[k][j]
			}
			b[i] -= m * b[k]
		}
	}
	x := make([]complex128, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= a[i][j] * x[j]
		}
		x[i] = sum / a[i][i]
	}
	return x, swaps, nil
}

// mnaShapedSystem builds a random system shaped like a Modified Nodal
// Analysis stamp: conductances, susceptances or both between random node
// pairs or to ground, and branch rows and columns of ±1 entries for
// voltage sources (zero diagonal), inductors (−jωL on the diagonal) and
// VCVSs (control gains in the row). Such systems are mostly exact zeros,
// need row swaps, and tie in the pivot scan.
func mnaShapedSystem(r *rand.Rand) ([][]complex128, []complex128) {
	nodes := 2 + r.Intn(10)
	branches := r.Intn(4)
	n := nodes + branches
	a := NewComplexMatrix(n)
	b := make([]complex128, n)
	for e := r.Intn(2 * nodes); e >= 0; e-- {
		i, j := r.Intn(nodes+1)-1, r.Intn(nodes+1)-1 // -1 is ground
		if i == j {
			continue
		}
		var y complex128
		switch r.Intn(3) {
		case 0:
			y = complex(math.Pow(10, -6+6*r.Float64()), 0)
		case 1:
			y = complex(0, math.Pow(10, -9+6*r.Float64()))
		default:
			y = complex(math.Pow(10, -6+6*r.Float64()), math.Pow(10, -9+6*r.Float64()))
		}
		if i >= 0 {
			a[i][i] += y
		}
		if j >= 0 {
			a[j][j] += y
		}
		if i >= 0 && j >= 0 {
			a[i][j] -= y
			a[j][i] -= y
		}
	}
	for k := 0; k < branches; k++ {
		br := nodes + k
		plus, minus := r.Intn(nodes), r.Intn(nodes+1)-1
		a[br][plus], a[plus][br] = 1, 1
		if minus >= 0 && minus != plus {
			a[br][minus], a[minus][br] = -1, -1
		}
		switch r.Intn(3) {
		case 0: // voltage source
			b[br] = complex(r.NormFloat64(), 0)
		case 1: // inductor
			a[br][br] = complex(0, -math.Pow(10, -3+4*r.Float64()))
		default: // VCVS controlled by a random node
			a[br][r.Intn(nodes)] -= complex(math.Pow(10, 2*r.Float64()), 0)
		}
	}
	if r.Intn(3) == 0 {
		b[r.Intn(nodes)] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return a, b
}

// TestSolveComplexMatchesReference checks the zero-skipping,
// caller-scratch solve against the reference loop with == on seeded
// MNA-shaped systems, singular ones included. SolveComplexInto runs on
// scratch left dirty by the previous system, as an MNA workspace reuses
// it.
func TestSolveComplexMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var x []complex128
	var scale []float64
	var zeroDiag, swapped, singular int
	for trial := 0; trial < 2000; trial++ {
		a, b := mnaShapedSystem(r)
		n := len(b)
		for i := range a {
			if a[i][i] == 0 {
				zeroDiag++
				break
			}
		}
		want, swaps, wantErr := refSolveComplex(CloneComplexMatrix(a), append([]complex128(nil), b...))
		if swaps > 0 {
			swapped++
		}
		if wantErr != nil {
			singular++
		}
		got, err := SolveComplex(CloneComplexMatrix(a), append([]complex128(nil), b...))
		if len(x) != n {
			x, scale = make([]complex128, n), make([]float64, n)
			for i := range x {
				x[i], scale[i] = complex(math.NaN(), 1), -1
			}
		}
		intoErr := SolveComplexInto(CloneComplexMatrix(a), append([]complex128(nil), b...), x, scale)
		if (err == nil) != (wantErr == nil) || (intoErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: errors %v and %v, reference %v", trial, err, intoErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		for i := range want {
			if got[i] != want[i] || x[i] != want[i] {
				t.Fatalf("trial %d: x[%d] = %v (SolveComplex), %v (SolveComplexInto), reference %v", trial, i, got[i], x[i], want[i])
			}
		}
	}
	// The systems must exercise what the zero skips touch.
	if zeroDiag == 0 || swapped == 0 || singular == 0 {
		t.Errorf("zero diagonals in %d systems, row swaps in %d, singular %d; want each > 0", zeroDiag, swapped, singular)
	}
}
