// Package numeric provides the small numerical substrate used by the
// analog-simulation side of the repository: dense linear solvers over the
// real and complex fields, scalar root finding, one-dimensional
// maximisation, and polynomial helpers.
//
// The package is deliberately self-contained (stdlib only) and tuned for
// the matrix sizes that arise from Modified Nodal Analysis of the paper's
// case-study filters — tens of unknowns, dense, well-conditioned after
// partial pivoting.
package numeric

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrSingular is returned by the linear solvers when elimination meets a
// pivot whose magnitude is below the singularity threshold.
var ErrSingular = errors.New("numeric: matrix is singular to working precision")

// pivotEps is the relative magnitude below which a pivot is treated as zero.
const pivotEps = 1e-13

// SolveComplex solves the dense linear system A·x = b over the complex
// numbers using Gaussian elimination with partial pivoting. A is given in
// row-major order and is modified in place, as is b; the solution is
// returned in a fresh slice. The matrix must be square and match len(b).
func SolveComplex(a [][]complex128, b []complex128) ([]complex128, error) {
	x := make([]complex128, len(b))
	if err := SolveComplexInto(a, b, x, make([]float64, len(b))); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveComplexInto is SolveComplex with caller-owned storage: the
// solution is written to x and scale is scratch for the row scale
// factors, both of length len(b). It allocates nothing, so a caller that
// solves many systems of one size (an MNA circuit swept over frequency)
// reuses one set of buffers. A and b are modified in place; the rows of
// A are reordered by pivoting.
func SolveComplexInto(a [][]complex128, b, x []complex128, scale []float64) error {
	n := len(a)
	if n == 0 {
		return errors.New("numeric: empty system")
	}
	if len(b) != n {
		return fmt.Errorf("numeric: dimension mismatch: %d rows, %d rhs", n, len(b))
	}
	if len(x) != n || len(scale) != n {
		return fmt.Errorf("numeric: scratch has %d solution and %d scale entries, want %d", len(x), len(scale), n)
	}
	for i, row := range a {
		if len(row) != n {
			return fmt.Errorf("numeric: row %d has %d columns, want %d", i, len(row), n)
		}
	}

	// Scale factor per row for scaled partial pivoting keeps the
	// elimination stable when MNA stamps mix conductances of very
	// different magnitudes (1/R vs. ωC). MNA rows are mostly exact
	// zeros, and a zero can never win the maximum here or in the pivot
	// scan below, so both scans skip them without changing a pivot.
	for i := 0; i < n; i++ {
		s := 0.0
		for _, v := range a[i] {
			if v == 0 {
				continue
			}
			if m := cmplx.Abs(v); m > s {
				s = m
			}
		}
		if s == 0 {
			return ErrSingular
		}
		scale[i] = s
	}

	for k := 0; k < n; k++ {
		// Select pivot row.
		p, best := k, cmplx.Abs(a[k][k])/scale[k]
		for i := k + 1; i < n; i++ {
			if a[i][k] == 0 {
				continue
			}
			if m := cmplx.Abs(a[i][k]) / scale[i]; m > best {
				p, best = i, m
			}
		}
		if best < pivotEps {
			return ErrSingular
		}
		if p != k {
			a[p], a[k] = a[k], a[p]
			b[p], b[k] = b[k], b[p]
			scale[p], scale[k] = scale[k], scale[p]
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

	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= a[i][j] * x[j]
		}
		x[i] = sum / a[i][i]
	}
	return nil
}

// SolveReal solves A·x = b over the reals with scaled partial pivoting.
// A and b are modified in place.
func SolveReal(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 {
		return nil, errors.New("numeric: empty system")
	}
	if len(b) != n {
		return nil, fmt.Errorf("numeric: dimension mismatch: %d rows, %d rhs", n, len(b))
	}
	ac := make([][]complex128, n)
	bc := make([]complex128, n)
	for i := range a {
		if len(a[i]) != n {
			return nil, fmt.Errorf("numeric: row %d has %d columns, want %d", i, len(a[i]), n)
		}
		ac[i] = make([]complex128, n)
		for j := range a[i] {
			ac[i][j] = complex(a[i][j], 0)
		}
		bc[i] = complex(b[i], 0)
	}
	xc, err := SolveComplex(ac, bc)
	if err != nil {
		return nil, err
	}
	x := make([]float64, n)
	for i := range xc {
		x[i] = real(xc[i])
	}
	return x, nil
}

// NewComplexMatrix allocates an n×n zero matrix backed by a single slice so
// repeated AC sweeps reuse cache-friendly storage.
func NewComplexMatrix(n int) [][]complex128 {
	backing := make([]complex128, n*n)
	m := make([][]complex128, n)
	for i := range m {
		m[i] = backing[i*n : (i+1)*n]
	}
	return m
}

// CloneComplexMatrix deep-copies m.
func CloneComplexMatrix(m [][]complex128) [][]complex128 {
	out := NewComplexMatrix(len(m))
	for i := range m {
		copy(out[i], m[i])
	}
	return out
}

// MatVecComplex returns A·x.
func MatVecComplex(a [][]complex128, x []complex128) []complex128 {
	out := make([]complex128, len(a))
	for i := range a {
		var s complex128
		for j := range x {
			s += a[i][j] * x[j]
		}
		out[i] = s
	}
	return out
}

// ResidualNorm returns the infinity norm of A·x − b, used by tests to check
// solver accuracy.
func ResidualNorm(a [][]complex128, x, b []complex128) float64 {
	r := MatVecComplex(a, x)
	worst := 0.0
	for i := range r {
		if d := cmplx.Abs(r[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// Linspace returns n points evenly spaced over [lo, hi] inclusive.
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}

// Logspace returns n points evenly spaced in log10 over [lo, hi]; lo and hi
// must be positive.
func Logspace(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= 0 {
		//lint:allow nopanic positive-bounds precondition
		panic("numeric: Logspace requires positive bounds")
	}
	pts := Linspace(math.Log10(lo), math.Log10(hi), n)
	for i, p := range pts {
		pts[i] = math.Pow(10, p)
	}
	if n > 0 {
		pts[0], pts[n-1] = lo, hi
	}
	return pts
}
