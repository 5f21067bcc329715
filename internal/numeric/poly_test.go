package numeric

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPolyEval(t *testing.T) {
	p := Poly{1, 2, 3} // 1 + 2x + 3x²
	if got := p.Eval(2); got != 17 {
		t.Errorf("Eval(2) = %g, want 17", got)
	}
	if got := p.Eval(0); got != 1 {
		t.Errorf("Eval(0) = %g, want 1", got)
	}
	if got := (Poly{}).Eval(5); got != 0 {
		t.Errorf("empty Eval = %g, want 0", got)
	}
}

func TestPolyEvalComplex(t *testing.T) {
	p := Poly{0, 0, 1} // s²
	got := p.EvalComplex(1i)
	if cmplx.Abs(got-(-1)) > 1e-15 {
		t.Errorf("s² at j = %v, want -1", got)
	}
}

func TestPolyDerivative(t *testing.T) {
	p := Poly{5, 3, 2, 1} // 5 + 3x + 2x² + x³
	d := p.Derivative()
	want := Poly{3, 4, 3}
	if len(d) != len(want) {
		t.Fatalf("len = %d, want %d", len(d), len(want))
	}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("d[%d] = %g, want %g", i, d[i], want[i])
		}
	}
	if got := (Poly{7}).Derivative(); len(got) != 1 || got[0] != 0 {
		t.Errorf("constant derivative = %v, want [0]", got)
	}
}

func TestPolyMulAddScale(t *testing.T) {
	p := Poly{1, 1}  // 1 + x
	q := Poly{-1, 1} // -1 + x
	prod := p.Mul(q) // x² - 1
	if prod.Eval(3) != 8 {
		t.Errorf("(1+x)(x-1) at 3 = %g, want 8", prod.Eval(3))
	}
	sum := p.Add(q) // 2x
	if sum.Eval(3) != 6 {
		t.Errorf("sum at 3 = %g, want 6", sum.Eval(3))
	}
	sc := p.Scale(4)
	if sc.Eval(1) != 8 {
		t.Errorf("scale at 1 = %g, want 8", sc.Eval(1))
	}
}

func TestPolyDegree(t *testing.T) {
	if d := (Poly{1, 2, 0, 0}).Degree(); d != 1 {
		t.Errorf("degree = %d, want 1", d)
	}
	if d := (Poly{0}).Degree(); d != 0 {
		t.Errorf("degree of zero poly = %d, want 0", d)
	}
}

// Property: evaluation is a ring homomorphism — (p·q)(x) = p(x)·q(x) and
// (p+q)(x) = p(x)+q(x).
func TestPolyRingProperty(t *testing.T) {
	f := func(a, b, c, d, x float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 1
			}
			return math.Mod(v, 100)
		}
		p := Poly{clamp(a), clamp(b)}
		q := Poly{clamp(c), clamp(d)}
		xx := clamp(x)
		mul := p.Mul(q).Eval(xx)
		add := p.Add(q).Eval(xx)
		okMul := ApproxEqual(mul, p.Eval(xx)*q.Eval(xx), 1e-9)
		okAdd := ApproxEqual(add, p.Eval(xx)+q.Eval(xx), 1e-9)
		return okMul && okAdd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestChebyshevPoles(t *testing.T) {
	poles := ChebyshevPoles(5, 0.5)
	if len(poles) != 5 {
		t.Fatalf("len = %d, want 5", len(poles))
	}
	for i, p := range poles {
		if real(p) >= 0 {
			t.Errorf("pole %d = %v not in left half plane", i, p)
		}
	}
	// Poles come in conjugate pairs plus one real pole for odd order.
	realPoles := 0
	for _, p := range poles {
		if math.Abs(imag(p)) < 1e-12 {
			realPoles++
		}
	}
	if realPoles != 1 {
		t.Errorf("real poles = %d, want 1 for odd order", realPoles)
	}
	if got := ChebyshevPoles(0, 1); got != nil {
		t.Errorf("order 0 = %v, want nil", got)
	}
}

func TestDbRoundTrip(t *testing.T) {
	for _, m := range []float64{0.001, 0.5, 1, 2, 1000} {
		if got := FromDb(Db(m)); math.Abs(got/m-1) > 1e-12 {
			t.Errorf("round trip %g -> %g", m, got)
		}
	}
	if Db(1) != 0 {
		t.Errorf("Db(1) = %g, want 0", Db(1))
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(100, 100.04, 1e-3) {
		t.Error("100 ~ 100.04 at 1e-3 should hold")
	}
	if ApproxEqual(100, 101, 1e-3) {
		t.Error("100 !~ 101 at 1e-3")
	}
	if !ApproxEqual(0, 1e-6, 1e-3) {
		t.Error("near-zero absolute comparison should hold")
	}
}
