package numeric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBisectSimpleRoot(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	x, err := Bisect(f, 0, 2, 1e-10)
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if math.Abs(x-math.Sqrt2) > 1e-9 {
		t.Errorf("root = %.12f, want sqrt(2)", x)
	}
}

func TestBisectReversedInterval(t *testing.T) {
	f := func(x float64) float64 { return x - 1 }
	x, err := Bisect(f, 3, 0, 1e-12)
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if math.Abs(x-1) > 1e-10 {
		t.Errorf("root = %g, want 1", x)
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Bisect(f, -1, 1, 1e-9); err != ErrNoBracket {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

func TestBisectEndpointRoots(t *testing.T) {
	f := func(x float64) float64 { return x }
	if x, err := Bisect(f, 0, 5, 1e-9); err != nil || x != 0 {
		t.Errorf("lo endpoint: x=%g err=%v", x, err)
	}
	if x, err := Bisect(f, -5, 0, 1e-9); err != nil || x != 0 {
		t.Errorf("hi endpoint: x=%g err=%v", x, err)
	}
}

func TestBrentMatchesBisect(t *testing.T) {
	cases := []struct {
		f        func(float64) float64
		lo, hi   float64
		wantRoot float64
	}{
		{func(x float64) float64 { return x*x*x - x - 2 }, 1, 2, 1.5213797068045676},
		{func(x float64) float64 { return math.Cos(x) - x }, 0, 1, 0.7390851332151607},
		{func(x float64) float64 { return math.Exp(x) - 3 }, 0, 2, math.Log(3)},
	}
	for i, c := range cases {
		x, err := Brent(c.f, c.lo, c.hi, 1e-13)
		if err != nil {
			t.Errorf("case %d: %v", i, err)
			continue
		}
		if math.Abs(x-c.wantRoot) > 1e-9 {
			t.Errorf("case %d: root = %.12f, want %.12f", i, x, c.wantRoot)
		}
	}
}

func TestBrentNoBracket(t *testing.T) {
	if _, err := Brent(func(x float64) float64 { return 1 }, 0, 1, 1e-9); err != ErrNoBracket {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

// Property: Brent finds a point where |f| is tiny for random monotone cubics
// that bracket zero.
func TestBrentProperty(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(math.Abs(a), 5) + 0.1
		b = math.Mod(b, 10)
		fn := func(x float64) float64 { return a*x*x*x + x - b }
		// Monotone increasing; bracket generously.
		x, err := Brent(fn, -20, 20, 1e-13)
		if err != nil {
			return false
		}
		return math.Abs(fn(x)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestGoldenMax(t *testing.T) {
	f := func(x float64) float64 { return -(x - 3) * (x - 3) }
	x, fx := GoldenMax(f, 0, 10, 1e-10)
	if math.Abs(x-3) > 1e-7 {
		t.Errorf("argmax = %g, want 3", x)
	}
	if math.Abs(fx) > 1e-12 {
		t.Errorf("max = %g, want 0", fx)
	}
}

func TestGoldenMaxAsymmetric(t *testing.T) {
	// Resonance-shaped curve (like a band-pass gain vs log-frequency)
	// with its peak off-center in the interval.
	f := func(x float64) float64 { return 1 / (1 + (x-2)*(x-2)) }
	x, _ := GoldenMax(f, 0, 10, 1e-9)
	if math.Abs(x-2) > 1e-5 {
		t.Errorf("argmax = %g, want 2", x)
	}
}

func TestExpandBracket(t *testing.T) {
	// Crossing at x = 37; start with a tiny interval.
	f := func(x float64) float64 { return x - 37 }
	a, b, err := ExpandBracket(f, 0, 1, 1000)
	if err != nil {
		t.Fatalf("ExpandBracket: %v", err)
	}
	if !(f(a) <= 0 && f(b) >= 0) {
		t.Errorf("interval [%g, %g] does not bracket the root", a, b)
	}
	x, err := Brent(f, a, b, 1e-12)
	if err != nil || math.Abs(x-37) > 1e-9 {
		t.Errorf("root in expanded bracket = %g (err %v), want 37", x, err)
	}
}

func TestExpandBracketLimit(t *testing.T) {
	f := func(x float64) float64 { return 1 + x } // never crosses for x>0
	if _, _, err := ExpandBracket(f, 0, 1, 50); err != ErrNoBracket {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

func TestExpandBracketBadInterval(t *testing.T) {
	f := func(x float64) float64 { return x }
	if _, _, err := ExpandBracket(f, 1, 1, 10); err == nil {
		t.Error("expected error for hi <= lo")
	}
}
