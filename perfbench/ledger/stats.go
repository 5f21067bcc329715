package ledger

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the middle value (the mean of the two middle values for
// an even count); NaN for no samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the three cut points that Python's
// statistics.quantiles(xs, n=4) returns with its default "exclusive"
// method, so spreads computed here match the ones computed from a
// record with Python.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		nan := math.NaN()
		return nan, nan, nan
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// Spread is the interquartile range as a share of the median: the noise
// figure a metric's regression bound is judged against.
func Spread(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// Tail returns the highest percentile of xs that still has at least ten
// samples beyond it, and that percentile. ok is false when there are
// fewer than 20 samples: then that percentile would lie below the
// median, or not exist at all.
func Tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n < 20 {
		return math.NaN(), 0, false
	}
	k := n - 10 // 1-based rank with exactly ten samples above it
	return sorted(xs)[k-1], 100 * float64(k) / float64(n), true
}

// Percentile returns the nearest-rank p-th percentile (0 < p ≤ 100).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(1, min(k, len(s)))-1]
}
