package guard

import (
	"fmt"
	"hash/fnv"
	"time"
)

// Backoff is an exponential retry-delay policy with deterministic
// jitter: attempt n waits Base·2^n, capped at Max, minus a
// jittered fraction so a fleet of retriers spreads out instead of
// thundering back in lockstep. The jitter is a pure function of
// (Seed, key, attempt) — the same deterministic-hash discipline as the
// chaos injector — so tests can predict every delay exactly.
//
// The zero value imposes no waiting (Delay returns 0 for every
// attempt), which keeps Backoff safe to embed in configs that leave it
// unset.
type Backoff struct {
	// Base is the delay before the first retry; 0 disables waiting.
	Base time.Duration
	// Max caps the grown delay; 0 means uncapped.
	Max time.Duration
	// Jitter is the fraction of each delay that is randomized away, in
	// [0, 1]: the delay for attempt n lands in
	// [(1-Jitter)·d(n), d(n)]. 0 means fully deterministic delays.
	Jitter float64
	// Seed feeds the jitter hash, so two policies with different seeds
	// de-correlate even when retrying the same key.
	Seed int64
}

// Delay returns the pause before retry attempt n (0-based: attempt 0 is
// the pause after the first failure) for the given work-item key.
func (b Backoff) Delay(attempt int, key string) time.Duration {
	if b.Base <= 0 || attempt < 0 {
		return 0
	}
	d := float64(b.Base)
	for i := 0; i < attempt; i++ {
		d *= 2
		if b.Max > 0 && d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	if b.Max > 0 && d > float64(b.Max) {
		d = float64(b.Max)
	}
	if b.Jitter > 0 {
		j := b.Jitter
		if j > 1 {
			j = 1
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s|%d", b.Seed, key, attempt)
		frac := float64(h.Sum64()%1_000_000) / 1_000_000
		d -= d * j * frac
	}
	return time.Duration(d)
}
