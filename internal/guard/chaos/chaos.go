// Package chaos is a deterministic fault-injection harness for the
// guard execution layer: it forces panics, solver errors, budget
// exhaustion and timeouts at seeded points of the pipeline, so every
// degradation path of internal/guard can be exercised in tests —
// including under the race detector — without depending on a real BDD
// blow-up or an ill-conditioned matrix showing up on cue.
//
// An Injector travels in the context; instrumented sites call
//
//	if err := chaos.Step(ctx, "atpg.fault", faultName); err != nil { ... }
//
// which is a no-op (nil error, no allocation) unless an injector was
// installed with Into. Whether a given (site, key) pair fires — and
// which failure it gets — is a pure function of the injector's seed, so
// a test can predict and replay exactly which work items degrade.
package chaos

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/guard"
)

// The registered injection sites. Instrumented code must name its
// Step call with one of these constants — the chaossite lint check
// (internal/lint, run by cmd/msalint) rejects raw strings that are not
// in this registry, flags duplicate registrations, and flags registry
// entries whose injection point has been removed, so the set below and
// the instrumented pipeline cannot drift apart.
const (
	// SiteATPGFault wraps one targeted combinational fault of an ATPG
	// run (atpg.(*Generator).Run and atpg.RunParallel).
	SiteATPGFault = "atpg.fault"
	// SiteATPGShard wraps one worker-shard boundary of an ATPG run:
	// shard startup (key "shardN") and each round of targeted-fault work
	// (key "shardN#round"). Every run has at least one shard — a
	// workers=1 run and (*Generator).Run have exactly one, "shard0" — so
	// the site fires for them too. An injected failure kills that shard:
	// its pending faults degrade to typed aborts while any surviving
	// shards finish the run; with one shard, every remaining fault
	// aborts.
	SiteATPGShard = "atpg.shard"
	// SiteATPGSeqFault wraps one core fault in atpg.RunSequentialCtx.
	SiteATPGSeqFault = "atpg.seq.fault"
	// SiteMNASolve wraps one context-bound MNA solve.
	SiteMNASolve = "mna.solve"
	// SiteWaveformStep wraps one transient step-response solve.
	SiteWaveformStep = "waveform.step"
	// SiteCoreElement wraps one analog element test in
	// core.(*Mixed).TestAnalogElementCtx.
	SiteCoreElement = "core.element"
	// SiteLiveSSE wraps one SSE frame write on the live ops server's
	// /events stream (internal/obs/live), so slow or failing streaming
	// clients can be exercised deterministically: an injected error
	// drops the client connection, an injected timeout models a client
	// that stopped reading.
	SiteLiveSSE = "live.sse.write"
	// SiteServiceStoreWrite wraps one durable write of the msatpgd job
	// journal (internal/service). An injected failure models a full or
	// failing disk: the daemon counts it, keeps the in-memory state
	// authoritative and retries on the next transition, so a flaky
	// store degrades durability — never the serving path.
	SiteServiceStoreWrite = "service.store.write"
	// SiteServiceJobStart wraps the launch of one accepted job in the
	// msatpgd scheduler, keyed by job id. An injected failure stands in
	// for a transient start-up casualty (worker death, OOM kill); the
	// job re-queues with exponential backoff until its retry budget is
	// spent.
	SiteServiceJobStart = "service.job.start"
)

// Sites returns every registered injection site name, in registry order.
func Sites() []string {
	return []string{
		SiteATPGFault,
		SiteATPGShard,
		SiteATPGSeqFault,
		SiteMNASolve,
		SiteWaveformStep,
		SiteCoreElement,
		SiteLiveSSE,
		SiteServiceStoreWrite,
		SiteServiceJobStart,
	}
}

// KnownSite reports whether name is a registered injection site. Code
// that accepts site names from outside the compiled binary (such as
// msatpg's -chaos-sites flag) validates them here, since the lint
// check can only see compile-time constants.
func KnownSite(name string) bool {
	for _, s := range Sites() {
		if s == name {
			return true
		}
	}
	return false
}

// Action is the failure a firing injection point produces.
type Action int

const (
	// None: the site proceeds normally.
	None Action = iota
	// Panic: the site panics (exercises guard panic isolation).
	Panic
	// Error: the site returns a generic error (exercises Aborted/error).
	Error
	// Budget: the site returns a *guard.BudgetError (exercises
	// Aborted/budget classification).
	Budget
	// Timeout: the site returns context.DeadlineExceeded (exercises the
	// TimedOut classification).
	Timeout
)

// String names the action the way test output spells it.
func (a Action) String() string {
	switch a {
	case None:
		return "none"
	case Panic:
		return "panic"
	case Error:
		return "error"
	case Budget:
		return "budget"
	case Timeout:
		return "timeout"
	}
	return fmt.Sprintf("chaos.Action(%d)", int(a))
}

// Injector decides deterministically which (site, key) pairs fail and
// how. The zero value injects nothing.
type Injector struct {
	seed  int64
	prob  float64 // probability a pair fires, in [0, 1]
	sites map[string]bool
	only  Action // when != None, every firing pair gets this action
}

// Option configures an Injector.
type Option func(*Injector)

// AtSites restricts injection to the named sites (default: all sites).
func AtSites(sites ...string) Option {
	return func(in *Injector) {
		in.sites = map[string]bool{}
		for _, s := range sites {
			in.sites[s] = true
		}
	}
}

// WithAction forces every firing pair to the same action instead of
// cycling deterministically through Panic/Error/Budget/Timeout.
func WithAction(a Action) Option {
	return func(in *Injector) { in.only = a }
}

// New returns an injector that fires on approximately prob of all
// (site, key) pairs, chosen by hashing (site, key, seed).
func New(seed int64, prob float64, opts ...Option) *Injector {
	if prob < 0 {
		prob = 0
	}
	if prob > 1 {
		prob = 1
	}
	in := &Injector{seed: seed, prob: prob}
	for _, o := range opts {
		o(in)
	}
	return in
}

// FromFlags builds the injector the -chaos-* command-line flags
// describe, or nil when prob is not positive (injection off). sites is a
// comma-separated list of registered sites (empty: every site) and
// action one of "panic", "error", "budget" or "timeout". An unknown
// action or site is an error naming the flag.
func FromFlags(prob float64, seed int64, sites, action string) (*Injector, error) {
	if prob <= 0 {
		return nil, nil
	}
	var a Action
	switch action {
	case "panic":
		a = Panic
	case "error":
		a = Error
	case "budget":
		a = Budget
	case "timeout":
		a = Timeout
	default:
		return nil, fmt.Errorf("unknown -chaos-action %q (want panic, error, budget or timeout)", action)
	}
	opts := []Option{WithAction(a)}
	if sites != "" {
		var list []string
		for _, s := range strings.Split(sites, ",") {
			if s = strings.TrimSpace(s); s == "" {
				continue
			}
			if !KnownSite(s) {
				return nil, fmt.Errorf("unknown -chaos-sites entry %q (registered sites: %s)",
					s, strings.Join(Sites(), ", "))
			}
			list = append(list, s)
		}
		//lint:allow chaossite flag values are validated against chaos.KnownSite above
		opts = append(opts, AtSites(list...))
	}
	return New(seed, prob, opts...), nil
}

// Decide returns the action for one (site, key) pair. Pure: the same
// injector always answers the same.
func (in *Injector) Decide(site, key string) Action {
	if in == nil || in.prob == 0 {
		return None
	}
	if in.sites != nil && !in.sites[site] {
		return None
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d", site, key, in.seed)
	v := h.Sum64()
	if float64(v%1_000_000)/1_000_000 >= in.prob {
		return None
	}
	if in.only != None {
		return in.only
	}
	// Cycle through the failure modes with independent hash bits.
	switch (v / 1_000_000) % 4 {
	case 0:
		return Panic
	case 1:
		return Error
	case 2:
		return Budget
	default:
		return Timeout
	}
}

// Fire executes the decided action for the pair: it panics for Panic and
// returns the corresponding error otherwise (nil for None).
func (in *Injector) Fire(site, key string) error {
	switch in.Decide(site, key) {
	case Panic:
		panic(fmt.Sprintf("chaos: injected panic at %s[%s]", site, key))
	case Error:
		return fmt.Errorf("chaos: injected error at %s[%s]", site, key)
	case Budget:
		return &guard.BudgetError{Resource: "chaos", Limit: 0}
	case Timeout:
		return fmt.Errorf("chaos: injected timeout at %s[%s]: %w", site, key, context.DeadlineExceeded)
	}
	return nil
}

// ctxKey is the context key type for the installed injector.
type ctxKey struct{}

// Into installs the injector in the context for Step to find.
func Into(ctx context.Context, in *Injector) context.Context {
	if in == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, in)
}

// From extracts the installed injector, or nil.
func From(ctx context.Context) *Injector {
	if ctx == nil {
		return nil
	}
	in, _ := ctx.Value(ctxKey{}).(*Injector)
	return in
}

// Step is the per-site hook instrumented code calls: it fires the
// context's injector for (site, key), if one is installed. Without an
// injector it returns nil immediately.
func Step(ctx context.Context, site, key string) error {
	in := From(ctx)
	if in == nil {
		return nil
	}
	return in.Fire(site, key)
}
