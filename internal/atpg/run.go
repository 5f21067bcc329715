package atpg

import (
	"context"
	"runtime/pprof"
	"time"

	"repro/internal/bdd"
	"repro/internal/faults"
	"repro/internal/guard"
	"repro/internal/guard/chaos"
	"repro/internal/logic"
	"repro/internal/obs"
)

// Result summarises one ATPG run, mirroring the columns of Table 4 of the
// paper: number of untestable faults, number of vectors and CPU time.
type Result struct {
	Vectors    []faults.Vector
	Untestable []faults.Fault
	Aborted    []faults.Fault // budget/node-limit hit or panic while building the cone
	TimedOut   []faults.Fault // per-fault or run deadline expired
	Detected   int
	Total      int
	CPU        time.Duration
	PeakNodes  int
	RandomHits int // faults dropped by the optional random phase
	Retries    int // extra attempts spent re-running aborted faults
	Resumed    int // faults restored from a checkpoint, not recomputed
}

// Coverage returns detected / (total − untestable), the usual fault-
// coverage figure excluding provably untestable faults. An empty fault
// list yields 0 — a vacuous run must not read as full coverage — while a
// nonempty list with every fault provably untestable yields 1 (nothing
// detectable was missed).
func (r *Result) Coverage() float64 {
	if r.Total == 0 {
		return 0
	}
	den := r.Total - len(r.Untestable)
	if den <= 0 {
		return 1
	}
	return float64(r.Detected) / float64(den)
}

// RunOption configures an ATPG run.
type RunOption func(*runConfig)

type runConfig struct {
	randomVectors int
	randomSeed    int64
	ctx           context.Context
	limits        guard.Limits
	checkpoint    *guard.Checkpoint

	// Sharding knobs, honoured by RunParallel only (see shard.go).
	workers    int
	shardSetup func(*Generator) error
	shardOpts  []Option
}

// WithRandomPhase prepends n random vectors (legal only when the circuit
// has no constraints — the paper notes a random pattern can only be
// simulated if it satisfies Fc, so with constraints the run stays fully
// deterministic; random vectors violating Fc are discarded here). The
// vectors are drawn from a run-local *rand.Rand seeded with seed, never
// from the package-global math/rand state, so two runs with the same
// seed produce identical vector sets no matter what other code does with
// the global generator.
func WithRandomPhase(n int, seed int64) RunOption {
	return func(c *runConfig) { c.randomVectors = n; c.randomSeed = seed }
}

// WithContext makes the run cancellable: once ctx is done, in-flight BDD
// construction aborts at the next allocation poll and every remaining
// fault is classified without being attempted. The context is also the
// channel through which a chaos injector reaches the "atpg.fault" site.
func WithContext(ctx context.Context) RunOption {
	return func(c *runConfig) { c.ctx = ctx }
}

// WithLimits applies resource budgets to the run: a per-fault and whole-
// run deadline, a per-fault BDD node allowance, and a retry policy for
// aborted faults. Retried attempts double the node allowance each time,
// so a fault that tripped the budget gets a realistic second chance.
func WithLimits(l guard.Limits) RunOption {
	return func(c *runConfig) { c.limits = l }
}

// WithCheckpoint attaches a checkpoint: completed faults (tested,
// dropped, random, untestable) are recorded as the run progresses, and
// faults already recorded are restored without recomputation. Aborted
// and timed-out faults are deliberately not recorded — a resumed run
// re-attempts them.
func WithCheckpoint(cp *guard.Checkpoint) RunOption {
	return func(c *runConfig) { c.checkpoint = cp }
}

// Run generates tests for every fault in fs with fault dropping: each new
// vector is fault-simulated against the remaining faults, and faults it
// detects are never targeted. The vector set therefore detects every
// testable fault in fs. Run is the one-shard case of the coordinator
// behind RunParallel, with g itself as the shard: per-fault events and
// drops land on g's collector as each round of up to shardRoundFaults
// targeted faults commits. The sharding options (WithWorkers,
// WithShardSetup, WithShardOptions) are ignored.
func (g *Generator) Run(fs []faults.Fault, opts ...RunOption) *Result {
	return runShards(g.c, fs, newRunConfig(opts), g.col, 1, g)
}

// newRunConfig applies opts over the defaults (a background context).
func newRunConfig(opts []RunOption) runConfig {
	cfg := runConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.ctx == nil {
		cfg.ctx = context.Background()
	}
	return cfg
}

// faultAttempt is the outcome of one guarded targeted-fault solve: the
// guard classification, the witness vector (when ok), the size of the
// constrained product S and the attempt's wall-clock window.
type faultAttempt struct {
	out     guard.Outcome
	v       faults.Vector
	ok      bool
	nodes   int
	start   time.Time
	latency time.Duration
}

// solveKind is how a guarded solve is instrumented: its span, its pprof
// phase label and its chaos injection site.
type solveKind struct {
	span, phase string
	inject      func(ctx context.Context, key string) error
}

var (
	// combinationalSolve targets one fault of the circuit under test.
	combinationalSolve = solveKind{"atpg.fault", "deterministic", func(ctx context.Context, key string) error {
		return chaos.Step(ctx, chaos.SiteATPGFault, key)
	}}
	// sequentialSolve targets one core fault of a time-frame expansion,
	// stuck in every frame at once.
	sequentialSolve = solveKind{"atpg.seq.fault", "sequential", func(ctx context.Context, key string) error {
		return chaos.Step(ctx, chaos.SiteATPGSeqFault, key)
	}}
)

// solveFault runs one targeted fault inside the guard harness: panic
// isolation, per-fault deadline, BDD node budget (doubled on each retry
// so a budget-tripped fault gets a realistic second chance), and the
// kind's chaos site for fault-injection tests. sites holds the fault's
// stuck lines — one for a combinational fault, one per time frame for a
// sequential one — and name labels the whole set. The fault's
// span chains under whatever span ctx carries, so every run shape
// produces the same causal tree. The name also labels every CPU sample
// under the solve, so `go tool pprof -tags` attributes profile time to
// individual faults.
func (g *Generator) solveFault(ctx context.Context, limits guard.Limits, kind solveKind, name string, sites []faults.Fault) faultAttempt {
	att := faultAttempt{start: time.Now()}
	policy := guard.RetryPolicy{MaxRetries: limits.MaxRetries}
	faultSpan, faultCtx := g.col.StartSpanCtx(ctx, kind.span)
	itemCtx, cancelItem := limits.WithItemContext(faultCtx)
	pprof.Do(itemCtx, pprof.Labels("phase", kind.phase, "fault", name), func(itemCtx context.Context) {
		att.out = guard.Run(itemCtx, g.col, policy, func(ctx context.Context, attempt int) error {
			if err := kind.inject(ctx, name); err != nil {
				return err
			}
			g.m.BindContext(ctx)
			if limits.BDDNodes > 0 {
				g.m.SetNodeBudget(limits.BDDNodes << attempt)
			}
			return bdd.Guard(func() error {
				s := g.TestFunctionSet(sites)
				if g.col != nil {
					att.nodes = g.m.NodeCount(s)
				}
				var assign map[string]bool
				if assign, att.ok = g.m.SatOneConstrained(s, g.inputNames); att.ok {
					att.v = faults.VectorFromAssignment(g.c, assign)
				}
				return nil
			})
		})
	})
	cancelItem()
	g.m.BindContext(nil)
	if limits.BDDNodes > 0 {
		g.m.SetNodeBudget(0)
	}
	faultSpan.End()
	att.latency = time.Since(att.start)
	return att
}

// restoreFromCheckpoint replays cp's completed records over fs before any
// work happens, filling state (1 = detected, 2 = untestable) and res.
// Tested faults bring their witness vector back into the vector set; a
// record whose vector fails to parse or whose width does not match the
// circuit's input count — a stale or cross-circuit checkpoint — is
// recomputed instead and counted under atpg.checkpoint.errors.
// Aborted/timed-out faults were never recorded, so they are re-attempted.
func restoreFromCheckpoint(cp *guard.Checkpoint, c *logic.Circuit, fs []faults.Fault, state []byte, res *Result, col *obs.Collector) {
	if cp == nil || cp.Len() == 0 {
		return
	}
	nIn := len(c.Inputs())
	for i := range fs {
		name := fs[i].Name(c)
		rec, ok := cp.Lookup(name)
		if !ok {
			continue
		}
		switch rec.Outcome {
		case "tested":
			v, okv := parseVector(rec.Vector)
			if !okv || len(v) != nIn {
				// Corrupt or wrong-width record: resuming it would inject
				// a vector the simulator cannot apply. Recompute.
				col.Counter("atpg.checkpoint.errors").Inc()
				continue
			}
			state[i] = 1
			res.Detected++
			res.Vectors = append(res.Vectors, v)
		case "dropped":
			state[i] = 1
			res.Detected++
		case "random":
			state[i] = 1
			res.Detected++
			res.RandomHits++
		default: // untestable reasons: no-difference, constrained-out, unknown
			state[i] = 2
			res.Untestable = append(res.Untestable, fs[i])
		}
		res.Resumed++
		col.Counter("atpg.faults.resumed").Inc()
		col.Event("fault", name,
			obs.Str("outcome", "resumed"), obs.Str("was", rec.Outcome))
	}
}

// parseVector decodes the bit-string form produced by faults.Vector's
// String method, as stored in checkpoint records.
func parseVector(s string) (faults.Vector, bool) {
	if s == "" {
		return nil, false
	}
	v := make(faults.Vector, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
		case '1':
			v[i] = true
		default:
			return nil, false
		}
	}
	return v, true
}

// untestableReason classifies why a fault's test function came out
// empty: "constrained-out" when the fault is testable with Fc lifted
// (the conversion block's constraints killed every activating
// assignment — the paper's Example 2 cases) versus "no-difference" when
// no primary output ever differs (redundant logic). Only called for the
// handful of untestable faults per run, so the extra unconstrained
// product is cheap; a node-limit abort during the probe reports
// "unknown" rather than crashing the classification.
func (g *Generator) untestableReason(f faults.Fault) string {
	if g.constraint == bdd.True {
		return "no-difference"
	}
	saved := g.constraint
	g.constraint = bdd.True
	unconstrained := bdd.False
	err := bdd.Guard(func() error {
		unconstrained = g.TestFunction(f)
		return nil
	})
	g.constraint = saved
	if err != nil {
		return "unknown"
	}
	if unconstrained != bdd.False {
		return "constrained-out"
	}
	return "no-difference"
}

// AllowedAssignments builds a constraint function as a sum of product
// terms — the paper's formulation of Fc: "each product term represents an
// allowed assignment to the lines depending on the analog part". names
// selects the constrained variables (in row bit order) and each row lists
// one allowed combination.
func AllowedAssignments(m *bdd.Manager, names []string, rows [][]bool) bdd.Ref {
	fc := bdd.False
	for _, row := range rows {
		term := bdd.True
		for i, name := range names {
			v := m.Var(name)
			if row[i] {
				term = m.And(term, v)
			} else {
				term = m.And(term, m.Not(v))
			}
		}
		fc = m.Or(fc, term)
	}
	return fc
}
