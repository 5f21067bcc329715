// Package guard is the pipeline's hardened execution layer: every
// per-work-item unit of the ATPG flow (a targeted stuck-at fault, an
// analog element test, a comparator probe) runs inside a guard so that
// one pathological item degrades to a classified outcome instead of
// hanging, exhausting memory or killing the process.
//
// The harness provides, in one place:
//
//   - context.Context threading with per-item and per-run deadlines
//     (Limits, WithItemContext);
//   - typed resource-budget errors (BudgetError, ErrBudgetExceeded)
//     raised by the BDD node-budget and MNA solve-cap checks;
//   - panic isolation (Do recovers panics into an Aborted outcome with
//     the stack captured);
//   - bounded, immediate retry of aborted items (Run);
//   - checkpoint/resume of completed per-item results (Checkpoint), so
//     a killed run restarts without recomputation.
//
// Outcomes are classified as OK, Aborted (panic, budget, solver error),
// TimedOut (deadline expired) or Canceled, and every degradation path is
// counted on the obs collector, so run reports can distinguish
// "untestable" from "gave up".
//
// The deterministic fault-injection harness in the chaos subpackage
// exercises every one of these paths at seeded points.
package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/obs"
)

// ErrBudgetExceeded is the sentinel every resource-budget error matches
// via errors.Is: BDD node budgets, MNA solve caps and chaos-injected
// budget exhaustion all unwrap to it, so callers classify "ran out of
// budget" without knowing which resource ran out.
var ErrBudgetExceeded = errors.New("guard: resource budget exceeded")

// BudgetError reports exhaustion of one named resource budget. It is
// raised as a panic inside tight library loops (the BDD mk path) and as
// a returned error elsewhere; both roads end in an Aborted outcome with
// reason "budget:<resource>".
type BudgetError struct {
	Resource string // e.g. "bdd-nodes", "mna-solves"
	Limit    int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("guard: %s budget %d exceeded", e.Resource, e.Limit)
}

// Is makes errors.Is(err, ErrBudgetExceeded) true for every BudgetError.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// PanicError wraps a recovered panic value with the goroutine stack at
// the recovery point. It is the Err of an Aborted{Reason: "panic"}
// outcome.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("guard: recovered panic: %v", e.Value) }

// Class is the terminal classification of one guarded work item.
type Class int

const (
	// OK: the item ran to completion (its own result may still be
	// "untestable" — that is a domain outcome, not a guard one).
	OK Class = iota
	// Aborted: the item was given up on — a recovered panic, a resource
	// budget trip or a solver error. Reason says which.
	Aborted
	// TimedOut: the item's (or the run's) deadline expired.
	TimedOut
	// Canceled: the surrounding context was canceled outright.
	Canceled
)

// String renders the class the way reports spell outcomes.
func (c Class) String() string {
	switch c {
	case OK:
		return "ok"
	case Aborted:
		return "aborted"
	case TimedOut:
		return "timed-out"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("guard.Class(%d)", int(c))
}

// Outcome is the classified result of one guarded execution.
type Outcome struct {
	Class  Class
	Reason string // "panic", "budget:<resource>", "deadline", "error", "" for OK
	Err    error  // the underlying error (a *PanicError for panics)
	Stack  []byte // captured goroutine stack for panics
	// Attempts is how many times the item ran (1 = no retry). Retries
	// counts the extra attempts, i.e. Attempts-1, and is surfaced so
	// callers can report how much work degradation recovery cost.
	Attempts int
}

// OK reports whether the item completed.
func (o Outcome) OK() bool { return o.Class == OK }

// Retries returns how many retry attempts the outcome consumed.
func (o Outcome) Retries() int {
	if o.Attempts > 1 {
		return o.Attempts - 1
	}
	return 0
}

// Limits bounds one run of the pipeline. The zero value imposes nothing.
type Limits struct {
	// PerItem is the deadline for one work item (one fault, one
	// element); 0 means no per-item deadline.
	PerItem time.Duration
	// Run is the deadline for the whole run; 0 means none. Callers
	// apply it once with WithRunContext before iterating.
	Run time.Duration
	// BDDNodes caps how many BDD nodes one work item may allocate
	// (bdd.Manager.SetNodeBudget); 0 means uncapped.
	BDDNodes int
	// MaxRetries bounds how many extra attempts an aborted item gets;
	// each retry runs at once.
	MaxRetries int
}

// WithItemContext derives the per-item context: ctx plus the per-item
// deadline, when one is configured. The returned cancel must be called.
func (l Limits) WithItemContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if l.PerItem > 0 {
		return context.WithTimeout(ctx, l.PerItem)
	}
	return context.WithCancel(ctx)
}

// WithRunContext derives the whole-run context from the run deadline.
func (l Limits) WithRunContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if l.Run > 0 {
		return context.WithTimeout(ctx, l.Run)
	}
	return context.WithCancel(ctx)
}

// Classify maps an error (in the light of the context it ran under) to
// an Outcome. A nil error is OK; context deadline errors are TimedOut;
// cancellation is Canceled; budget errors are Aborted with a
// "budget:<resource>" reason; anything else is Aborted with reason
// "error".
func Classify(ctx context.Context, err error) Outcome {
	switch {
	case err == nil:
		return Outcome{Class: OK, Attempts: 1}
	case errors.Is(err, context.DeadlineExceeded):
		return Outcome{Class: TimedOut, Reason: "deadline", Err: err, Attempts: 1}
	case errors.Is(err, context.Canceled):
		// A per-item context canceled because the *run* deadline fired
		// still reads as a timeout to the caller.
		if ctx != nil && errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
			return Outcome{Class: TimedOut, Reason: "deadline", Err: err, Attempts: 1}
		}
		return Outcome{Class: Canceled, Reason: "canceled", Err: err, Attempts: 1}
	}
	var be *BudgetError
	if errors.As(err, &be) {
		return Outcome{Class: Aborted, Reason: "budget:" + be.Resource, Err: err, Attempts: 1}
	}
	if errors.Is(err, ErrBudgetExceeded) {
		// Foreign budget types (e.g. the BDD manager's own LimitError)
		// opt into the family via an Is method without naming a resource.
		return Outcome{Class: Aborted, Reason: "budget", Err: err, Attempts: 1}
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return Outcome{Class: Aborted, Reason: "panic", Err: err, Stack: pe.Stack, Attempts: 1}
	}
	return Outcome{Class: Aborted, Reason: "error", Err: err, Attempts: 1}
}

// Do runs fn once under the guard: a panic is recovered into an Aborted
// outcome with the stack captured, errors are classified per Classify,
// and a context that is already dead short-circuits without running fn.
// Degradations are counted on col (nil-safe): guard.items,
// guard.aborted, guard.timedout, guard.canceled, guard.panics.
func Do(ctx context.Context, col *obs.Collector, fn func(context.Context) error) (out Outcome) {
	col.Counter("guard.items").Inc()
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			out = Outcome{
				Class:    Aborted,
				Reason:   "panic",
				Err:      &PanicError{Value: r, Stack: stack},
				Stack:    stack,
				Attempts: 1,
			}
			col.Counter("guard.panics").Inc()
		}
		count(col, out)
	}()
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Classify(ctx, err)
		}
	} else {
		ctx = context.Background()
	}
	return Classify(ctx, fn(ctx))
}

// count tallies one terminal outcome (panics are counted separately at
// the recovery site).
func count(col *obs.Collector, out Outcome) {
	switch out.Class {
	case Aborted:
		col.Counter("guard.aborted").Inc()
	case TimedOut:
		col.Counter("guard.timedout").Inc()
	case Canceled:
		col.Counter("guard.canceled").Inc()
	}
}

// RetryPolicy bounds the retries of one item. Only Aborted outcomes
// (panics and budget trips — the degradations a bigger budget or plain
// luck can fix) are retried; timeouts and cancellations never are — the
// clock that killed them is still running.
type RetryPolicy struct {
	MaxRetries int
}

// Run executes fn under Do with bounded retry: attempt 0 is the first
// try; each aborted attempt runs again at once with the next attempt
// number, so fn can escalate its strategy (bigger node budget, sifted
// variable order, pivoting fallback), unless ctx is already done. The
// returned outcome is the last attempt's, with Attempts set to the
// total number of tries. Retries are counted on col as guard.retries.
func Run(ctx context.Context, col *obs.Collector, p RetryPolicy, fn func(ctx context.Context, attempt int) error) Outcome {
	var out Outcome
	for attempt := 0; ; attempt++ {
		a := attempt
		out = Do(ctx, col, func(ctx context.Context) error { return fn(ctx, a) })
		out.Attempts = attempt + 1
		if out.OK() || attempt >= p.MaxRetries || out.Class != Aborted {
			return out
		}
		if ctx != nil && ctx.Err() != nil {
			return out
		}
		col.Counter("guard.retries").Inc()
	}
}
