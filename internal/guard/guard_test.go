package guard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestDoOK(t *testing.T) {
	col := obs.NewCollector()
	out := Do(context.Background(), col, func(ctx context.Context) error { return nil })
	if !out.OK() || out.Class != OK || out.Attempts != 1 {
		t.Fatalf("Do = %+v, want OK", out)
	}
	if got := col.Counter("guard.items").Load(); got != 1 {
		t.Fatalf("guard.items = %d, want 1", got)
	}
}

func TestDoRecoversPanic(t *testing.T) {
	col := obs.NewCollector()
	out := Do(context.Background(), col, func(ctx context.Context) error {
		panic("boom")
	})
	if out.Class != Aborted || out.Reason != "panic" {
		t.Fatalf("Do = %+v, want Aborted/panic", out)
	}
	var pe *PanicError
	if !errors.As(out.Err, &pe) || pe.Value != "boom" {
		t.Fatalf("Err = %v, want PanicError(boom)", out.Err)
	}
	if len(out.Stack) == 0 {
		t.Fatal("panic outcome carries no stack")
	}
	// The stack is captured once: the outcome and its error share it.
	if !bytes.Equal(out.Stack, pe.Stack) {
		t.Fatalf("Outcome.Stack and PanicError.Stack differ:\n%s\n---\n%s", out.Stack, pe.Stack)
	}
	if got := col.Counter("guard.panics").Load(); got != 1 {
		t.Fatalf("guard.panics = %d, want 1", got)
	}
	if got := col.Counter("guard.aborted").Load(); got != 1 {
		t.Fatalf("guard.aborted = %d, want 1", got)
	}
}

func TestDoClassifiesBudget(t *testing.T) {
	out := Do(context.Background(), nil, func(ctx context.Context) error {
		return fmt.Errorf("solving: %w", &BudgetError{Resource: "bdd-nodes", Limit: 100})
	})
	if out.Class != Aborted || out.Reason != "budget:bdd-nodes" {
		t.Fatalf("Do = %+v, want Aborted/budget:bdd-nodes", out)
	}
	if !errors.Is(out.Err, ErrBudgetExceeded) {
		t.Fatal("budget outcome does not match ErrBudgetExceeded")
	}
}

func TestDoClassifiesDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	ran := false
	out := Do(ctx, nil, func(ctx context.Context) error { ran = true; return nil })
	if ran {
		t.Fatal("Do ran fn under a dead context")
	}
	if out.Class != TimedOut || out.Reason != "deadline" {
		t.Fatalf("Do = %+v, want TimedOut/deadline", out)
	}
}

func TestDoClassifiesCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := Do(ctx, nil, func(ctx context.Context) error { return nil })
	if out.Class != Canceled {
		t.Fatalf("Do = %+v, want Canceled", out)
	}
}

func TestClassifyDeadlineError(t *testing.T) {
	// An error *wrapping* DeadlineExceeded classifies as TimedOut even
	// when the context itself is alive (e.g. an injected timeout).
	out := Classify(context.Background(), fmt.Errorf("x: %w", context.DeadlineExceeded))
	if out.Class != TimedOut {
		t.Fatalf("Classify = %+v, want TimedOut", out)
	}
}

func TestRunRetriesAborts(t *testing.T) {
	col := obs.NewCollector()
	tries := 0
	out := Run(context.Background(), col,
		RetryPolicy{MaxRetries: 3},
		func(ctx context.Context, attempt int) error {
			tries++
			if attempt < 2 {
				panic("flaky")
			}
			return nil
		})
	if !out.OK() {
		t.Fatalf("Run = %+v, want OK after retries", out)
	}
	if tries != 3 || out.Attempts != 3 || out.Retries() != 2 {
		t.Fatalf("tries=%d attempts=%d retries=%d, want 3/3/2", tries, out.Attempts, out.Retries())
	}
	if got := col.Counter("guard.retries").Load(); got != 2 {
		t.Fatalf("guard.retries = %d, want 2", got)
	}
}

func TestRunDoesNotRetryTimeout(t *testing.T) {
	tries := 0
	out := Run(context.Background(), nil,
		RetryPolicy{MaxRetries: 5},
		func(ctx context.Context, attempt int) error {
			tries++
			return context.DeadlineExceeded
		})
	if out.Class != TimedOut || tries != 1 {
		t.Fatalf("Run = %+v after %d tries, want TimedOut after 1", out, tries)
	}
}

func TestRunBoundedRetries(t *testing.T) {
	tries := 0
	out := Run(context.Background(), nil,
		RetryPolicy{MaxRetries: 2},
		func(ctx context.Context, attempt int) error {
			tries++
			return &BudgetError{Resource: "x", Limit: 1}
		})
	if out.Class != Aborted || tries != 3 {
		t.Fatalf("Run = %+v after %d tries, want Aborted after 3", out, tries)
	}
}

func TestLimitsItemContext(t *testing.T) {
	l := Limits{PerItem: time.Hour}
	ctx, cancel := l.WithItemContext(context.Background())
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Fatal("PerItem limit did not install a deadline")
	}
	l = Limits{}
	ctx2, cancel2 := l.WithItemContext(context.Background())
	defer cancel2()
	if _, ok := ctx2.Deadline(); ok {
		t.Fatal("zero Limits installed a deadline")
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{OK: "ok", Aborted: "aborted", TimedOut: "timed-out", Canceled: "canceled"} {
		if c.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}
