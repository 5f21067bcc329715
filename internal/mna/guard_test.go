package mna

import (
	"context"
	"errors"
	"testing"

	"repro/internal/guard"
	"repro/internal/guard/chaos"
)

func divider() *Circuit {
	c := New("div")
	c.AddV("Vin", "in", "0", 1, 1)
	c.AddR("R1", "in", "out", 1e3)
	c.AddR("R2", "out", "0", 1e3)
	return c
}

// solveRoutes are the two ways into solve: DC builds a Solution that owns
// its vectors, GainMag reads the output node straight from the circuit's
// workspace. Every guard must hold on both.
var solveRoutes = []struct {
	name  string
	solve func(c *Circuit) error
}{
	{"DC", func(c *Circuit) error { _, err := c.DC(); return err }},
	{"GainMag", func(c *Circuit) error { _, err := c.GainMag("out", 1e3); return err }},
}

func TestSolveBudget(t *testing.T) {
	for _, r := range solveRoutes {
		t.Run(r.name, func(t *testing.T) {
			c := divider()
			c.SetSolveBudget(2)
			for i := 0; i < 2; i++ {
				if err := r.solve(c); err != nil {
					t.Fatalf("solve %d under budget failed: %v", i, err)
				}
			}
			err := r.solve(c)
			if !errors.Is(err, guard.ErrBudgetExceeded) {
				t.Fatalf("over-budget solve = %v, want ErrBudgetExceeded", err)
			}
			var be *guard.BudgetError
			if !errors.As(err, &be) || be.Resource != "mna-solves" {
				t.Fatalf("over-budget solve = %v, want resource mna-solves", err)
			}
			c.SetSolveBudget(0)
			if err := r.solve(c); err != nil {
				t.Fatalf("budget removal did not reset: %v", err)
			}
		})
	}
}

func TestSolveHonorsContext(t *testing.T) {
	for _, r := range solveRoutes {
		t.Run(r.name, func(t *testing.T) {
			c := divider()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			c.BindContext(ctx)
			if err := r.solve(c); !errors.Is(err, context.Canceled) {
				t.Fatalf("solve under canceled context = %v, want context.Canceled", err)
			}
			c.BindContext(nil)
			if err := r.solve(c); err != nil {
				t.Fatalf("detached context still failing: %v", err)
			}
		})
	}
}

func TestSolveChaosSite(t *testing.T) {
	for _, r := range solveRoutes {
		t.Run(r.name, func(t *testing.T) {
			c := divider()
			ctx := chaos.Into(context.Background(),
				chaos.New(1, 1, chaos.AtSites(chaos.SiteMNASolve), chaos.WithAction(chaos.Error)))
			c.BindContext(ctx)
			if err := r.solve(c); err == nil {
				t.Fatal("chaos at mna.solve with prob 1 did not fire")
			}
		})
	}
}
