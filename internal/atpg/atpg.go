// Package atpg implements the paper's backtrack-free digital test
// generator: OBDD-based stuck-at ATPG with an analog constraint function.
//
// For a fault l s-a-v the set of test vectors is computed algebraically as
//
//	S = Fc · Σ_o (F_o ⊕ F_o^faulty)
//
// where F_o is the good function of primary output o, F_o^faulty the
// function of the same output with the faulted line forced to v, and Fc
// the constraint function describing which input assignments the analog
// part of the mixed circuit can actually produce (Fc = 1 when the digital
// block is tested standalone). Any satisfying assignment of S activates
// the fault, propagates it to output o and respects the constraints —
// there is no backtracking, exactly as in the paper's BDD_FTEST.
package atpg

import (
	"fmt"

	"repro/internal/bdd"
	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/obs"
)

// Generator holds the OBDDs of one circuit and generates constrained test
// vectors. Create one with New; it is not safe for concurrent use.
type Generator struct {
	c          *logic.Circuit
	m          *bdd.Manager
	good       []bdd.Ref // per-signal good-circuit function over PI variables
	constraint bdd.Ref
	inputNames []string
	col        *obs.Collector
}

// Option configures a Generator.
type Option func(*config)

type config struct {
	nodeLimit    int
	varOrder     []string
	collector    *obs.Collector
	collectorSet bool
}

// WithNodeLimit caps the BDD manager size; faults whose cone exceeds the
// limit are reported as aborted rather than crashing the run.
func WithNodeLimit(n int) Option {
	return func(c *config) { c.nodeLimit = n }
}

// WithCollector directs this generator's instrumentation (BDD cache
// counters, per-fault latencies, run spans) at the given collector
// instead of obs.Default. Pass nil to disable it; the fault simulator's
// faults.sim.* counters stay on obs.Default either way.
func WithCollector(col *obs.Collector) Option {
	return func(c *config) { c.collector = col; c.collectorSet = true }
}

// New builds the good-circuit OBDDs for a frozen circuit. Primary inputs
// are declared as BDD variables in circuit input order; callers that need
// the special D variable (see package core) must declare it afterwards so
// it lands at the bottom of the order, as the paper requires.
func New(c *logic.Circuit, opts ...Option) (*Generator, error) {
	cfg := config{nodeLimit: bdd.DefaultNodeLimit}
	for _, o := range opts {
		o(&cfg)
	}
	if !cfg.collectorSet {
		cfg.collector = obs.Default
	}
	if !c.Frozen() {
		return nil, fmt.Errorf("atpg: circuit %q must be frozen", c.Name)
	}
	g := &Generator{
		c:          c,
		m:          bdd.NewWithLimit(cfg.nodeLimit),
		constraint: bdd.True,
		inputNames: c.InputNames(),
		col:        cfg.collector,
	}
	g.m.Instrument(g.col)
	defer g.col.StartSpan("atpg.build_obdds").End()
	if cfg.varOrder != nil {
		if err := validateOrder(c, cfg.varOrder); err != nil {
			return nil, err
		}
	}
	g.good = make([]bdd.Ref, c.NumSignals())
	err := bdd.Guard(func() error {
		if cfg.varOrder != nil {
			for _, name := range cfg.varOrder {
				id, _ := c.SigByName(name)
				g.good[id] = g.m.Var(name)
			}
		} else {
			for _, id := range c.Inputs() {
				g.good[id] = g.m.Var(c.Signal(id).Name)
			}
		}
		for _, id := range c.TopoOrder() {
			s := c.Signal(id)
			fanins := make([]bdd.Ref, len(s.Fanin))
			for i, f := range s.Fanin {
				fanins[i] = g.good[f]
			}
			g.good[id] = g.gateBDD(s.Type, fanins)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("atpg: building OBDDs for %q: %w", c.Name, err)
	}
	return g, nil
}

// Manager exposes the underlying BDD manager so callers can build
// constraint functions over the input variables.
func (g *Generator) Manager() *bdd.Manager { return g.m }

// Collector returns the obs collector this generator reports to
// (obs.Default unless overridden with WithCollector; possibly nil).
func (g *Generator) Collector() *obs.Collector { return g.col }

// Circuit returns the circuit under test.
func (g *Generator) Circuit() *logic.Circuit { return g.c }

// GoodFunction returns the good-circuit OBDD of a signal.
func (g *Generator) GoodFunction(id logic.SigID) bdd.Ref { return g.good[id] }

// SetConstraint installs the constraint function Fc (built over this
// generator's manager). bdd.True removes all constraints.
func (g *Generator) SetConstraint(fc bdd.Ref) { g.constraint = fc }

// Constraint returns the active constraint function.
func (g *Generator) Constraint() bdd.Ref { return g.constraint }

// gateBDD evaluates one gate over BDD operands.
func (g *Generator) gateBDD(t logic.GateType, in []bdd.Ref) bdd.Ref {
	m := g.m
	switch t {
	case logic.TypeConst0:
		return bdd.False
	case logic.TypeConst1:
		return bdd.True
	case logic.TypeNot:
		return m.Not(in[0])
	case logic.TypeBuf:
		return in[0]
	case logic.TypeAnd:
		return m.AndN(in...)
	case logic.TypeNand:
		return m.Not(m.AndN(in...))
	case logic.TypeOr:
		return m.OrN(in...)
	case logic.TypeNor:
		return m.Not(m.OrN(in...))
	case logic.TypeXor, logic.TypeXnor:
		acc := bdd.False
		for _, f := range in {
			acc = m.Xor(acc, f)
		}
		if t == logic.TypeXnor {
			acc = m.Not(acc)
		}
		return acc
	default:
		//lint:allow nopanic exhaustive gate-type switch; a new type is a code change, not input
		panic(fmt.Sprintf("atpg: cannot build BDD for %v", t))
	}
}

// FaultyOutputs recomputes the output functions under the fault, reusing
// good functions outside the fault cone. The returned map contains only
// the outputs whose function can differ. It is FaultyOutputsSet of the
// one-fault set.
func (g *Generator) FaultyOutputs(f faults.Fault) map[logic.SigID]bdd.Ref {
	return g.FaultyOutputsSet([]faults.Fault{f})
}

// TestFunction returns the OBDD of all constrained test vectors for the
// fault: S = Fc · Σ_o (F_o ⊕ F_o^faulty). S == bdd.False means the fault
// is untestable under the constraints.
func (g *Generator) TestFunction(f faults.Fault) bdd.Ref {
	return g.TestFunctionSet([]faults.Fault{f})
}

// GenerateVector produces one test vector for the fault, or ok=false when
// the fault is untestable under the active constraint. Don't-care inputs
// are filled with 0; because the satisfying path already entails Fc, any
// completion remains a legal analog-reachable assignment.
func (g *Generator) GenerateVector(f faults.Fault) (faults.Vector, bool) {
	return g.GenerateVectorSet([]faults.Fault{f})
}
