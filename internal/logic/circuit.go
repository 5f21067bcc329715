package logic

import (
	"fmt"
	"sort"
)

// SigID identifies a signal within its circuit.
type SigID int

// Signal is a primary input or a gate output.
type Signal struct {
	Name   string
	Type   GateType
	Fanin  []SigID
	Fanout []SigID // consumers (gate signals that list this signal in Fanin)
	Level  int     // topological level; inputs are level 0
}

// Circuit is a combinational gate-level netlist. Build one with New,
// AddInput and AddGate, mark outputs with MarkOutput, then call Freeze
// before analysis. A frozen circuit is immutable and safe for concurrent
// reads.
type Circuit struct {
	Name     string
	signals  []Signal
	byName   map[string]SigID
	inputs   []SigID
	outputs  []SigID
	observed []bool  // by signal: marked as a primary output
	order    []SigID // topological order over gate signals
	frozen   bool
}

// New returns an empty circuit.
func New(name string) *Circuit {
	return &Circuit{Name: name, byName: map[string]SigID{}}
}

// NumSignals returns the number of signals (inputs + gates).
func (c *Circuit) NumSignals() int { return len(c.signals) }

// NumGates returns the number of gate signals (excludes primary inputs).
func (c *Circuit) NumGates() int { return len(c.signals) - len(c.inputs) }

// Inputs returns the primary input IDs in declaration order.
func (c *Circuit) Inputs() []SigID { return c.inputs }

// Outputs returns the primary output IDs in declaration order.
func (c *Circuit) Outputs() []SigID { return c.outputs }

// Signal returns the signal with the given ID.
func (c *Circuit) Signal(id SigID) *Signal { return &c.signals[id] }

// SigByName resolves a signal name.
func (c *Circuit) SigByName(name string) (SigID, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// MustSig resolves a signal name, panicking if absent (for experiment
// code working with known circuits).
func (c *Circuit) MustSig(name string) SigID {
	id, ok := c.byName[name]
	if !ok {
		panic(fmt.Sprintf("logic: no signal %q in circuit %q", name, c.Name))
	}
	return id
}

// AddInput declares a primary input.
func (c *Circuit) AddInput(name string) SigID {
	return c.addSignal(name, TypeInput, nil)
}

// AddGate declares a gate with the given output name, type and fanins
// (which must already exist).
func (c *Circuit) AddGate(name string, t GateType, fanins ...string) SigID {
	ids := make([]SigID, len(fanins))
	for i, f := range fanins {
		id, ok := c.byName[f]
		if !ok {
			//lint:allow nopanic builder API misuse: unknown fanin name
			panic(fmt.Sprintf("logic: gate %q references unknown signal %q", name, f))
		}
		ids[i] = id
	}
	return c.addSignal(name, t, ids)
}

func (c *Circuit) addSignal(name string, t GateType, fanin []SigID) SigID {
	if c.frozen {
		//lint:allow nopanic builder API misuse: mutating a frozen circuit
		panic(fmt.Sprintf("logic: circuit %q is frozen", c.Name))
	}
	if _, dup := c.byName[name]; dup {
		//lint:allow nopanic builder API misuse: duplicate signal name
		panic(fmt.Sprintf("logic: duplicate signal %q in circuit %q", name, c.Name))
	}
	if !t.arityOK(len(fanin)) {
		//lint:allow nopanic builder API misuse: wrong gate arity
		panic(fmt.Sprintf("logic: gate %q: %v cannot take %d fanins", name, t, len(fanin)))
	}
	id := SigID(len(c.signals))
	c.signals = append(c.signals, Signal{Name: name, Type: t, Fanin: fanin})
	c.observed = append(c.observed, false)
	c.byName[name] = id
	if t == TypeInput {
		c.inputs = append(c.inputs, id)
	}
	for _, f := range fanin {
		c.signals[f].Fanout = append(c.signals[f].Fanout, id)
	}
	return id
}

// MarkOutput declares an existing signal to be a primary output.
func (c *Circuit) MarkOutput(name string) {
	if c.frozen {
		//lint:allow nopanic builder API misuse: mutating a frozen circuit
		panic(fmt.Sprintf("logic: circuit %q is frozen", c.Name))
	}
	id, ok := c.byName[name]
	if !ok {
		//lint:allow nopanic builder API misuse: unknown signal name
		panic(fmt.Sprintf("logic: cannot mark unknown signal %q as output", name))
	}
	if c.observed[id] {
		return
	}
	c.observed[id] = true
	c.outputs = append(c.outputs, id)
}

// Freeze validates the netlist, computes the topological order and levels,
// and makes the circuit immutable. It returns an error for cyclic or
// incomplete netlists.
func (c *Circuit) Freeze() error {
	if c.frozen {
		return nil
	}
	if len(c.outputs) == 0 {
		return fmt.Errorf("logic: circuit %q has no outputs", c.Name)
	}
	// Kahn's algorithm over gate signals.
	indeg := make([]int, len(c.signals))
	for i := range c.signals {
		indeg[i] = len(c.signals[i].Fanin)
	}
	queue := append([]SigID(nil), c.inputs...)
	for i := range c.signals {
		if c.signals[i].Type == TypeConst0 || c.signals[i].Type == TypeConst1 {
			queue = append(queue, SigID(i))
		}
	}
	var order []SigID
	seen := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		seen++
		s := &c.signals[id]
		lvl := 0
		for _, f := range s.Fanin {
			if l := c.signals[f].Level + 1; l > lvl {
				lvl = l
			}
		}
		s.Level = lvl
		if s.Type != TypeInput {
			order = append(order, id)
		}
		for _, g := range s.Fanout {
			indeg[g]--
			if indeg[g] == 0 {
				queue = append(queue, g)
			}
		}
	}
	if seen != len(c.signals) {
		return fmt.Errorf("logic: circuit %q contains a cycle or dangling fanin (%d of %d signals ordered)",
			c.Name, seen, len(c.signals))
	}
	c.order = order
	c.frozen = true
	return nil
}

// MustFreeze calls Freeze and panics on error; for known-good constructions
// in tests and the circuit catalog.
func (c *Circuit) MustFreeze() *Circuit {
	if err := c.Freeze(); err != nil {
		panic(err)
	}
	return c
}

// Frozen reports whether Freeze has completed.
func (c *Circuit) Frozen() bool { return c.frozen }

// TopoOrder returns the gate signals in topological order. The circuit
// must be frozen.
func (c *Circuit) TopoOrder() []SigID {
	c.mustBeFrozen()
	return c.order
}

func (c *Circuit) mustBeFrozen() {
	if !c.frozen {
		panic(fmt.Sprintf("logic: circuit %q must be frozen first", c.Name))
	}
}

// Depth returns the maximum signal level (critical path length in gates).
func (c *Circuit) Depth() int {
	c.mustBeFrozen()
	d := 0
	for i := range c.signals {
		if c.signals[i].Level > d {
			d = c.signals[i].Level
		}
	}
	return d
}

// Cone returns the set of signals in the transitive fanout of from,
// including from itself. Used to rebuild only the faulty part of the
// circuit during ATPG and fault simulation.
func (c *Circuit) Cone(from SigID) map[SigID]bool {
	c.mustBeFrozen()
	cone := map[SigID]bool{from: true}
	stack := []SigID{from}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, g := range c.signals[id].Fanout {
			if !cone[g] {
				cone[g] = true
				stack = append(stack, g)
			}
		}
	}
	return cone
}

// OutputsInCone returns the primary outputs reachable from the signal,
// in output order.
func (c *Circuit) OutputsInCone(from SigID) []SigID {
	cone := c.Cone(from)
	var outs []SigID
	for _, o := range c.outputs {
		if cone[o] {
			outs = append(outs, o)
		}
	}
	return outs
}

// SupportCone returns the set of signals in the transitive fanin of the
// given signals (inclusive).
func (c *Circuit) SupportCone(roots []SigID) map[SigID]bool {
	cone := map[SigID]bool{}
	stack := append([]SigID(nil), roots...)
	for _, r := range roots {
		cone[r] = true
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range c.signals[id].Fanin {
			if !cone[f] {
				cone[f] = true
				stack = append(stack, f)
			}
		}
	}
	return cone
}

// IsOutput reports whether the signal is marked as a primary output.
func (c *Circuit) IsOutput(id SigID) bool { return c.observed[id] }

// HasBranches reports whether the signal's stem splits into fanout
// branches, each a separate stuck-at line with one consumer gate: the
// signal feeds more than one gate, or it is a primary output that also
// feeds a gate — the observed output and the gate input are then two
// destinations of one stem, and a fault on the gate's branch leaves the
// output healthy.
func (c *Circuit) HasBranches(id SigID) bool {
	n := len(c.signals[id].Fanout)
	return n > 1 || n == 1 && c.observed[id]
}

// InputNames returns the primary input names in declaration order.
func (c *Circuit) InputNames() []string {
	names := make([]string, len(c.inputs))
	for i, id := range c.inputs {
		names[i] = c.signals[id].Name
	}
	return names
}

// OutputNames returns the primary output names in declaration order.
func (c *Circuit) OutputNames() []string {
	names := make([]string, len(c.outputs))
	for i, id := range c.outputs {
		names[i] = c.signals[id].Name
	}
	return names
}

// Stats summarises the circuit for the experiment tables.
type Stats struct {
	Inputs  int
	Outputs int
	Gates   int
	Depth   int
	Lines   int // stems + fanout branches (see HasBranches)
}

// Stats computes summary statistics. Lines counts each signal's stem
// plus one line per fanout branch of every stem that has branches (see
// HasBranches), matching the classic stuck-at line count.
func (c *Circuit) Stats() Stats {
	c.mustBeFrozen()
	lines := 0
	for i := range c.signals {
		lines++
		if c.HasBranches(SigID(i)) {
			lines += len(c.signals[i].Fanout)
		}
	}
	return Stats{
		Inputs:  len(c.inputs),
		Outputs: len(c.outputs),
		Gates:   c.NumGates(),
		Depth:   c.Depth(),
		Lines:   lines,
	}
}

// SignalNames returns all signal names, sorted, primarily for tests.
func (c *Circuit) SignalNames() []string {
	names := make([]string, 0, len(c.signals))
	for i := range c.signals {
		names = append(names, c.signals[i].Name)
	}
	sort.Strings(names)
	return names
}
