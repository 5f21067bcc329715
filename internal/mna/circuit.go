package mna

import (
	"context"
	"fmt"
	"sort"
)

// Circuit is a linear analog circuit under construction or analysis.
// The zero value is not usable; create circuits with New.
//
// Construction errors (duplicate names, non-positive component values)
// do not panic: the offending element is skipped and the first error is
// recorded. Check Err after building, or let any analysis surface it —
// every solve fails fast on a circuit with a recorded build error. This
// keeps the fluent AddR/AddC/... style usable on untrusted input
// (netlists, generated profiles) without a recover at every call site.
//
// A Circuit is single-goroutine: every analysis assembles and solves in
// one workspace the circuit owns. Concurrent work needs one circuit per
// goroutine, as core.MixedFactory already builds per worker.
type Circuit struct {
	name     string
	nodes    map[string]int // node name → index; ground is 0
	nodeName []string       // index → canonical name
	elems    []*element
	byName   map[string]*element

	buildErr error           // first construction error, sticky
	ctx      context.Context // optional cancellation for analyses
	budget   int64           // max solves when > 0
	solves   int64           // solves performed under the budget
	met      *mnaMetrics     // per-circuit handles; nil = process-wide
	ws       workspace       // solve storage, sized on the first solve
}

// New returns an empty circuit with the given descriptive name.
func New(name string) *Circuit {
	c := &Circuit{
		name:     name,
		nodes:    map[string]int{"0": 0},
		nodeName: []string{"0"},
		byName:   map[string]*element{},
	}
	return c
}

// Name returns the circuit's descriptive name.
func (c *Circuit) Name() string { return c.name }

// Err returns the first construction error recorded while building the
// circuit, or nil. Elements that failed validation were not added.
func (c *Circuit) Err() error { return c.buildErr }

// fail records a construction error (first one wins) and reports that
// the current element must be skipped.
func (c *Circuit) fail(format string, args ...any) {
	if c.buildErr == nil {
		c.buildErr = fmt.Errorf(format, args...)
	}
}

// BindContext attaches a context checked at each solve; analyses fail
// with the context's error once it is done. A nil ctx detaches.
func (c *Circuit) BindContext(ctx context.Context) { c.ctx = ctx }

// SetSolveBudget caps the number of linear solves this circuit may run.
// The count starts from the call; n <= 0 removes the cap. When the cap
// is exceeded, analyses fail with a guard.BudgetError for "mna-solves".
func (c *Circuit) SetSolveBudget(n int64) {
	c.budget = n
	c.solves = 0
}

// NumNodes returns the number of non-ground nodes.
func (c *Circuit) NumNodes() int { return len(c.nodeName) - 1 }

// NumElements returns the number of elements.
func (c *Circuit) NumElements() int { return len(c.elems) }

// node resolves (creating if necessary) a node name to its index.
func (c *Circuit) node(name string) int {
	if isGround(name) {
		return 0
	}
	if idx, ok := c.nodes[name]; ok {
		return idx
	}
	idx := len(c.nodeName)
	c.nodes[name] = idx
	c.nodeName = append(c.nodeName, name)
	return idx
}

func (c *Circuit) add(e *element) {
	if _, dup := c.byName[e.name]; dup {
		c.fail("mna: duplicate element name %q in circuit %q", e.name, c.name)
		return
	}
	c.byName[e.name] = e
	c.elems = append(c.elems, e)
}

// AddR adds a resistor of r ohms between nodes a and b.
func (c *Circuit) AddR(name, a, b string, r float64) {
	if r <= 0 {
		c.fail("mna: resistor %q must have positive resistance, got %g", name, r)
		return
	}
	c.add(&element{kind: KindResistor, name: name, value: r, a: c.node(a), b: c.node(b), branch: -1})
}

// AddC adds a capacitor of f farads between nodes a and b.
func (c *Circuit) AddC(name, a, b string, f float64) {
	if f <= 0 {
		c.fail("mna: capacitor %q must have positive capacitance, got %g", name, f)
		return
	}
	c.add(&element{kind: KindCapacitor, name: name, value: f, a: c.node(a), b: c.node(b), branch: -1})
}

// AddL adds an inductor of h henries between nodes a and b.
func (c *Circuit) AddL(name, a, b string, h float64) {
	if h <= 0 {
		c.fail("mna: inductor %q must have positive inductance, got %g", name, h)
		return
	}
	c.add(&element{kind: KindInductor, name: name, value: h, a: c.node(a), b: c.node(b), branch: -1})
}

// AddV adds an independent voltage source. In AC analysis its phasor
// amplitude is ac volts (zero phase); in DC analysis its value is dc volts.
func (c *Circuit) AddV(name, plus, minus string, dc, ac float64) {
	c.add(&element{kind: KindVSource, name: name, value: ac, dc: dc, a: c.node(plus), b: c.node(minus), branch: -1})
}

// AddI adds an independent current source pushing current from node `from`
// through the source into node `to` (conventional SPICE direction).
func (c *Circuit) AddI(name, from, to string, dc, ac float64) {
	c.add(&element{kind: KindISource, name: name, value: ac, dc: dc, a: c.node(from), b: c.node(to), branch: -1})
}

// AddVCVS adds a voltage-controlled voltage source:
// V(outP) − V(outN) = gain · (V(ctrlP) − V(ctrlN)).
func (c *Circuit) AddVCVS(name, outP, outN, ctrlP, ctrlN string, gain float64) {
	c.add(&element{
		kind: KindVCVS, name: name, value: gain,
		a: c.node(outP), b: c.node(outN),
		cp: c.node(ctrlP), cn: c.node(ctrlN), branch: -1,
	})
}

// AddOpAmp adds an ideal operational amplifier (nullor): infinite gain,
// infinite input impedance, zero output impedance. The solver enforces
// V(inP) = V(inN) and lets the output node source whatever current the
// feedback demands. The output is single-ended, referenced to ground.
func (c *Circuit) AddOpAmp(name, inP, inN, out string) {
	c.add(&element{
		kind: KindOpAmp, name: name,
		a: c.node(out), b: 0,
		cp: c.node(inP), cn: c.node(inN), branch: -1,
	})
}

// Value returns the primary value of the named element (R, C, L, source AC
// amplitude, or VCVS gain). It panics if the element does not exist — a
// programming error in experiment code, not a runtime condition.
func (c *Circuit) Value(name string) float64 {
	e, ok := c.byName[name]
	if !ok {
		//lint:allow nopanic documented accessor contract: unknown element is a programming error
		panic(fmt.Sprintf("mna: no element %q in circuit %q", name, c.name))
	}
	return e.value
}

// SetValue replaces the primary value of the named element.
func (c *Circuit) SetValue(name string, v float64) {
	e, ok := c.byName[name]
	if !ok {
		//lint:allow nopanic documented accessor contract: unknown element is a programming error
		panic(fmt.Sprintf("mna: no element %q in circuit %q", name, c.name))
	}
	e.value = v
}

// SetSourceDC replaces the DC level of an independent voltage or current
// source (SetValue adjusts the AC amplitude instead). Used by the DAC
// model, whose bit drivers are DC sources switched per input code.
func (c *Circuit) SetSourceDC(name string, v float64) {
	e, ok := c.byName[name]
	if !ok {
		//lint:allow nopanic documented accessor contract: unknown element is a programming error
		panic(fmt.Sprintf("mna: no element %q in circuit %q", name, c.name))
	}
	if e.kind != KindVSource && e.kind != KindISource {
		//lint:allow nopanic API misuse: only independent sources carry a DC level
		panic(fmt.Sprintf("mna: element %q is not an independent source", name))
	}
	e.dc = v
}

// SourceDC returns the DC level of an independent source.
func (c *Circuit) SourceDC(name string) float64 {
	e, ok := c.byName[name]
	if !ok {
		//lint:allow nopanic documented accessor contract: unknown element is a programming error
		panic(fmt.Sprintf("mna: no element %q in circuit %q", name, c.name))
	}
	return e.dc
}

// Perturb multiplies the named element's value by (1 + delta) and returns
// a function that restores the original value. Typical use:
//
//	restore := c.Perturb("R1", 0.05)
//	defer restore()
func (c *Circuit) Perturb(name string, delta float64) (restore func()) {
	e, ok := c.byName[name]
	if !ok {
		//lint:allow nopanic documented accessor contract: unknown element is a programming error
		panic(fmt.Sprintf("mna: no element %q in circuit %q", name, c.name))
	}
	old := e.value
	e.value = old * (1 + delta)
	return func() { e.value = old }
}

// HasElement reports whether an element with the given name exists.
func (c *Circuit) HasElement(name string) bool {
	_, ok := c.byName[name]
	return ok
}

// ElementNames returns the names of all elements of the given kinds,
// sorted; with no kinds it returns every element name. This is how the
// analog test engine enumerates the fault universe (typically resistors
// and capacitors).
func (c *Circuit) ElementNames(kinds ...ElementKind) []string {
	want := map[ElementKind]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	var names []string
	for _, e := range c.elems {
		if len(kinds) == 0 || want[e.kind] {
			names = append(names, e.name)
		}
	}
	sort.Strings(names)
	return names
}

// Kind returns the kind of the named element.
func (c *Circuit) Kind(name string) ElementKind {
	e, ok := c.byName[name]
	if !ok {
		//lint:allow nopanic documented accessor contract: unknown element is a programming error
		panic(fmt.Sprintf("mna: no element %q in circuit %q", name, c.name))
	}
	return e.kind
}

// HasNode reports whether the circuit references the named node.
func (c *Circuit) HasNode(name string) bool {
	if isGround(name) {
		return true
	}
	_, ok := c.nodes[name]
	return ok
}
