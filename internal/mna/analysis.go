package mna

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/guard"
	"repro/internal/guard/chaos"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// Solution holds the result of one DC or AC analysis: the phasor voltage
// of every node at the analysis frequency, plus the branch currents of
// the group-2 elements (voltage sources, inductors, VCVS, op-amps).
type Solution struct {
	circuit *Circuit
	freq    float64
	v       []complex128 // node voltages indexed like circuit.nodeName; v[0] = 0
	branch  map[string]complex128
}

// Freq returns the analysis frequency in Hz (0 for DC).
func (s *Solution) Freq() float64 { return s.freq }

// V returns the phasor voltage at the named node.
func (s *Solution) V(node string) complex128 { return s.v[s.circuit.nodeIndex(node)] }

// nodeIndex resolves a node name to its index, 0 for ground. It panics
// for a node the circuit does not have.
func (c *Circuit) nodeIndex(node string) int {
	if isGround(node) {
		return 0
	}
	idx, ok := c.nodes[node]
	if !ok {
		//lint:allow nopanic probing an unknown node is a caller bug in experiment code
		panic(fmt.Sprintf("mna: no node %q in circuit %q", node, c.name))
	}
	return idx
}

// Mag returns |V(node)|.
func (s *Solution) Mag(node string) float64 { return cmplx.Abs(s.V(node)) }

// PhaseDeg returns the phase of V(node) in degrees.
func (s *Solution) PhaseDeg(node string) float64 {
	return cmplx.Phase(s.V(node)) * 180 / math.Pi
}

// BranchCurrent returns the phasor current through a group-2 element
// (voltage source, inductor, VCVS or op-amp output), flowing from the
// element's positive terminal through it to the negative one — the SPICE
// convention, under which a sourcing battery reads a negative current.
// It panics for elements without a branch unknown (use a 0 V sense
// source in series to probe a group-1 branch).
func (s *Solution) BranchCurrent(name string) complex128 {
	i, ok := s.branch[name]
	if !ok {
		//lint:allow nopanic documented contract: panics for elements without a branch unknown
		panic(fmt.Sprintf("mna: element %q has no branch current in circuit %q", name, s.circuit.name))
	}
	return i
}

// workspace is a circuit's solve storage: the MNA matrix, right-hand
// side, row scales and solution. It is allocated on the first solve and
// regrown only when the number of unknowns changes, so a frequency sweep
// or an ED search solves without allocating. Sharing it is what keeps a
// Circuit single-goroutine: two concurrent analyses of one circuit would
// assemble into the same matrix.
type workspace struct {
	a     [][]complex128
	b, x  []complex128
	scale []float64
}

// prepare zeroes the workspace for a system of n unknowns, reallocating
// it when n differs from the last solve's. Pivoting reorders the rows of
// a, but they still cover one backing array between them, so clearing
// every row clears the whole matrix.
func (w *workspace) prepare(n int) {
	if len(w.b) != n {
		w.a = numeric.NewComplexMatrix(n)
		w.b = make([]complex128, n)
		w.x = make([]complex128, n)
		w.scale = make([]float64, n)
		return
	}
	for _, row := range w.a {
		clear(row)
	}
	clear(w.b)
}

// assemble stamps the complex MNA system at angular frequency omega into
// the circuit's workspace. Unknown ordering: node voltages 1..N-1 (node 0
// is ground and eliminated), then one current unknown per group-2
// element.
func (c *Circuit) assemble(omega float64) {
	nNodes := c.NumNodes()
	nBranch := 0
	for _, e := range c.elems {
		if e.needsBranch() {
			e.branch = nNodes + nBranch
			nBranch++
		} else {
			e.branch = -1
		}
	}
	c.ws.prepare(nNodes + nBranch)
	a, b := c.ws.a, c.ws.b

	// row/col index for a node: node 0 (ground) maps to -1 (dropped).
	ix := func(node int) int { return node - 1 }
	addA := func(r, cIdx int, val complex128) {
		if r < 0 || cIdx < 0 {
			return
		}
		a[r][cIdx] += val
	}
	addB := func(r int, val complex128) {
		if r < 0 {
			return
		}
		b[r] += val
	}

	for _, e := range c.elems {
		switch e.kind {
		case KindResistor:
			g := complex(1/e.value, 0)
			stampAdmittance(addA, ix(e.a), ix(e.b), g)
		case KindCapacitor:
			y := complex(0, omega*e.value)
			stampAdmittance(addA, ix(e.a), ix(e.b), y)
		case KindInductor:
			// Branch equation: V(a) − V(b) − jωL·I = 0; KCL gets ±I.
			br := e.branch
			addA(br, ix(e.a), 1)
			addA(br, ix(e.b), -1)
			addA(br, br, complex(0, -omega*e.value))
			addA(ix(e.a), br, 1)
			addA(ix(e.b), br, -1)
		case KindVSource:
			br := e.branch
			addA(br, ix(e.a), 1)
			addA(br, ix(e.b), -1)
			amp := e.value
			if omega == 0 {
				amp = e.dc
			}
			addB(br, complex(amp, 0))
			addA(ix(e.a), br, 1)
			addA(ix(e.b), br, -1)
		case KindISource:
			amp := e.value
			if omega == 0 {
				amp = e.dc
			}
			// Current flows from a, through the source, into b.
			addB(ix(e.a), complex(-amp, 0))
			addB(ix(e.b), complex(amp, 0))
		case KindVCVS:
			br := e.branch
			// V(a) − V(b) − gain·(V(cp) − V(cn)) = 0
			addA(br, ix(e.a), 1)
			addA(br, ix(e.b), -1)
			addA(br, ix(e.cp), complex(-e.value, 0))
			addA(br, ix(e.cn), complex(e.value, 0))
			addA(ix(e.a), br, 1)
			addA(ix(e.b), br, -1)
		case KindOpAmp:
			br := e.branch
			// Nullator across the inputs: V(cp) − V(cn) = 0.
			addA(br, ix(e.cp), 1)
			addA(br, ix(e.cn), -1)
			// Norator at the output: the branch current flows out of
			// node a (the output), closing to ground.
			addA(ix(e.a), br, 1)
			addA(ix(e.b), br, -1)
		}
	}
}

func stampAdmittance(addA func(r, c int, v complex128), ia, ib int, y complex128) {
	addA(ia, ia, y)
	addA(ib, ib, y)
	addA(ia, ib, -y)
	addA(ib, ia, -y)
}

// Solve counters, resolved once against the process-wide collector. The
// AC count is the pipeline's unit of analog work: every gain, sweep, ED
// search and Monte Carlo sample funnels through here. Circuits running
// on a worker lane redirect to their own collector via Instrument.
var (
	cSolvesDC  = obs.Default.Counter("mna.solves.dc")
	cSolvesAC  = obs.Default.Counter("mna.solves.ac")
	hSolveSize = obs.Default.Histogram("mna.solve.size")
)

// mnaMetrics is one circuit's set of solve handles, resolved once at
// Instrument time so the hot path stays a plain pointer chase.
type mnaMetrics struct {
	solvesDC  *obs.Counter
	solvesAC  *obs.Counter
	solveSize *obs.Histogram
}

// Instrument redirects this circuit's solve metrics (mna.solves.dc,
// mna.solves.ac, mna.solve.size) to col instead of the process-wide
// obs.Default — the hook a sharded run loop uses to attribute analog
// work to the worker lane (child collector) driving the circuit. A nil
// col restores the default. Handles are interned once here; solve()
// itself stays allocation-free.
func (c *Circuit) Instrument(col *obs.Collector) {
	if col == nil {
		c.met = nil
		return
	}
	c.met = &mnaMetrics{
		solvesDC:  col.Counter("mna.solves.dc"),
		solvesAC:  col.Counter("mna.solves.ac"),
		solveSize: col.Histogram("mna.solve.size"),
	}
}

// solve runs the analysis at f hertz (0 for DC) into the circuit's
// workspace and returns the unknowns: node voltages 1..N-1, then branch
// currents. The slice is the workspace's own and the next solve
// overwrites it. solve fails fast on a negative frequency, a recorded
// construction error, a done bound context, or an exhausted solve
// budget — the hardened-execution entry point for analog work.
func (c *Circuit) solve(f float64) ([]complex128, error) {
	if f < 0 {
		return nil, fmt.Errorf("mna: negative frequency %g", f)
	}
	if c.buildErr != nil {
		return nil, fmt.Errorf("mna: circuit %q has a construction error: %w", c.name, c.buildErr)
	}
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			return nil, fmt.Errorf("mna: circuit %q: %w", c.name, err)
		}
		if err := chaos.Step(c.ctx, chaos.SiteMNASolve, c.name); err != nil {
			return nil, fmt.Errorf("mna: circuit %q: %w", c.name, err)
		}
	}
	if c.budget > 0 {
		if c.solves >= c.budget {
			return nil, fmt.Errorf("mna: circuit %q: %w", c.name,
				&guard.BudgetError{Resource: "mna-solves", Limit: c.budget})
		}
		c.solves++
	}
	dc, ac, size := cSolvesDC, cSolvesAC, hSolveSize
	if c.met != nil {
		dc, ac, size = c.met.solvesDC, c.met.solvesAC, c.met.solveSize
	}
	if f == 0 {
		dc.Inc()
	} else {
		ac.Inc()
	}
	c.assemble(2 * math.Pi * f)
	w := &c.ws
	size.Observe(int64(len(w.b)))
	if err := numeric.SolveComplexInto(w.a, w.b, w.x, w.scale); err != nil {
		return nil, fmt.Errorf("mna: circuit %q at f=%g Hz: %w", c.name, f, err)
	}
	return w.x, nil
}

// solution runs solve and copies its unknowns into a Solution that owns
// them, so later solves of the circuit leave it unchanged.
func (c *Circuit) solution(f float64) (*Solution, error) {
	x, err := c.solve(f)
	if err != nil {
		return nil, err
	}
	nNodes := c.NumNodes()
	v := make([]complex128, nNodes+1)
	copy(v[1:], x[:nNodes])
	branch := map[string]complex128{}
	for _, e := range c.elems {
		if e.branch >= 0 {
			branch[e.name] = x[e.branch]
		}
	}
	return &Solution{circuit: c, freq: f, v: v, branch: branch}, nil
}

// AC performs a phasor analysis at frequency f in hertz. All independent
// sources contribute their AC amplitudes at zero phase.
func (c *Circuit) AC(f float64) (*Solution, error) { return c.solution(f) }

// DC performs an operating-point analysis: capacitors open, inductors
// short, sources at their DC values.
func (c *Circuit) DC() (*Solution, error) { return c.solution(0) }

// Gain returns the complex voltage transfer V(out)/V(in-source amplitude)
// at frequency f. The circuit must contain exactly one voltage source with
// a nonzero AC amplitude (for f > 0) or a nonzero DC value (for f = 0);
// Gain normalises by it, so the absolute drive level cancels out. It
// reads the output straight from the solve workspace, without building a
// Solution.
func (c *Circuit) Gain(out string, f float64) (complex128, error) {
	var src *element
	for _, e := range c.elems {
		if e.kind != KindVSource {
			continue
		}
		amp := e.value
		if f == 0 {
			amp = e.dc
		}
		if amp == 0 {
			continue
		}
		if src != nil {
			return 0, fmt.Errorf("mna: circuit %q has multiple active sources; Gain is ambiguous", c.name)
		}
		src = e
	}
	if src == nil {
		return 0, fmt.Errorf("mna: circuit %q has no active voltage source", c.name)
	}
	x, err := c.solve(f)
	if err != nil {
		return 0, err
	}
	var v complex128
	if idx := c.nodeIndex(out); idx > 0 {
		v = x[idx-1]
	}
	amp := src.value
	if f == 0 {
		amp = src.dc
	}
	return v / complex(amp, 0), nil
}

// GainMag returns |Gain(out, f)|.
func (c *Circuit) GainMag(out string, f float64) (float64, error) {
	g, err := c.Gain(out, f)
	if err != nil {
		return 0, err
	}
	return cmplx.Abs(g), nil
}

// InputImpedance returns the impedance seen by the named voltage source
// at frequency f: Z = V_source / I_in, where I_in is the current the
// source pushes into the circuit. The source must carry a nonzero
// amplitude at the analysis frequency.
func (c *Circuit) InputImpedance(source string, f float64) (complex128, error) {
	e, ok := c.byName[source]
	if !ok || e.kind != KindVSource {
		return 0, fmt.Errorf("mna: %q is not a voltage source in circuit %q", source, c.name)
	}
	amp := e.value
	if f == 0 {
		amp = e.dc
	}
	if amp == 0 {
		return 0, fmt.Errorf("mna: source %q is inactive at f=%g", source, f)
	}
	sol, err := c.solution(f)
	if err != nil {
		return 0, err
	}
	// BranchCurrent uses the SPICE convention (into the + terminal);
	// the current delivered to the circuit is its negation.
	iin := -sol.BranchCurrent(source)
	if iin == 0 {
		return 0, fmt.Errorf("mna: source %q drives no current; input impedance is infinite", source)
	}
	return complex(amp, 0) / iin, nil
}

// Sweep evaluates the complex gain at each frequency in freqs.
func (c *Circuit) Sweep(out string, freqs []float64) ([]complex128, error) {
	res := make([]complex128, len(freqs))
	for i, f := range freqs {
		g, err := c.Gain(out, f)
		if err != nil {
			return nil, err
		}
		res[i] = g
	}
	return res, nil
}
