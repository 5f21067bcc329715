package faults

import (
	"fmt"
	"math/bits"

	"repro/internal/logic"
	"repro/internal/obs"
)

// Vector is one fully specified input pattern, aligned with the circuit's
// Inputs() order.
type Vector []bool

// VectorFromAssignment builds a Vector from a named assignment; inputs
// absent from the map default to false.
func VectorFromAssignment(c *logic.Circuit, assign map[string]bool) Vector {
	v := make(Vector, len(c.Inputs()))
	for i, id := range c.Inputs() {
		v[i] = assign[c.Signal(id).Name]
	}
	return v
}

// Assignment renders the vector as a name → value map.
func (v Vector) Assignment(c *logic.Circuit) map[string]bool {
	out := make(map[string]bool, len(v))
	for i, id := range c.Inputs() {
		out[c.Signal(id).Name] = v[i]
	}
	return out
}

// String renders the vector as a bit string in input order.
func (v Vector) String() string {
	buf := make([]byte, len(v))
	for i, b := range v {
		if b {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}

// Simulator runs bit-parallel fault simulation over one circuit by
// parallel-pattern single-fault propagation (Waicukauski et al., 1985).
// Load simulates the good circuit once for a batch of up to 64 vectors;
// then, for each fault, only the gates the fault effect reaches are
// re-evaluated, in level order, and propagation stops wherever the
// faulty word equals the good word. The simulator owns the workspace
// this runs in, so nothing is allocated per fault, and a Simulator must
// be used by one goroutine at a time.
type Simulator struct {
	c *logic.Circuit

	// The loaded batch: mask has bit k set for each loaded vector k, and
	// good holds every signal's good-circuit word.
	mask uint64
	good []uint64

	// Propagation workspace. val equals good outside propagate; inside
	// it, the signals in touched hold the faulty circuit's words. Events
	// wait in queue, grouped by level — level l's occupy
	// queue[start[l]:start[l]+fill[l]] — until every lower level is done.
	val     []uint64
	touched []logic.SigID
	queued  []bool
	queue   []logic.SigID
	start   []int32
	fill    []int32
	events  int
	diff    uint64 // OR over outputs of faulty ^ good, set by propagate
	fanin   []uint64
	pending []int // Detect's undetected fault indices

	// Detect's counters (see Instrument). A "batch" is one 64-vector-wide
	// parallel pass over the pending fault list — the unit of
	// fault-simulation work.
	calls, batches, detected *obs.Counter
}

// NewSimulator creates a fault simulator for the (frozen) circuit.
func NewSimulator(c *logic.Circuit) *Simulator {
	if !c.Frozen() {
		//lint:allow nopanic API misuse: the circuit must be frozen before simulation
		panic(fmt.Sprintf("faults: circuit %q must be frozen", c.Name))
	}
	n := c.NumSignals()
	s := &Simulator{
		c:      c,
		good:   make([]uint64, n),
		val:    make([]uint64, n),
		queued: make([]bool, n),
		queue:  make([]logic.SigID, n),
		start:  make([]int32, c.Depth()+2),
		fill:   make([]int32, c.Depth()+1),
	}
	for id := 0; id < n; id++ {
		s.start[c.Signal(logic.SigID(id)).Level+1]++
	}
	for l := 1; l < len(s.start); l++ {
		s.start[l] += s.start[l-1]
	}
	s.Instrument(obs.Default)
	return s
}

// Instrument directs the simulator's counters (faults.sim.calls,
// faults.sim.batches, faults.sim.detected) at col; NewSimulator starts
// on obs.Default. A nil col disables them.
func (s *Simulator) Instrument(col *obs.Collector) {
	s.calls = col.Counter("faults.sim.calls")
	s.batches = col.Counter("faults.sim.batches")
	s.detected = col.Counter("faults.sim.detected")
}

// Load makes the first min(len(vectors), 64) vectors the loaded batch —
// vector k is bit k of every word — and simulates the good circuit on
// it once. It returns how many vectors it loaded.
func (s *Simulator) Load(vectors []Vector) int {
	n := min(len(vectors), 64)
	s.mask = ^uint64(0) >> uint(64-n)
	for i, id := range s.c.Inputs() {
		var w uint64
		for p, v := range vectors[:n] {
			if v[i] {
				w |= 1 << uint(p)
			}
		}
		s.val[id] = w
	}
	for _, id := range s.c.TopoOrder() {
		s.val[id] = s.eval(id, Fault{Signal: -1, Consumer: -1}, 0)
	}
	copy(s.good, s.val)
	return n
}

// Good returns the signal's good-circuit word over the loaded batch.
func (s *Simulator) Good(id logic.SigID) uint64 { return s.good[id] }

// Diff returns the loaded vectors that detect f: bit k is set when
// vector k makes some primary output of the faulty circuit differ from
// the good one.
func (s *Simulator) Diff(f Fault) uint64 {
	d := s.propagate(f)
	s.restore()
	return d
}

// Faulty stores in dst[k] the faulty circuit's word on signal ids[k]
// over the loaded batch, and returns Diff(f). dst must be at least as
// long as ids.
func (s *Simulator) Faulty(f Fault, ids []logic.SigID, dst []uint64) uint64 {
	d := s.propagate(f)
	for k, id := range ids {
		dst[k] = s.val[id]
	}
	s.restore()
	return d
}

// eval computes gate id from the workspace words. When id is the
// consumer of the branch fault f, every fanin equal to f.Signal reads
// stuck instead — a duplicated fanin sees the fault on each pin.
func (s *Simulator) eval(id logic.SigID, f Fault, stuck uint64) uint64 {
	g := s.c.Signal(id)
	s.fanin = s.fanin[:0]
	for _, in := range g.Fanin {
		w := s.val[in]
		if id == f.Consumer && in == f.Signal {
			w = stuck
		}
		s.fanin = append(s.fanin, w)
	}
	return g.Type.EvalWords(s.fanin)
}

// propagate injects f into the loaded batch and re-evaluates, level by
// level, only the gates its effect reaches. It leaves the faulty words
// in val, for restore to undo, and returns the loaded vectors under
// which some primary output differs.
func (s *Simulator) propagate(f Fault) uint64 {
	var stuck uint64
	if f.Value {
		stuck = ^uint64(0)
	}
	s.diff = 0
	if f.Consumer < 0 {
		s.set(f.Signal, stuck)
	} else {
		s.schedule(f.Consumer)
	}
	// Every gate the effect can reach sits above the faulty line's
	// driver, and a gate's fanouts sit above it, so by the time a level
	// is reached all of its gates' fanins are final.
	for l := s.c.Signal(f.Signal).Level + 1; s.events > 0; l++ {
		s.events -= int(s.fill[l])
		for _, id := range s.queue[s.start[l] : s.start[l]+s.fill[l]] {
			s.queued[id] = false
			s.set(id, s.eval(id, f, stuck))
		}
		s.fill[l] = 0
	}
	return s.diff & s.mask
}

// set gives signal id the faulty word w. A word equal to the good one
// stops the event there; any other is recorded, compared at a primary
// output, and scheduled on every consumer.
func (s *Simulator) set(id logic.SigID, w uint64) {
	if w == s.good[id] {
		return
	}
	s.val[id] = w
	s.touched = append(s.touched, id)
	if s.c.IsOutput(id) {
		s.diff |= w ^ s.good[id]
	}
	for _, g := range s.c.Signal(id).Fanout {
		s.schedule(g)
	}
}

// schedule queues gate g for re-evaluation at its level, once.
func (s *Simulator) schedule(g logic.SigID) {
	if s.queued[g] {
		return
	}
	s.queued[g] = true
	l := s.c.Signal(g).Level
	s.queue[s.start[l]+s.fill[l]] = g
	s.fill[l]++
	s.events++
}

// restore returns every signal propagate changed to its good word.
func (s *Simulator) restore() {
	for _, id := range s.touched {
		s.val[id] = s.good[id]
	}
	s.touched = s.touched[:0]
}

// Detect simulates the vectors against the fault list and returns, for
// each fault, the index of the first detecting vector, or -1 if none
// detects it. Detected faults are dropped from further batches. Detect
// replaces the loaded batch.
func (s *Simulator) Detect(vectors []Vector, fs []Fault) []int {
	s.calls.Inc()
	res := make([]int, len(fs))
	for i := range res {
		res[i] = -1
	}
	s.pending = s.pending[:0]
	for i := range fs {
		s.pending = append(s.pending, i)
	}
	for base := 0; base < len(vectors) && len(s.pending) > 0; base += 64 {
		s.batches.Inc()
		s.Load(vectors[base:])
		still := s.pending[:0]
		for _, fi := range s.pending {
			if d := s.Diff(fs[fi]); d != 0 {
				s.detected.Inc()
				// Lowest set bit = first detecting vector in this batch.
				res[fi] = base + bits.TrailingZeros64(d)
			} else {
				still = append(still, fi)
			}
		}
		s.pending = still
	}
	return res
}

// Coverage simulates the vectors and returns the number of detected
// faults.
func (s *Simulator) Coverage(vectors []Vector, fs []Fault) int {
	det := s.Detect(vectors, fs)
	n := 0
	for _, d := range det {
		if d >= 0 {
			n++
		}
	}
	return n
}

// DetectsFault reports whether the single vector detects the single
// fault. It replaces the loaded batch.
func (s *Simulator) DetectsFault(v Vector, f Fault) bool {
	s.Load([]Vector{v})
	return s.Diff(f) != 0
}
