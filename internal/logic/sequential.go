package logic

import "fmt"

// StateReg describes one D flip-flop of a sequential circuit in terms of
// the combinational core: Q is the core input carrying the present state,
// D the core signal computing the next state.
type StateReg struct {
	Q string // present-state input of the core (a primary input)
	D string // next-state function (any core signal)
}

// SeqCircuit is a single-clock synchronous circuit: a combinational core
// plus a set of D flip-flops closing Q ← D every cycle. This models the
// capture registers of the paper's Figure 3 and, via Unroll, lets the
// combinational OBDD test generator handle sequential blocks by
// time-frame expansion.
type SeqCircuit struct {
	Core *Circuit
	Regs []StateReg
}

// NewSeq validates a sequential circuit: the core must be frozen, every Q
// must be a core primary input, every D a core signal, and no input may
// serve two registers.
func NewSeq(core *Circuit, regs []StateReg) (*SeqCircuit, error) {
	if !core.Frozen() {
		return nil, fmt.Errorf("logic: sequential core %q must be frozen", core.Name)
	}
	seen := map[string]bool{}
	inputs := map[string]bool{}
	for _, n := range core.InputNames() {
		inputs[n] = true
	}
	for _, r := range regs {
		if !inputs[r.Q] {
			return nil, fmt.Errorf("logic: state input %q is not a core primary input", r.Q)
		}
		if seen[r.Q] {
			return nil, fmt.Errorf("logic: state input %q used by two registers", r.Q)
		}
		seen[r.Q] = true
		if _, ok := core.SigByName(r.D); !ok {
			return nil, fmt.Errorf("logic: next-state signal %q does not exist", r.D)
		}
	}
	return &SeqCircuit{Core: core, Regs: regs}, nil
}

// FreeInputs returns the core inputs that are true primary inputs (not
// state feedback), in input order.
func (s *SeqCircuit) FreeInputs() []string {
	state := map[string]bool{}
	for _, r := range s.Regs {
		state[r.Q] = true
	}
	var out []string
	for _, n := range s.Core.InputNames() {
		if !state[n] {
			out = append(out, n)
		}
	}
	return out
}

// FrameName returns the name a core signal takes in time frame t of an
// unrolled circuit.
func FrameName(name string, t int) string { return fmt.Sprintf("%s@%d", name, t) }

// Unroll expands the sequential circuit over the given number of time
// frames into a purely combinational circuit:
//
//   - every free primary input appears once per frame (FrameName(pi, t));
//   - frame 0's state inputs are constants from initial (missing entries
//     reset to 0);
//   - frame t>0's state inputs are driven by frame t−1's next-state
//     signals;
//   - every frame's primary outputs are marked (observable every cycle).
//
// The result is suitable for the combinational ATPG; a stuck-at fault of
// the sequential circuit corresponds to the same fault injected in every
// frame (see FrameFaults in the atpg package's callers).
func (s *SeqCircuit) Unroll(frames int, initial map[string]bool) (*Circuit, error) {
	if frames < 1 {
		return nil, fmt.Errorf("logic: need at least one frame, got %d", frames)
	}
	out := New(fmt.Sprintf("%s_x%d", s.Core.Name, frames))
	stateOf := map[string]StateReg{}
	for _, r := range s.Regs {
		stateOf[r.Q] = r
	}
	// Declare free inputs frame-major so the OBDD order interleaves
	// frames naturally.
	for t := 0; t < frames; t++ {
		for _, n := range s.FreeInputs() {
			out.AddInput(FrameName(n, t))
		}
	}
	for t := 0; t < frames; t++ {
		// State inputs of this frame become constants (t = 0) or
		// buffers of the previous frame's next-state signal.
		for _, id := range s.Core.Inputs() {
			name := s.Core.Signal(id).Name
			reg, isState := stateOf[name]
			if !isState {
				continue
			}
			if t == 0 {
				ty := TypeConst0
				if initial[name] {
					ty = TypeConst1
				}
				out.AddGate(FrameName(name, 0), ty)
			} else {
				out.AddGate(FrameName(name, t), TypeBuf, FrameName(reg.D, t-1))
			}
		}
		// Copy the gates.
		for _, id := range s.Core.TopoOrder() {
			sig := s.Core.Signal(id)
			fanins := make([]string, len(sig.Fanin))
			for i, f := range sig.Fanin {
				fanins[i] = FrameName(s.Core.Signal(f).Name, t)
			}
			out.AddGate(FrameName(sig.Name, t), sig.Type, fanins...)
		}
		for _, name := range s.Core.OutputNames() {
			out.MarkOutput(FrameName(name, t))
		}
	}
	if err := out.Freeze(); err != nil {
		return nil, err
	}
	return out, nil
}

// Simulate runs the sequential circuit cycle by cycle: vectors[t] assigns
// the free inputs of cycle t; initial gives the reset state (missing
// registers reset to 0). The result holds the primary-output values of
// every cycle.
func (s *SeqCircuit) Simulate(vectors []map[string]bool, initial map[string]bool) [][]bool {
	state := map[string]bool{}
	for _, r := range s.Regs {
		state[r.Q] = initial[r.Q]
	}
	var outs [][]bool
	for _, vec := range vectors {
		assign := map[string]bool{}
		for k, v := range vec {
			assign[k] = v
		}
		for q, v := range state {
			assign[q] = v
		}
		vals := s.Core.Eval(assign)
		cycle := make([]bool, len(s.Core.Outputs()))
		for i, id := range s.Core.Outputs() {
			cycle[i] = vals[s.Core.Signal(id).Name]
		}
		outs = append(outs, cycle)
		for _, r := range s.Regs {
			state[r.Q] = vals[r.D]
		}
	}
	return outs
}

// SimWordsFaultyMulti is SimWords with a set of simultaneous line
// overrides — used to model one sequential stuck-at fault, which afflicts
// its line in every time frame of an unrolled circuit.
func (c *Circuit) SimWordsFaultyMulti(inWords []uint64, ovs []Override) []uint64 {
	c.mustBeFrozen()
	if len(inWords) != len(c.inputs) {
		//lint:allow nopanic input word count mismatch is a caller bug
		panic(fmt.Sprintf("logic: SimWordsFaultyMulti: %d input words for %d inputs", len(inWords), len(c.inputs)))
	}
	stem := map[SigID]uint64{}      // stem forces
	branch := map[[2]SigID]uint64{} // (signal, consumer) forces
	branchSet := map[[2]SigID]bool{}
	stemSet := map[SigID]bool{}
	for _, ov := range ovs {
		if !ov.active() {
			continue
		}
		if ov.Consumer < 0 {
			stemSet[ov.Signal] = true
			stem[ov.Signal] = ov.word()
		} else {
			k := [2]SigID{ov.Signal, ov.Consumer}
			branchSet[k] = true
			branch[k] = ov.word()
		}
	}
	val := make([]uint64, len(c.signals))
	for i, id := range c.inputs {
		v := inWords[i]
		if stemSet[id] {
			v = stem[id]
		}
		val[id] = v
	}
	var faninBuf []uint64
	for _, id := range c.order {
		s := &c.signals[id]
		faninBuf = faninBuf[:0]
		for _, f := range s.Fanin {
			w := val[f]
			if k := ([2]SigID{f, id}); branchSet[k] {
				w = branch[k]
			}
			faninBuf = append(faninBuf, w)
		}
		v := s.Type.EvalWords(faninBuf)
		if stemSet[id] {
			v = stem[id]
		}
		val[id] = v
	}
	return val
}
