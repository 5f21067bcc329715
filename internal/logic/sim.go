package logic

import "fmt"

// Override forces one line of the circuit to a constant during
// simulation, modelling a single stuck-at fault.
//
// Consumer == -1 forces the signal's stem (its value as seen by every
// consumer and by the primary-output list). Consumer == g forces only the
// branch feeding gate g, leaving the stem and other branches healthy —
// the classic fanout-branch fault.
type Override struct {
	Signal   SigID
	Consumer SigID // -1 for a stem fault
	Value    bool
}

// NoOverride is the zero-effect override used for good-circuit runs.
var NoOverride = Override{Signal: -1, Consumer: -1}

func (o Override) active() bool { return o.Signal >= 0 }

func (o Override) word() uint64 {
	if o.Value {
		return ^uint64(0)
	}
	return 0
}

// SimWords runs 64 patterns through the circuit in parallel. inWords has
// one word per primary input, in Inputs() order; bit k of each word is
// pattern k. The returned slice has one word per signal, indexed by SigID.
func (c *Circuit) SimWords(inWords []uint64) []uint64 {
	return c.SimWordsFaulty(inWords, NoOverride)
}

// SimWordsFaulty is SimWords with a single stuck-at line override.
func (c *Circuit) SimWordsFaulty(inWords []uint64, ov Override) []uint64 {
	c.mustBeFrozen()
	if len(inWords) != len(c.inputs) {
		//lint:allow nopanic input word count mismatch is a caller bug
		panic(fmt.Sprintf("logic: SimWords: %d input words for %d inputs", len(inWords), len(c.inputs)))
	}
	val := make([]uint64, len(c.signals))
	for i, id := range c.inputs {
		val[id] = inWords[i]
	}
	if ov.active() && ov.Consumer < 0 {
		// Stem fault on a primary input applies immediately; on a gate
		// output it applies right after the gate is evaluated below.
		if c.signals[ov.Signal].Type == TypeInput {
			val[ov.Signal] = ov.word()
		}
	}
	var faninBuf []uint64
	for _, id := range c.order {
		s := &c.signals[id]
		faninBuf = faninBuf[:0]
		for _, f := range s.Fanin {
			w := val[f]
			if ov.active() && ov.Consumer == id && ov.Signal == f {
				w = ov.word()
			}
			faninBuf = append(faninBuf, w)
		}
		v := s.Type.EvalWords(faninBuf)
		if ov.active() && ov.Consumer < 0 && ov.Signal == id {
			v = ov.word()
		}
		val[id] = v
	}
	return val
}

// OutputWords extracts the primary-output words from a SimWords result.
func (c *Circuit) OutputWords(val []uint64) []uint64 {
	out := make([]uint64, len(c.outputs))
	for i, id := range c.outputs {
		out[i] = val[id]
	}
	return out
}

// Eval runs a single named-assignment pattern through the good circuit
// and returns every signal's value by name. Missing inputs default to
// false.
func (c *Circuit) Eval(assign map[string]bool) map[string]bool {
	in := make([]uint64, len(c.inputs))
	for i, id := range c.inputs {
		if assign[c.signals[id].Name] {
			in[i] = 1
		}
	}
	val := c.SimWords(in)
	out := make(map[string]bool, len(c.signals))
	for i := range c.signals {
		out[c.signals[i].Name] = val[i]&1 != 0
	}
	return out
}

// EvalOutputs runs a single pattern and returns just the output values in
// output order.
func (c *Circuit) EvalOutputs(assign map[string]bool) []bool {
	vals := c.Eval(assign)
	out := make([]bool, len(c.outputs))
	for i, id := range c.outputs {
		out[i] = vals[c.signals[id].Name]
	}
	return out
}
