package faults

import "repro/internal/logic"

// Checkpoints returns the checkpoint fault list of the circuit: both
// stuck-at polarities on every primary input and every fanout branch.
// A primary output that also drives gates is a fanout stem even with a
// single consumer — the output and the gate are separate branches (see
// logic.(*Circuit).HasBranches) — so its gate branches are checkpoints
// too, and they are lines of All.
//
// By the checkpoint theorem, for circuits built from AND/OR/NAND/NOR/
// NOT/BUF primitives a test set detecting all checkpoint faults detects
// every single stuck-at fault: each internal line lies on a fanout-free
// path from a checkpoint along which its faults dominate (or are
// equivalent to) checkpoint faults. With XOR/XNOR primitives the theorem
// does not hold in general — a detected XOR-input fault does not imply a
// sensitised output value — so for XOR-rich circuits the list is a
// targeting heuristic to be topped up by fault simulation against the
// full universe (the classic two-phase flow; see the ablation
// experiment).
func Checkpoints(c *logic.Circuit) []Fault {
	var out []Fault
	for _, id := range c.Inputs() {
		out = append(out,
			Fault{Signal: id, Consumer: -1, Value: false},
			Fault{Signal: id, Consumer: -1, Value: true})
	}
	for id := 0; id < c.NumSignals(); id++ {
		sid := logic.SigID(id)
		if c.HasBranches(sid) {
			for _, g := range c.Signal(sid).Fanout {
				out = append(out,
					Fault{Signal: sid, Consumer: g, Value: false},
					Fault{Signal: sid, Consumer: g, Value: true})
			}
		}
	}
	return out
}
