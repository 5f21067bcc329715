// Package faults implements the single stuck-at fault model over gate-
// level circuits: fault-universe enumeration (stems and fanout branches),
// structural equivalence collapsing, and bit-parallel fault simulation
// with fault dropping.
//
// The paper's digital experiments count "uncollapsed" faults (two per
// line, as in Example 2's 18 faults) and "collapsed" faults (Table 4);
// both views are provided here.
package faults

import (
	"fmt"

	"repro/internal/logic"
)

// Fault is a single stuck-at fault on a line. Consumer == -1 addresses the
// signal's stem; otherwise the fault sits on the branch feeding that
// consumer gate.
type Fault struct {
	Signal   logic.SigID
	Consumer logic.SigID // -1 for stem
	Value    bool        // stuck-at value
}

// Override converts the fault to a simulation override.
func (f Fault) Override() logic.Override {
	return logic.Override{Signal: f.Signal, Consumer: f.Consumer, Value: f.Value}
}

// Name renders the fault in the paper's "l3 s-a-0" style, with branch
// faults shown as "stem->consumer s-a-v".
func (f Fault) Name(c *logic.Circuit) string {
	v := 0
	if f.Value {
		v = 1
	}
	if f.Consumer < 0 {
		return fmt.Sprintf("%s s-a-%d", c.Signal(f.Signal).Name, v)
	}
	return fmt.Sprintf("%s->%s s-a-%d", c.Signal(f.Signal).Name, c.Signal(f.Consumer).Name, v)
}

// line is a fault site: a stem or a fanout branch.
type line struct {
	sig      logic.SigID
	consumer logic.SigID // -1 for stem
}

// lines enumerates every fault site of the circuit: one stem per signal,
// plus one branch per consumer for every stem that has branches (see
// logic.(*Circuit).HasBranches).
func lines(c *logic.Circuit) []line {
	var out []line
	for id := 0; id < c.NumSignals(); id++ {
		sid := logic.SigID(id)
		out = append(out, line{sig: sid, consumer: -1})
		if c.HasBranches(sid) {
			for _, g := range c.Signal(sid).Fanout {
				out = append(out, line{sig: sid, consumer: g})
			}
		}
	}
	return out
}

// All returns the uncollapsed single stuck-at fault universe: both
// polarities on every stem and every fanout branch.
func All(c *logic.Circuit) []Fault {
	ls := lines(c)
	out := make([]Fault, 0, 2*len(ls))
	for _, l := range ls {
		out = append(out,
			Fault{Signal: l.sig, Consumer: l.consumer, Value: false},
			Fault{Signal: l.sig, Consumer: l.consumer, Value: true})
	}
	return out
}

// Stems returns both polarities on every signal stem only (no fanout-
// branch faults) — the per-named-line universe used for the paper's small
// Example 2, which counts two faults per drawn line.
func Stems(c *logic.Circuit) []Fault {
	out := make([]Fault, 0, 2*c.NumSignals())
	for id := 0; id < c.NumSignals(); id++ {
		out = append(out,
			Fault{Signal: logic.SigID(id), Consumer: -1, Value: false},
			Fault{Signal: logic.SigID(id), Consumer: -1, Value: true})
	}
	return out
}

// Collapse performs structural equivalence collapsing on the full fault
// universe and returns one representative per equivalence class,
// deterministically (the earliest fault in universe order). The classes
// follow the classic rules:
//
//   - AND:  any input line s-a-0 ≡ output s-a-0
//   - NAND: any input line s-a-0 ≡ output s-a-1
//   - OR:   any input line s-a-1 ≡ output s-a-1
//   - NOR:  any input line s-a-1 ≡ output s-a-0
//   - NOT/BUF: input s-a-v ≡ output s-a-(v ⊕ inverted) for both v
//
// The "input line" of a gate is the fanout branch when the source stem
// has branches — more than one consumer, or a primary output that also
// feeds the gate — otherwise the stem.
func Collapse(c *logic.Circuit) []Fault {
	universe := All(c)
	index := make(map[Fault]int, len(universe))
	for i, f := range universe {
		index[f] = i
	}
	parent := make([]int, len(universe))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	// inputLine returns the fault site of fanin f as seen by gate g.
	inputLine := func(f, g logic.SigID) line {
		if c.HasBranches(f) {
			return line{sig: f, consumer: g}
		}
		return line{sig: f, consumer: -1}
	}
	for id := 0; id < c.NumSignals(); id++ {
		gid := logic.SigID(id)
		s := c.Signal(gid)
		if s.Type == logic.TypeInput || s.Type == logic.TypeConst0 || s.Type == logic.TypeConst1 {
			continue
		}
		inv := s.Type.Inverting()
		switch s.Type {
		case logic.TypeNot, logic.TypeBuf:
			in := inputLine(s.Fanin[0], gid)
			for _, v := range []bool{false, true} {
				fi := Fault{Signal: in.sig, Consumer: in.consumer, Value: v}
				fo := Fault{Signal: gid, Consumer: -1, Value: v != inv}
				union(index[fi], index[fo])
			}
		default:
			cv, has := s.Type.ControllingValue()
			if !has {
				continue // XOR family: no structural equivalence
			}
			outVal := cv != inv
			fo := Fault{Signal: gid, Consumer: -1, Value: outVal}
			for _, f := range s.Fanin {
				in := inputLine(f, gid)
				fi := Fault{Signal: in.sig, Consumer: in.consumer, Value: cv}
				union(index[fi], index[fo])
			}
		}
	}
	var reps []Fault
	for i, f := range universe {
		if find(i) == i {
			reps = append(reps, f)
		}
	}
	return reps
}
