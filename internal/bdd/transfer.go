package bdd

import "fmt"

// Transfer rebuilds the function f (owned by src) inside dst, mapping
// variables by name. Variables of f missing from dst are declared on
// first use (appended to dst's order). Because ROBDDs are canonical per
// order, transferring between managers with different orders yields the
// same function with a possibly very different node count — the tool
// behind the order-sensitivity ablation and behind isolating a hot
// function from a bloated manager.
//
// The rebuild is a Shannon expansion over dst's operations, memoised per
// source node, so the cost is O(|f| · ITE).
func Transfer(dst, src *Manager, f Ref) Ref {
	memo := map[Ref]Ref{}
	var rec func(Ref) Ref
	rec = func(r Ref) Ref {
		if r == False || r == True {
			return r
		}
		if v, ok := memo[r]; ok {
			return v
		}
		n := src.nodes[r]
		v := dst.Var(src.vars[n.level])
		out := dst.ITE(v, rec(n.hi), rec(n.lo))
		memo[r] = out
		return out
	}
	return rec(f)
}

// Stats summarises a manager's state for diagnostics and ablations.
type Stats struct {
	Vars      int
	Nodes     int
	PeakNodes int
	// CacheSize is the computed cache's slot count, not its live entries:
	// it doubles with the arena up to a fixed cap, and a slot may be
	// empty or hold any one recent result.
	CacheSize int
}

// Stats returns the manager's current statistics.
func (m *Manager) Stats() Stats {
	return Stats{
		Vars:      len(m.vars),
		Nodes:     len(m.nodes),
		PeakNodes: m.PeakSize(),
		CacheSize: len(m.cache),
	}
}

// String renders the statistics compactly.
func (s Stats) String() string {
	return fmt.Sprintf("vars=%d nodes=%d peak=%d cache=%d", s.Vars, s.Nodes, s.PeakNodes, s.CacheSize)
}

// VarOrder returns the manager's variable order, top to bottom.
func (m *Manager) VarOrder() []string {
	return append([]string(nil), m.vars...)
}
