package atpg

import "repro/internal/faults"

// Compact performs reverse-order static compaction on a generated vector
// set: vectors are fault-simulated newest-first with fault dropping, and
// any vector that detects no not-yet-detected fault is discarded. Because
// later ATPG vectors target the stubborn faults (the easy ones having
// been dropped early), reverse order retires large detection sets first
// and typically removes a sizeable share of the vectors without losing
// coverage.
//
// The returned set preserves the relative order of the surviving vectors
// and detects exactly the same faults of fs as the input set.
//
// One Detect over the reversed list finds each fault's first detector in
// reverse order, and a vector survives exactly when it is that first
// detector for some fault: the vectors a per-vector reverse loop with
// fault dropping keeps.
func (g *Generator) Compact(vectors []faults.Vector, fs []faults.Fault) []faults.Vector {
	rev := make([]faults.Vector, len(vectors))
	for i, v := range vectors {
		rev[len(vectors)-1-i] = v
	}
	keep := make([]bool, len(vectors))
	sim := faults.NewSimulator(g.c)
	sim.Instrument(g.col)
	for _, d := range sim.Detect(rev, fs) {
		if d >= 0 {
			keep[len(vectors)-1-d] = true
		}
	}
	var out []faults.Vector
	for i, v := range vectors {
		if keep[i] {
			out = append(out, v)
		}
	}
	return out
}
