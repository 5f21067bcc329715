package bdd

import "math"

// Assignment maps variable names to values. Variables not present are
// don't-cares.
type Assignment map[string]bool

// SatOne returns one satisfying assignment of f (variables on the chosen
// path only; everything else is a don't-care) and whether f is satisfiable
// at all. When both branches are open it prefers the low (0) branch, which
// yields vectors with few 1s — convenient for the tables.
func (m *Manager) SatOne(f Ref) (Assignment, bool) {
	if f == False {
		return nil, false
	}
	assign := Assignment{}
	for !IsConst(f) {
		n := m.nodes[f]
		name := m.vars[n.level]
		if n.lo != False {
			assign[name] = false
			f = n.lo
		} else {
			assign[name] = true
			f = n.hi
		}
	}
	return assign, true
}

// SatCount returns the number of satisfying assignments of f over the
// first nVars variables of the manager's order (all declared variables
// when nVars < 0). The count is returned as a float64 because wide PI sets
// overflow uint64 quickly; the experiments only ever display it.
func (m *Manager) SatCount(f Ref, nVars int) float64 {
	if nVars < 0 {
		nVars = len(m.vars)
	}
	// Weight each path by 2^(number of variables skipped along it).
	memo2 := map[Ref]float64{}
	var paths func(Ref, int32) float64
	paths = func(r Ref, fromLevel int32) float64 {
		if r == False {
			return 0
		}
		lvl := int32(nVars)
		if !IsConst(r) {
			lvl = m.level(r)
		}
		skipped := float64(lvl - fromLevel)
		var below float64
		if r == True {
			below = 1
		} else {
			if v, ok := memo2[r]; ok {
				below = v
			} else {
				n := m.nodes[r]
				below = paths(n.lo, lvl+1) + paths(n.hi, lvl+1)
				memo2[r] = below
			}
		}
		return below * math.Pow(2, skipped)
	}
	return paths(f, 0)
}

// SatOneConstrained returns a satisfying assignment of f that also fixes
// don't-care variables among names to false, producing a fully specified
// vector over names. Returns ok=false when f is unsatisfiable.
func (m *Manager) SatOneConstrained(f Ref, names []string) (Assignment, bool) {
	a, ok := m.SatOne(f)
	if !ok {
		return nil, false
	}
	for _, n := range names {
		if _, have := a[n]; !have {
			a[n] = false
		}
	}
	return a, true
}
