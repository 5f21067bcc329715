// Package bdd implements reduced ordered binary decision diagrams (OBDDs)
// with a hash-consed unique table and a memoized ITE operator.
//
// Both tables are flat arrays over the manager's node arena: an
// open-addressing unique table and a direct-mapped, lossy computed cache
// (see Manager). Nodes are never freed, so a cache miss only recomputes
// into nodes the unique table already holds: it allocates nothing and
// returns the same Ref. Hashing is a fixed function with no per-process
// seed, so the same operations give the same Refs and counters on every
// run.
//
// It provides the algebraic machinery the paper's test generator is built
// on: boolean combination of line functions, the boolean difference
// (computed as an XOR of good/faulty functions), constraint-function
// conjunction, satisfiability queries for vector extraction, and support
// analysis for composite-value (D) propagation. Following the paper, the
// special variable D is created *last* in the variable order so that it
// sits at the bottom of every diagram.
//
// A Manager owns an arena of nodes and is not safe for concurrent use.
// Node references (Ref) are only meaningful for the manager that produced
// them.
package bdd

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/guard"
	"repro/internal/obs"
)

// Ref identifies a BDD node inside its Manager. The constants False and
// True are the terminal nodes and are shared by all managers.
type Ref int32

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

const terminalLevel = int32(1) << 30

// node is one decision node: if var(level) then hi else lo.
type node struct {
	level int32
	lo    Ref
	hi    Ref
}

// cacheEntry is one computed-cache slot: r = op(a, b, c). Op codes start
// at 1, so a zero slot (never written) matches no lookup.
type cacheEntry struct {
	op      uint32
	a, b, c Ref
	r       Ref
}

const (
	opITE      uint32 = iota + 1
	opExists          // (f, level, 0)
	opRestrict        // (f, level, value)
	opCompose         // (f, substitution epoch, 0)
)

const (
	// minTableSlots is the initial slot count of both tables.
	minTableSlots = 1 << 10
	// maxCacheSlots caps the computed cache (20 bytes a slot). Below the
	// cap the cache keeps at least one slot per arena node.
	maxCacheSlots = 1 << 20
)

// hashKey mixes an operation code and three operands into a table index.
// The mix is fixed, so table layouts repeat from run to run.
func hashKey(op uint32, a, b, c Ref) uint32 {
	h := uint64(op)*0xD6E8FEB86659FD93 ^ uint64(uint32(a))*0x9E3779B97F4A7C15 ^
		uint64(uint32(b))*0xC2B2AE3D27D4EB4F ^ uint64(uint32(c))*0x165667B19E3779F9
	h ^= h >> 32
	h *= 0x94D049BB133111EB
	return uint32(h >> 32)
}

// LimitError is the panic value raised when a Manager exceeds its node
// limit. Callers building potentially explosive diagrams should wrap the
// construction in Guard.
type LimitError struct {
	Limit int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("bdd: node limit %d exceeded", e.Limit)
}

// Is makes a node-limit trip match guard.ErrBudgetExceeded, so callers
// classify the whole family of resource exhaustions with one errors.Is.
func (e *LimitError) Is(target error) bool { return target == guard.ErrBudgetExceeded }

// CancelError is the panic value raised when the manager's bound context
// (BindContext) is done mid-construction. Guard converts it back into
// the context's error, so a per-fault deadline expiring inside a BDD
// product surfaces as context.DeadlineExceeded, not a crash.
type CancelError struct {
	Cause error
}

func (e *CancelError) Error() string { return fmt.Sprintf("bdd: construction canceled: %v", e.Cause) }

// Unwrap exposes the context error for errors.Is classification.
func (e *CancelError) Unwrap() error { return e.Cause }

// Manager owns the node arena, the unique table, the computed cache and
// the variable order of a family of BDDs.
//
// The arena is a slice indexed by Ref; nodes are appended and never
// freed. The unique table holds the Ref of every decision node at the
// slot its (level, lo, hi) hashes to, probing linearly past occupied
// slots; it is kept at most half full and doubles (rehashing the arena)
// when it fills. The computed cache has one entry per slot and no
// probing: ITE, Restrict, Exists and Compose results overwrite whatever
// their key's slot held. Its slot count doubles with the arena, up to
// maxCacheSlots, and a doubling keeps every entry. Restrict and Exists
// key their entries by the variable's level.
type Manager struct {
	vars     []string
	varIdx   map[string]int
	nodes    []node
	unique   []Ref // 0 (the False terminal, never stored) marks an empty slot
	cache    []cacheEntry
	limit    int
	peakSize int
	met      metrics

	// Compose's substitution, indexed by level (noSub where the variable
	// stays), the deepest substituted level, and the epoch that keys its
	// cache entries; each call starts a new epoch.
	sub      []Ref
	subMax   int32
	subEpoch uint32

	// Per-work-item guards: ctx is polled every ctxCheckStride node
	// allocations, budget caps allocations since budgetMark. Both zero
	// values disable the check.
	ctx        context.Context
	ctxStrideN int
	budget     int
	budgetMark int
}

// metrics holds the manager's pre-resolved obs handles. The handles are
// looked up once in Instrument; the hot paths (mk, ITE, the op cache)
// then pay exactly one atomic add per event. All fields may be nil
// (uninstrumented manager), which every obs update method treats as a
// no-op.
type metrics struct {
	uniqueHit, uniqueMiss     *obs.Counter
	iteHit, iteMiss           *obs.Counter
	existsHit, existsMiss     *obs.Counter
	restrictHit, restrictMiss *obs.Counter
	nodesAlloc                *obs.Counter
	limitTrips                *obs.Counter
	budgetTrips               *obs.Counter
	cancels                   *obs.Counter
	peakNodes                 *obs.Gauge
	// col backs the rare-path "bdd.trip" events (budget trip, cancel);
	// nil when uninstrumented. Hot paths never touch it.
	col *obs.Collector
}

// Instrument points the manager's hot-path metrics at the collector
// (nil disables them again). Counter handles are interned by name, so
// managers sharing a collector accumulate into the same metrics:
//
//	bdd.unique.hit / bdd.unique.miss    unique-table (hash-cons) lookups
//	bdd.ite.hit / bdd.ite.miss          ITE operation-cache lookups
//	bdd.exists.hit / bdd.exists.miss    Exists operation-cache lookups
//	bdd.restrict.hit / bdd.restrict.miss  Restrict/Compose cache lookups
//	bdd.nodes.alloc                     decision nodes allocated
//	bdd.limit.trips                     LimitError guard trips
//	bdd.budget.trips                    per-work-item node-budget trips
//	bdd.cancels                         constructions aborted by context
//	bdd.nodes.peak (gauge)              largest arena observed
//
// The operation cache is lossy, so its hit counts depend on its size: a
// result it lost counts a miss and is recomputed, without allocating.
//
// Budget trips and cancels additionally emit a structured "bdd.trip"
// event on the collector (they are rare — at most one per work item),
// so the run timeline shows when and why a construction was cut short.
func (m *Manager) Instrument(c *obs.Collector) {
	if c == nil {
		m.met = metrics{}
		return
	}
	m.met = metrics{
		uniqueHit:    c.Counter("bdd.unique.hit"),
		uniqueMiss:   c.Counter("bdd.unique.miss"),
		iteHit:       c.Counter("bdd.ite.hit"),
		iteMiss:      c.Counter("bdd.ite.miss"),
		existsHit:    c.Counter("bdd.exists.hit"),
		existsMiss:   c.Counter("bdd.exists.miss"),
		restrictHit:  c.Counter("bdd.restrict.hit"),
		restrictMiss: c.Counter("bdd.restrict.miss"),
		nodesAlloc:   c.Counter("bdd.nodes.alloc"),
		limitTrips:   c.Counter("bdd.limit.trips"),
		budgetTrips:  c.Counter("bdd.budget.trips"),
		cancels:      c.Counter("bdd.cancels"),
		peakNodes:    c.Gauge("bdd.nodes.peak"),
		col:          c,
	}
	m.met.peakNodes.SetMax(int64(len(m.nodes)))
}

// DefaultNodeLimit is the node budget of managers created with New.
const DefaultNodeLimit = 8 << 20

// New creates an empty manager with the default node limit.
func New() *Manager { return NewWithLimit(DefaultNodeLimit) }

// NewWithLimit creates an empty manager that will panic with *LimitError
// once its arena holds more than limit nodes.
func NewWithLimit(limit int) *Manager {
	m := &Manager{
		varIdx: map[string]int{},
		unique: make([]Ref, minTableSlots),
		cache:  make([]cacheEntry, minTableSlots),
		limit:  limit,
		subMax: -1,
	}
	// Terminal nodes occupy slots 0 and 1.
	m.nodes = append(m.nodes,
		node{level: terminalLevel},
		node{level: terminalLevel})
	return m
}

// Size returns the number of live nodes in the arena (including the two
// terminals).
func (m *Manager) Size() int { return len(m.nodes) }

// PeakSize returns the largest arena size observed.
func (m *Manager) PeakSize() int {
	if len(m.nodes) > m.peakSize {
		m.peakSize = len(m.nodes)
	}
	return m.peakSize
}

// NumVars returns the number of declared variables.
func (m *Manager) NumVars() int { return len(m.vars) }

// VarName returns the name of the variable at the given level.
func (m *Manager) VarName(level int) string { return m.vars[level] }

// VarLevel returns the level of a declared variable and whether it exists.
func (m *Manager) VarLevel(name string) (int, bool) {
	l, ok := m.varIdx[name]
	return l, ok
}

// Var declares (or retrieves) a variable by name and returns the BDD for
// the literal "name". Declaration order is variable order: earlier
// declarations sit higher in the diagrams. Per the paper's convention the
// D variable must therefore be declared after all primary inputs.
func (m *Manager) Var(name string) Ref {
	if l, ok := m.varIdx[name]; ok {
		return m.mk(int32(l), False, True)
	}
	l := len(m.vars)
	m.vars = append(m.vars, name)
	m.varIdx[name] = l
	return m.mk(int32(l), False, True)
}

// NVar is a shorthand for Not(Var(name)).
func (m *Manager) NVar(name string) Ref { return m.Not(m.Var(name)) }

// Constant returns the terminal for b.
func Constant(b bool) Ref {
	if b {
		return True
	}
	return False
}

// IsConst reports whether f is a terminal node.
func IsConst(f Ref) bool { return f == False || f == True }

// ctxCheckStride is how many node allocations pass between context
// polls: frequent enough that a deadline aborts a blow-up promptly,
// sparse enough that the hot path stays one atomic add per event.
const ctxCheckStride = 1024

// BindContext points the manager at a context. While bound, node
// allocation polls the context every ctxCheckStride nodes and panics
// with *CancelError once it is done; Guard converts that back into the
// context's error. Pass nil to unbind. This is how per-fault deadlines
// reach into the middle of a BDD product.
func (m *Manager) BindContext(ctx context.Context) {
	m.ctx = ctx
	m.ctxStrideN = 0
}

// SetNodeBudget caps how many nodes may be allocated from now on: the
// budget is measured against the arena size at the call, so callers
// reset it per work item (per fault). Exceeding the budget panics with
// *guard.BudgetError (resource "bdd-nodes"); Guard converts it into a
// returned error. A non-positive n removes the budget. The manager's
// hard node limit stays in force independently.
func (m *Manager) SetNodeBudget(n int) {
	if n <= 0 {
		m.budget = 0
		return
	}
	m.budget = n
	m.budgetMark = len(m.nodes)
}

// checkGuards enforces the per-work-item budget and bound context on the
// allocation path (the only place unbounded growth can happen).
func (m *Manager) checkGuards() {
	if m.budget > 0 && len(m.nodes)-m.budgetMark >= m.budget {
		m.met.budgetTrips.Inc()
		// Trips are rare (at most one per work item) so the structured
		// event — visible on /events and in the run report timeline — is
		// affordable here, unlike on the allocation fast path.
		m.met.col.Event("bdd.trip", "budget",
			obs.Int("limit", int64(m.budget)),
			obs.Int("nodes", int64(len(m.nodes)-m.budgetMark)))
		panic(&guard.BudgetError{Resource: "bdd-nodes", Limit: int64(m.budget)})
	}
	if m.ctx != nil {
		m.ctxStrideN++
		if m.ctxStrideN >= ctxCheckStride {
			m.ctxStrideN = 0
			if err := m.ctx.Err(); err != nil {
				m.met.cancels.Inc()
				m.met.col.Event("bdd.trip", "cancel", obs.Str("cause", err.Error()))
				panic(&CancelError{Cause: err})
			}
		}
	}
}

// mk returns the canonical node (level, lo, hi), applying the reduction
// rules (no redundant tests, hash consing).
func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	mask := uint32(len(m.unique) - 1)
	i := hashKey(0, Ref(level), lo, hi) & mask
	for ; m.unique[i] != 0; i = (i + 1) & mask {
		r := m.unique[i]
		if n := m.nodes[r]; n.level == level && n.lo == lo && n.hi == hi {
			m.met.uniqueHit.Inc()
			return r
		}
	}
	m.met.uniqueMiss.Inc()
	m.checkGuards()
	if len(m.nodes) >= m.limit {
		m.met.limitTrips.Inc()
		panic(&LimitError{Limit: m.limit})
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, node{level: level, lo: lo, hi: hi})
	m.unique[i] = r
	m.met.nodesAlloc.Inc()
	if len(m.nodes) > m.peakSize {
		m.peakSize = len(m.nodes)
		m.met.peakNodes.SetMax(int64(m.peakSize))
	}
	if 2*len(m.nodes) > len(m.unique) {
		m.growUnique()
	}
	if len(m.nodes) > len(m.cache) && len(m.cache) < maxCacheSlots {
		m.growCache()
	}
	return r
}

// growUnique doubles the unique table and reinserts every decision node.
func (m *Manager) growUnique() {
	m.unique = make([]Ref, 2*len(m.unique))
	mask := uint32(len(m.unique) - 1)
	for r := Ref(2); int(r) < len(m.nodes); r++ {
		n := m.nodes[r]
		i := hashKey(0, Ref(n.level), n.lo, n.hi) & mask
		for m.unique[i] != 0 {
			i = (i + 1) & mask
		}
		m.unique[i] = r
	}
}

// growCache doubles the computed cache. An entry's new slot is its old
// one or the old one plus the old size, so no two entries collide and
// none is lost.
func (m *Manager) growCache() {
	old := m.cache
	m.cache = make([]cacheEntry, 2*len(old))
	mask := uint32(len(m.cache) - 1)
	for _, e := range old {
		if e.op != 0 {
			m.cache[hashKey(e.op, e.a, e.b, e.c)&mask] = e
		}
	}
}

// lookup returns the cached result of op(a, b, c), whose hashKey is h.
func (m *Manager) lookup(h, op uint32, a, b, c Ref) (Ref, bool) {
	e := &m.cache[h&uint32(len(m.cache)-1)]
	if e.op == op && e.a == a && e.b == b && e.c == c {
		return e.r, true
	}
	return False, false
}

// store caches r = op(a, b, c), whose hashKey is h, evicting the slot's
// previous entry.
func (m *Manager) store(h, op uint32, a, b, c, r Ref) {
	m.cache[h&uint32(len(m.cache)-1)] = cacheEntry{op: op, a: a, b: b, c: c, r: r}
}

func (m *Manager) level(f Ref) int32 { return m.nodes[f].level }

// ITE computes if-then-else(f, g, h), the universal binary/ternary BDD
// operator.
func (m *Manager) ITE(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	key := hashKey(opITE, f, g, h)
	if r, ok := m.lookup(key, opITE, f, g, h); ok {
		m.met.iteHit.Inc()
		return r
	}
	m.met.iteMiss.Inc()
	// Split on the top variable of the three operands.
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	lo := m.ITE(f0, g0, h0)
	hi := m.ITE(f1, g1, h1)
	r := m.mk(top, lo, hi)
	m.store(key, opITE, f, g, h, r)
	return r
}

// cofactors returns (f|var=0, f|var=1) for the variable at the given
// level, assuming level <= level(f).
func (m *Manager) cofactors(f Ref, level int32) (lo, hi Ref) {
	n := m.nodes[f]
	if n.level != level {
		return f, f
	}
	return n.lo, n.hi
}

// Not returns ¬f.
func (m *Manager) Not(f Ref) Ref { return m.ITE(f, False, True) }

// And returns f ∧ g.
func (m *Manager) And(f, g Ref) Ref { return m.ITE(f, g, False) }

// Or returns f ∨ g.
func (m *Manager) Or(f, g Ref) Ref { return m.ITE(f, True, g) }

// Xor returns f ⊕ g.
func (m *Manager) Xor(f, g Ref) Ref { return m.ITE(f, m.Not(g), g) }

// Xnor returns ¬(f ⊕ g).
func (m *Manager) Xnor(f, g Ref) Ref { return m.ITE(f, g, m.Not(g)) }

// Implies returns f → g.
func (m *Manager) Implies(f, g Ref) Ref { return m.ITE(f, g, True) }

// Nand returns ¬(f ∧ g).
func (m *Manager) Nand(f, g Ref) Ref { return m.Not(m.And(f, g)) }

// Nor returns ¬(f ∨ g).
func (m *Manager) Nor(f, g Ref) Ref { return m.Not(m.Or(f, g)) }

// AndN folds And over its operands; AndN() = True.
func (m *Manager) AndN(fs ...Ref) Ref {
	acc := True
	for _, f := range fs {
		acc = m.And(acc, f)
		if acc == False {
			return False
		}
	}
	return acc
}

// OrN folds Or over its operands; OrN() = False.
func (m *Manager) OrN(fs ...Ref) Ref {
	acc := False
	for _, f := range fs {
		acc = m.Or(acc, f)
		if acc == True {
			return True
		}
	}
	return acc
}

// Restrict returns f with the named variable fixed to val.
func (m *Manager) Restrict(f Ref, name string, val bool) Ref {
	l, ok := m.varIdx[name]
	if !ok {
		return f
	}
	return m.restrictLevel(f, int32(l), val)
}

func (m *Manager) restrictLevel(f Ref, level int32, val bool) Ref {
	n := m.nodes[f]
	if n.level > level { // terminals sit below every level
		return f
	}
	if n.level == level {
		if val {
			return n.hi
		}
		return n.lo
	}
	sel := Constant(val)
	key := hashKey(opRestrict, f, Ref(level), sel)
	if r, ok := m.lookup(key, opRestrict, f, Ref(level), sel); ok {
		m.met.restrictHit.Inc()
		return r
	}
	m.met.restrictMiss.Inc()
	r := m.mk(n.level,
		m.restrictLevel(n.lo, level, val),
		m.restrictLevel(n.hi, level, val))
	m.store(key, opRestrict, f, Ref(level), sel, r)
	return r
}

// noSub marks a level Compose leaves in place.
const noSub Ref = -1

// Compose substitutes gs[i] for the variable names[i] inside f, all in
// one pass over f. The substitution is simultaneous: a gs[i] that
// mentions a substituted variable keeps that variable. Names the manager
// has not declared are ignored, and a repeated name takes its last g.
func (m *Manager) Compose(f Ref, names []string, gs []Ref) Ref {
	if len(names) != len(gs) {
		//lint:allow nopanic length mismatch is a caller bug
		panic(fmt.Sprintf("bdd: Compose of %d names with %d functions", len(names), len(gs)))
	}
	m.bindSubst(names, gs)
	return m.compose(f)
}

// bindSubst makes (names, gs) Compose's substitution and starts a new
// cache epoch, so no entry of an earlier call can match.
func (m *Manager) bindSubst(names []string, gs []Ref) {
	m.sub = m.sub[:0]
	for range m.vars {
		m.sub = append(m.sub, noSub)
	}
	m.subMax = -1
	for i, name := range names {
		if l, ok := m.varIdx[name]; ok {
			m.sub[l] = gs[i]
			m.subMax = max(m.subMax, int32(l))
		}
	}
	m.subEpoch++
	if m.subEpoch == 0 {
		// The epoch wrapped: entries of an old substitution could match.
		clear(m.cache)
	}
}

func (m *Manager) compose(f Ref) Ref {
	n := m.nodes[f]
	if n.level > m.subMax { // no substituted variable at or below f's top
		return f
	}
	epoch := Ref(m.subEpoch)
	key := hashKey(opCompose, f, epoch, False)
	if r, ok := m.lookup(key, opCompose, f, epoch, False); ok {
		m.met.restrictHit.Inc()
		return r
	}
	m.met.restrictMiss.Inc()
	lo := m.compose(n.lo)
	hi := m.compose(n.hi)
	g := m.sub[n.level]
	if g == noSub {
		g = m.mk(n.level, False, True)
	}
	r := m.ITE(g, hi, lo)
	m.store(key, opCompose, f, epoch, False, r)
	return r
}

// Exists existentially quantifies the named variable out of f.
func (m *Manager) Exists(f Ref, name string) Ref {
	l, ok := m.varIdx[name]
	if !ok || m.level(f) > int32(l) {
		return f
	}
	key := hashKey(opExists, f, Ref(l), False)
	if r, ok := m.lookup(key, opExists, f, Ref(l), False); ok {
		m.met.existsHit.Inc()
		return r
	}
	m.met.existsMiss.Inc()
	r := m.Or(m.restrictLevel(f, int32(l), false), m.restrictLevel(f, int32(l), true))
	m.store(key, opExists, f, Ref(l), False, r)
	return r
}

// ExistsAll quantifies a set of variables out of f.
func (m *Manager) ExistsAll(f Ref, names []string) Ref {
	for _, n := range names {
		f = m.Exists(f, n)
	}
	return f
}

// Forall universally quantifies the named variable out of f.
func (m *Manager) Forall(f Ref, name string) Ref {
	return m.Not(m.Exists(m.Not(f), name))
}

// BooleanDifference returns ∂f/∂x = f|x=0 ⊕ f|x=1, the classic test-
// generation propagation condition used throughout the paper.
func (m *Manager) BooleanDifference(f Ref, name string) Ref {
	return m.Xor(m.Restrict(f, name, false), m.Restrict(f, name, true))
}

// Support returns the sorted names of the variables f depends on. This is
// the query the paper uses to decide whether a composite value D reached a
// primary output ("if the OBDD generated contains D, the fault can be
// tested").
func (m *Manager) Support(f Ref) []string {
	seen := map[Ref]bool{}
	levels := map[int32]bool{}
	var walk func(Ref)
	walk = func(r Ref) {
		if IsConst(r) || seen[r] {
			return
		}
		seen[r] = true
		n := m.nodes[r]
		levels[n.level] = true
		walk(n.lo)
		walk(n.hi)
	}
	walk(f)
	var names []string
	for l := range levels {
		names = append(names, m.vars[l])
	}
	sort.Strings(names)
	return names
}

// DependsOn reports whether f depends on the named variable.
func (m *Manager) DependsOn(f Ref, name string) bool {
	l, ok := m.varIdx[name]
	if !ok {
		return false
	}
	target := int32(l)
	seen := map[Ref]bool{}
	var walk func(Ref) bool
	walk = func(r Ref) bool {
		if IsConst(r) || seen[r] || m.level(r) > target {
			return false
		}
		seen[r] = true
		n := m.nodes[r]
		if n.level == target {
			return true
		}
		return walk(n.lo) || walk(n.hi)
	}
	return walk(f)
}

// NodeCount returns the number of distinct decision nodes in f (terminals
// excluded).
func (m *Manager) NodeCount(f Ref) int {
	seen := map[Ref]bool{}
	var walk func(Ref)
	walk = func(r Ref) {
		if IsConst(r) || seen[r] {
			return
		}
		seen[r] = true
		walk(m.nodes[r].lo)
		walk(m.nodes[r].hi)
	}
	walk(f)
	return len(seen)
}

// Eval evaluates f under the assignment; variables absent from the map
// default to false.
func (m *Manager) Eval(f Ref, assign map[string]bool) bool {
	for !IsConst(f) {
		n := m.nodes[f]
		if assign[m.vars[n.level]] {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == True
}

// Guard runs fn, converting the manager's controlled aborts — node-limit
// and node-budget trips, and context cancellation — into returned
// errors. Any other panic is re-raised: Guard narrows the abort channel,
// it does not hide bugs (full panic isolation is guard.Do's job).
func Guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			switch e := r.(type) {
			case *LimitError:
				err = e
			case *guard.BudgetError:
				err = e
			case *CancelError:
				err = e
			default:
				panic(r)
			}
		}
	}()
	return fn()
}
