package atpg

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"

	"repro/internal/bdd"
	"repro/internal/faults"
	"repro/internal/guard"
	"repro/internal/logic"
	"repro/internal/obs"
)

// FaultyOutputsSet recomputes the output functions with every fault of
// the set injected simultaneously — the model of one sequential stuck-at
// fault in a time-frame-expanded circuit, where the same physical line is
// stuck in every frame.
func (g *Generator) FaultyOutputsSet(fs []faults.Fault) map[logic.SigID]bdd.Ref {
	faulty := map[logic.SigID]bdd.Ref{}
	inCone := map[logic.SigID]bool{}
	branchForce := map[[2]logic.SigID]bdd.Ref{}
	for _, f := range fs {
		forced := bdd.Constant(f.Value)
		if f.Consumer < 0 {
			faulty[f.Signal] = forced
			for id := range g.c.Cone(f.Signal) {
				inCone[id] = true
			}
		} else {
			branchForce[[2]logic.SigID{f.Signal, f.Consumer}] = forced
			for id := range g.c.Cone(f.Consumer) {
				inCone[id] = true
			}
		}
	}
	// Re-evaluate every cone member in topological order. Stem-forced
	// signals keep their constant; everything else is recomputed from
	// (possibly faulty, possibly branch-forced) fanins.
	stemForced := map[logic.SigID]bool{}
	for _, f := range fs {
		if f.Consumer < 0 {
			stemForced[f.Signal] = true
		}
	}
	for _, id := range g.c.TopoOrder() {
		if !inCone[id] || stemForced[id] {
			continue
		}
		s := g.c.Signal(id)
		fanins := make([]bdd.Ref, len(s.Fanin))
		for i, fi := range s.Fanin {
			if forced, ok := branchForce[[2]logic.SigID{fi, id}]; ok {
				fanins[i] = forced
			} else if fv, ok := faulty[fi]; ok {
				fanins[i] = fv
			} else {
				fanins[i] = g.good[fi]
			}
		}
		faulty[id] = g.gateBDD(s.Type, fanins)
	}
	out := map[logic.SigID]bdd.Ref{}
	for _, o := range g.c.Outputs() {
		if fv, ok := faulty[o]; ok {
			out[o] = fv
		}
	}
	return out
}

// TestFunctionSet returns the constrained test function for a multi-site
// fault (all sites active at once): S = Fc · Σ_o (F_o ⊕ F_o^faulty).
// The sum runs in output order, so the BDD work it does (and the nodes it
// allocates) repeats exactly from run to run.
func (g *Generator) TestFunctionSet(fs []faults.Fault) bdd.Ref {
	fo := g.FaultyOutputsSet(fs)
	s := bdd.False
	for _, o := range g.c.Outputs() {
		fv, ok := fo[o]
		if !ok {
			continue
		}
		diff := g.m.Xor(g.good[o], fv)
		s = g.m.Or(s, g.m.And(g.constraint, diff))
		if s == g.constraint && g.constraint != bdd.False {
			break
		}
	}
	return s
}

// GenerateVectorSet produces one vector detecting the multi-site fault,
// or ok=false when it is untestable under the active constraint.
func (g *Generator) GenerateVectorSet(fs []faults.Fault) (faults.Vector, bool) {
	s := g.TestFunctionSet(fs)
	assign, ok := g.m.SatOneConstrained(s, g.inputNames)
	if !ok {
		return nil, false
	}
	return faults.VectorFromAssignment(g.c, assign), true
}

// FrameFaults maps one stuck-at fault of a sequential circuit's core onto
// the corresponding fault set of its unrolled expansion: the same line,
// stuck in every time frame. The unrolled circuit must come from
// SeqCircuit.Unroll with the given frame count.
func FrameFaults(seq *logic.SeqCircuit, unrolled *logic.Circuit, f faults.Fault, frames int) ([]faults.Fault, error) {
	var out []faults.Fault
	for t := 0; t < frames; t++ {
		if ff, ok := frameFault(seq, unrolled, f, t); ok {
			out = append(out, ff)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("atpg: fault %s has no site in the unrolled circuit", f.Name(seq.Core))
	}
	return out, nil
}

// frameFault maps one core fault into time frame t of the unrolled
// circuit. ok is false when the line does not exist in that frame
// (frame-0 state inputs may be constants; a fault on a constant-replaced
// state line only exists from frame 1 on).
func frameFault(seq *logic.SeqCircuit, unrolled *logic.Circuit, f faults.Fault, t int) (faults.Fault, bool) {
	name := seq.Core.Signal(f.Signal).Name
	sid, ok := unrolled.SigByName(logic.FrameName(name, t))
	if !ok {
		return faults.Fault{}, false
	}
	ff := faults.Fault{Signal: sid, Consumer: -1, Value: f.Value}
	if f.Consumer >= 0 {
		cid, ok := unrolled.SigByName(logic.FrameName(seq.Core.Signal(f.Consumer).Name, t))
		if !ok {
			return faults.Fault{}, false
		}
		ff.Consumer = cid
	}
	return ff, true
}

// SequentialResult summarises a time-frame-expanded ATPG run.
type SequentialResult struct {
	Frames     int
	Total      int
	Detected   int
	Untestable []faults.Fault // in core coordinates
	Aborted    []faults.Fault // panic or budget trip while unrolling the cone
	TimedOut   []faults.Fault // per-fault or run deadline expired
	Vectors    []faults.Vector
}

// RunSequential generates tests for every core fault of the sequential
// circuit using time-frame expansion with the given frame count and
// initial state. Faults still untestable at this depth are reported (a
// larger frame count may detect them).
//
// The run is traced on obs.Default (the generator's collector) as one
// causal tree: an "atpg.seq.run" span over the whole run with child
// spans "atpg.seq.unroll" (the expansion), one "atpg.seq.frame" per
// time frame (fault-site mapping) and one "atpg.seq.fault" per targeted
// core fault, plus one "seq.fault" event per core fault with its
// outcome and site count.
func RunSequential(seq *logic.SeqCircuit, fs []faults.Fault, frames int, initial map[string]bool) (*SequentialResult, error) {
	return RunSequentialCtx(context.Background(), seq, fs, frames, initial, guard.Limits{})
}

// RunSequentialCtx is RunSequential under the hardened execution layer:
// each core fault's frame sites are solved together by the same guarded
// solve as a combinational fault of Run, with the per-fault deadline,
// BDD node budget and retry policy from limits, so a deadline expiring
// in the middle of a time-frame-expanded cone aborts that fault (it
// lands in TimedOut) instead of hanging the run, and a panic or budget
// trip lands in Aborted. The per-fault work is the "atpg.seq.fault"
// chaos site. Unlike Run there is no fault dropping: every core fault
// is targeted, one vector each.
func RunSequentialCtx(ctx context.Context, seq *logic.SeqCircuit, fs []faults.Fault, frames int, initial map[string]bool, limits guard.Limits) (*SequentialResult, error) {
	col := obs.Default
	runSpan, ctx := col.StartSpanCtx(ctx, "atpg.seq.run")
	defer runSpan.End()
	runCtx, cancelRun := limits.WithRunContext(ctx)
	defer cancelRun()
	unrollSpan, _ := col.StartSpanCtx(runCtx, "atpg.seq.unroll")
	unrolled, err := seq.Unroll(frames, initial)
	unrollSpan.End()
	if err != nil {
		return nil, err
	}
	g, err := New(unrolled)
	if err != nil {
		return nil, err
	}
	// Map every core fault into each time frame, one span per frame —
	// the per-timeframe cost shows up directly in the trace.
	sites := make([][]faults.Fault, len(fs))
	for t := 0; t < frames; t++ {
		frameSpan, frameCtx := col.StartSpanCtx(runCtx, "atpg.seq.frame")
		// frame= labels CPU samples per time frame, so a profile shows
		// which frame of the expansion the mapping cost lands in.
		pprof.Do(frameCtx, pprof.Labels("phase", "seq.map", "frame", strconv.Itoa(t)), func(context.Context) {
			for fi, f := range fs {
				if ff, ok := frameFault(seq, unrolled, f, t); ok {
					sites[fi] = append(sites[fi], ff)
				}
			}
		})
		frameSpan.End()
	}
	res := &SequentialResult{Frames: frames, Total: len(fs)}
	for fi, f := range fs {
		name := f.Name(seq.Core)
		if len(sites[fi]) == 0 {
			res.Untestable = append(res.Untestable, f)
			col.Event("seq.fault", name,
				obs.Str("outcome", "no-site"), obs.Int("frames", int64(frames)))
			continue
		}
		att := g.solveFault(runCtx, limits, sequentialSolve, name, sites[fi])
		if !att.out.OK() {
			_, outcome := degraded(att.out.Class)
			if att.out.Class == guard.TimedOut {
				res.TimedOut = append(res.TimedOut, f)
			} else {
				res.Aborted = append(res.Aborted, f)
			}
			col.EventSince("seq.fault", name, att.start,
				obs.Str("outcome", outcome), obs.Str("reason", att.out.Reason),
				obs.Int("frames", int64(frames)))
			continue
		}
		if !att.ok {
			res.Untestable = append(res.Untestable, f)
			col.EventSince("seq.fault", name, att.start,
				obs.Str("outcome", "untestable"),
				obs.Int("frames", int64(frames)), obs.Int("sites", int64(len(sites[fi]))))
			continue
		}
		res.Detected++
		res.Vectors = append(res.Vectors, att.v)
		col.EventSince("seq.fault", name, att.start,
			obs.Str("outcome", "tested"),
			obs.Int("frames", int64(frames)), obs.Int("sites", int64(len(sites[fi]))),
			obs.Str("vector", att.v.String()))
	}
	return res, nil
}
