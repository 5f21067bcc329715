package atpg

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/bdd"
	"repro/internal/faults"
	"repro/internal/guard"
	"repro/internal/guard/chaos"
	"repro/internal/logic"
	"repro/internal/obs"
)

// shardRoundFaults is how many targeted solves one shard performs
// between barriers in the deterministic phase. Larger values amortise
// the barrier (and average out per-fault solve-latency skew between
// shards); smaller values exchange vectors sooner, so cross-shard drops
// prune more redundant solves. 4 is a measured balance on the ISCAS
// workloads.
const shardRoundFaults = 4

// WithWorkers selects the shard count for RunParallel: the collapsed
// fault list is partitioned round-robin across n worker shards, each
// owning its own Generator and BDD manager — the unique/computed tables
// are not goroutine-safe, so the runtime partitions state instead of
// locking it. Values below 2 run one shard, which is (*Generator).Run:
// the same coordinator, rounds and chaos.SiteATPGShard boundary, so
// atpg.shard.workers reads 1 and atpg.shard.vectors_exchanged counts.
// (*Generator).Run ignores this option.
func WithWorkers(n int) RunOption {
	return func(c *runConfig) { c.workers = n }
}

// WithShardSetup registers a hook run on every freshly built shard
// generator before it receives work — the place to rebuild state that
// must live on the shard's own BDD manager, such as the constraint
// function Fc:
//
//	atpg.WithShardSetup(func(g *atpg.Generator) error {
//		g.SetConstraint(conv.ConstraintBDD(g.Manager(), binding))
//		return nil
//	})
//
// A setup error kills that shard (its faults become typed aborts, all
// of them at one worker); it does not kill the run.
func WithShardSetup(fn func(*Generator) error) RunOption {
	return func(c *runConfig) { c.shardSetup = fn }
}

// WithShardOptions forwards Generator construction options (node limit,
// variable order, collector) to every shard RunParallel builds. A
// WithCollector among them names the run's root collector, which
// records every outcome the coordinator commits as it commits it. With
// two or more workers each shard's own work (its spans and its guard,
// BDD and fault-simulation counters) runs on a child lane minted from
// the root with NewChild("shardN"), and the lanes merge back into the
// root when the run completes; a single shard records on the root
// directly.
func WithShardOptions(opts ...Option) RunOption {
	return func(c *runConfig) { c.shardOpts = opts }
}

// oneShard is the per-worker state of a run. The coordinator owns
// pending, dead and rounds; gen and sim are used by the shard's
// goroutine between barriers.
type oneShard struct {
	id    int
	track string
	col   *obs.Collector
	gen   *Generator
	sim   *faults.Simulator

	// pending holds the shard's unclassified fault indices, ascending.
	pending []int
	rounds  int
	dead    bool
	deadOut guard.Outcome
}

// broadcast is one vector crossing the shard boundary: the vector and
// the label drops are attributed to.
type broadcast struct {
	v      faults.Vector
	origin string
}

// randomPhase draws the shard's slice of the run's random-vector budget
// from a shard-local rng and keeps the vectors that detect at least one
// of the shard's own pending faults (screening is shard-local; the
// coordinator re-simulates kept vectors globally at the barrier, so
// cross-shard drops are applied deterministically). The per-shard seed
// is derived from the run seed and the shard id, so the vector stream is
// reproducible and distinct per shard.
//
// Draws are simulated 64 at a time, with ctx checked between chunks. A
// draw is kept exactly when it is the first in draw order to detect some
// pending fault — the vectors a one-draw-at-a-time loop with fault
// dropping keeps — so memory and cancel latency stay bounded however
// large n is.
func (sh *oneShard) randomPhase(ctx context.Context, fs []faults.Fault, n int, seed int64) []faults.Vector {
	var kept []faults.Vector
	span, ctx := sh.col.StartSpanCtx(ctx, "atpg.random_phase")
	g := sh.gen
	rng := rand.New(rand.NewSource(seed))
	nIn := len(g.c.Inputs())
	rem := make([]faults.Fault, len(sh.pending))
	for j, i := range sh.pending {
		rem[j] = fs[i]
	}
	pprof.Do(ctx, pprof.Labels("phase", "random"), func(ctx context.Context) {
		chunk := make([]faults.Vector, 0, 64)
		first := make([]bool, 64)
		for k := 0; k < n && len(rem) > 0 && ctx.Err() == nil; {
			chunk = chunk[:0]
			for end := min(k+64, n); k < end; k++ {
				v := make(faults.Vector, nIn)
				for i := range v {
					v[i] = rng.Intn(2) == 1
				}
				// Only patterns satisfying Fc may be applied.
				if g.constraint == bdd.True || g.m.Eval(g.constraint, v.Assignment(g.c)) {
					chunk = append(chunk, v)
				}
			}
			// Keep the faults the chunk misses, in place: det is
			// computed first.
			det := sh.sim.Detect(chunk, rem)
			still := 0
			for j, d := range det {
				if d < 0 {
					rem[still] = rem[j]
					still++
				} else {
					first[d] = true
				}
			}
			rem = rem[:still]
			for b, v := range chunk {
				if first[b] {
					kept = append(kept, v)
					first[b] = false
				}
			}
		}
	})
	span.End()
	return kept
}

// RunParallel is the sharded parallel form of (*Generator).Run: it
// partitions fs round-robin across WithWorkers(n) shards, builds one
// Generator (own BDD manager, own collector lane) per shard, and runs
// the deterministic phase in rounds — each live shard solves up to
// shardRoundFaults of its lowest pending faults concurrently, the
// results cross a bounded channel to the coordinator, and the
// coordinator commits them serially in shard-id order, broadcasting
// every discovered vector so cross-shard fault dropping prunes each
// shard's remaining queue.
//
// There is one coordinator: n ≤ 1 runs it with a single shard, which is
// exactly (*Generator).Run on a generator built from WithShardOptions
// and WithShardSetup — the same vectors in the same order. At every
// worker count the coordinator records each outcome on the root
// collector as it commits it, so a live view of the root follows the
// run while it is in flight.
//
// Determinism contract: for a fixed seed, the coverage, the untestable
// classification and the per-fault detected set are identical for every
// worker count (untestability is intrinsic to a fault, and every
// testable fault is detected); and for a fixed worker count, the full
// Result and the merged collector snapshot are identical across repeated
// runs. The tested-versus-dropped split — and therefore the exact vector
// count — may differ between worker counts, because shards target faults
// concurrently that a single shard would have dropped first.
//
// Result slices are assembled in stable fault-index order. A worker
// death (panic, chaos injection at chaos.SiteATPGShard, a failed shard
// setup, deadline) kills only that shard: its pending faults degrade to
// typed aborts or timeouts at the end of the run — after the surviving
// shards' vectors had the chance to drop them — and the run still
// returns normally. With one worker that is every remaining fault. The
// error result is always nil; it is kept for callers' signatures.
func RunParallel(c *logic.Circuit, fs []faults.Fault, opts ...RunOption) (*Result, error) {
	cfg := newRunConfig(opts)
	// The root collector is whatever WithShardOptions' WithCollector
	// named (obs.Default otherwise).
	gcfg := config{}
	for _, o := range cfg.shardOpts {
		o(&gcfg)
	}
	root := gcfg.collector
	if !gcfg.collectorSet {
		root = obs.Default
	}
	return runShards(c, fs, cfg, root, max(min(cfg.workers, len(fs)), 1), nil), nil
}

// runShards is the one ATPG coordinator behind Run and RunParallel. own
// is the caller's generator when Run drives it as the single shard, nil
// when every shard builds its own from cfg.shardOpts and cfg.shardSetup.
// Everything the coordinator commits — fault and shard events, the fault
// tallies, vectors and latencies — it records on root, serially and in
// commit order. With more than one shard each shard's own work runs on a
// child lane of root, merged back at the end; a single shard records on
// root itself.
func runShards(c *logic.Circuit, fs []faults.Fault, cfg runConfig, root *obs.Collector, workers int, own *Generator) *Result {
	start := time.Now()
	runCtx, cancelRun := cfg.limits.WithRunContext(cfg.ctx)
	defer cancelRun()
	// The run span goes into the context so phase and per-fault spans
	// below — and any caller-side span already in cfg.ctx — chain into
	// one causal tree.
	runSpan, runCtx := root.StartSpanCtx(runCtx, "atpg.run")
	root.Gauge("atpg.shard.workers").Set(int64(workers))
	root.Counter("atpg.faults.total").Add(int64(len(fs)))
	cExchanged := root.Counter("atpg.shard.vectors_exchanged")
	cShardAborts := root.Counter("atpg.shard.aborts")
	cDetected := root.Counter("atpg.faults.detected")
	cDropped := root.Counter("atpg.faults.dropped")
	cUntestable := root.Counter("atpg.faults.untestable")
	cVectors := root.Counter("atpg.vectors")
	hLatency := root.Histogram("atpg.fault.latency_ns")
	// cDegraded is indexed by the state degraded returns.
	cDegraded := [5]*obs.Counter{3: root.Counter("atpg.faults.aborted"), 4: root.Counter("atpg.faults.timedout")}

	res := &Result{Total: len(fs)}
	// state: 0 = pending, 1 = detected, 2 = untestable, 3 = aborted,
	// 4 = timed out. classByFault mirrors the outcomes this run computed
	// itself (restore fills state only), so the final assembly can emit
	// Untestable/Aborted/TimedOut in fault-index order without
	// re-appending restored entries.
	state := make([]byte, len(fs))
	classByFault := make([]byte, len(fs))
	vecByFault := make([]faults.Vector, len(fs))

	// The coordinator restores the checkpoint centrally, before
	// partitioning: only still-pending faults are sharded out, so a
	// resumed run re-partitions cleanly under any -workers value.
	restoreFromCheckpoint(cfg.checkpoint, c, fs, state, res, root)

	// ckpt records one completed fault; checkpoint I/O failures are
	// counted, not fatal — losing a checkpoint must not kill the run.
	ckpt := func(key, outcome, vector string) {
		if cfg.checkpoint == nil {
			return
		}
		if err := cfg.checkpoint.Put(guard.Record{Key: key, Outcome: outcome, Vector: vector}); err != nil {
			root.Counter("atpg.checkpoint.errors").Inc()
		}
	}
	// onShard returns a fault event's attrs, plus — with two or more
	// workers — the shard lane the fault belonged to, since the event
	// itself is recorded on root.
	onShard := func(sh *oneShard, attrs ...obs.Attr) []obs.Attr {
		if workers > 1 {
			attrs = append(attrs, obs.Str("shard", sh.track))
		}
		return attrs
	}

	// Mint the shard lanes serially, in shard-id order, before any
	// goroutine exists: NewChild lane numbers are allocation-ordered, so
	// this keeps span ids — and the merged trace — reproducible.
	trackPrefix := ""
	if rt := root.Track(); rt != "" {
		trackPrefix = rt + "/"
	}
	shards := make([]*oneShard, workers)
	for i := range shards {
		sh := &oneShard{id: i, track: fmt.Sprintf("%sshard%d", trackPrefix, i), col: root}
		if workers > 1 {
			sh.col = root.NewChild(sh.track)
		}
		shards[i] = sh
	}
	shards[0].gen = own
	for i := range fs {
		if state[i] == 0 {
			sh := shards[i%workers]
			sh.pending = append(sh.pending, i)
		}
	}

	// Start every shard concurrently — building a generator touches only
	// its own manager. A failed or chaos-killed start marks the shard
	// dead instead of killing the run.
	var wg sync.WaitGroup
	for _, sh := range shards {
		wg.Add(1)
		go func(sh *oneShard) {
			defer wg.Done()
			out := guard.Do(runCtx, sh.col, func(ctx context.Context) error {
				if err := chaos.Step(ctx, chaos.SiteATPGShard, sh.track); err != nil {
					return err
				}
				if sh.gen == nil {
					gopts := append(append([]Option(nil), cfg.shardOpts...), WithCollector(sh.col))
					g, err := New(c, gopts...)
					if err != nil {
						return err
					}
					if cfg.shardSetup != nil {
						if err := cfg.shardSetup(g); err != nil {
							return err
						}
					}
					sh.gen = g
				}
				sh.sim = faults.NewSimulator(c)
				sh.sim.Instrument(sh.col)
				return nil
			})
			if out.Class != guard.OK {
				sh.dead = true
				sh.deadOut = out
			}
		}(sh)
	}
	wg.Wait()
	for _, sh := range shards {
		if sh.dead {
			cShardAborts.Inc()
			root.Event("shard", sh.track,
				obs.Str("outcome", "dead"), obs.Str("reason", sh.deadOut.Reason))
		}
	}

	// applyBatch is the bounded cross-shard vector exchange: the batch of
	// discovered vectors (in deterministic shard order) is broadcast to
	// every shard, each shard fault-simulates it against its own pending
	// faults concurrently, and the coordinator then commits the
	// detections serially in shard-id, fault-index order. Each detection
	// is credited to the first vector in batch order, so the outcome is a
	// pure function of the inputs, independent of goroutine scheduling.
	// Faults in targets get their own "tested" event from the caller and
	// are only marked here; every other detection is a drop, or a random
	// hit when markRandom. Returns per-vector hit counts.
	coordSim := faults.NewSimulator(c)
	coordSim.Instrument(root)
	applyBatch := func(batch []broadcast, targets map[int]bool, markRandom bool) []int {
		hits := make([]int, len(batch))
		if len(batch) == 0 {
			return hits
		}
		vecs := make([]faults.Vector, len(batch))
		for b, e := range batch {
			vecs[b] = e.v
		}
		type shardDet struct {
			idx []int // fault indices, ascending
			det []int // per fault: first detecting batch vector, or -1
		}
		dets := make([]shardDet, workers)
		var dwg sync.WaitGroup
		for _, sh := range shards {
			var idx []int
			for _, i := range sh.pending {
				if state[i] == 0 {
					idx = append(idx, i)
				}
			}
			if len(idx) == 0 {
				continue
			}
			rem := make([]faults.Fault, len(idx))
			for j, i := range idx {
				rem[j] = fs[i]
			}
			if sh.sim == nil {
				// The shard died before it built a simulator; its faults
				// still receive cross-shard drops, on the coordinator's.
				dets[sh.id] = shardDet{idx: idx, det: coordSim.Detect(vecs, rem)}
				continue
			}
			dwg.Add(1)
			go func(id int, sim *faults.Simulator, idx []int, rem []faults.Fault) {
				defer dwg.Done()
				dets[id] = shardDet{idx: idx, det: sim.Detect(vecs, rem)}
			}(sh.id, sh.sim, idx, rem)
		}
		dwg.Wait()
		outcome := "dropped"
		if markRandom {
			outcome = "random"
		}
		for _, sh := range shards {
			d := dets[sh.id]
			for j, b := range d.det {
				if b < 0 {
					continue
				}
				i := d.idx[j]
				state[i] = 1
				res.Detected++
				hits[b]++
				cDetected.Inc()
				if targets[i] {
					continue
				}
				if markRandom {
					res.RandomHits++
				} else {
					cDropped.Inc()
				}
				name := fs[i].Name(c)
				root.Event("fault", name,
					obs.Str("outcome", outcome), obs.Str("by", batch[b].origin))
				ckpt(name, outcome, "")
			}
		}
		return hits
	}

	// Optional random phase: each shard draws its slice of the vector
	// budget against its own pending faults in parallel; the coordinator
	// then commits the kept vectors serially in (shard, k) order,
	// broadcasting each across the shard boundary.
	if cfg.randomVectors > 0 {
		phaseHits := res.RandomHits
		kept := make([][]faults.Vector, workers)
		per, extra := cfg.randomVectors/workers, cfg.randomVectors%workers
		for _, sh := range shards {
			n := per
			if sh.id < extra {
				n++
			}
			if sh.dead || len(sh.pending) == 0 || n == 0 {
				continue
			}
			wg.Add(1)
			go func(sh *oneShard, n int) {
				defer wg.Done()
				kept[sh.id] = sh.randomPhase(runCtx, fs, n, cfg.randomSeed+int64(sh.id))
			}(sh, n)
		}
		wg.Wait()
		var batch []broadcast
		for _, sh := range shards {
			for k, v := range kept[sh.id] {
				batch = append(batch, broadcast{
					v:      v,
					origin: fmt.Sprintf("%s/random[%d]", sh.track, k),
				})
			}
		}
		hits := applyBatch(batch, nil, true)
		for b, e := range batch {
			// A vector whose every local hit was claimed by an earlier
			// vector in the batch detects nothing new and is discarded.
			if hits[b] > 0 {
				res.Vectors = append(res.Vectors, e.v)
				cVectors.Inc()
				cExchanged.Inc()
			}
		}
		root.Counter("atpg.random.hits").Add(int64(res.RandomHits - phaseHits))
	}

	// Deterministic phase, in rounds. Per round every live shard works
	// its own slice of the pending list — up to shardRoundFaults targeted
	// solves, screening candidates against the vectors it found earlier
	// in the same round so it does not target faults its own work already
	// covers — then the results cross a bounded channel and the
	// coordinator commits them serially in shard-id order. Every decision
	// is a pure function of the inputs, independent of goroutine
	// scheduling, which is what makes the merge deterministic.
	type solveRec struct {
		idx int
		att faultAttempt
	}
	type roundResult struct {
		id   int
		recs []solveRec
		out  guard.Outcome // shard-boundary outcome (chaos, worker panic)
	}
	results := make(chan roundResult, workers)
	detSpan, detCtx := root.StartSpanCtx(runCtx, "atpg.deterministic_phase")
	for {
		var active []*oneShard
		for _, sh := range shards {
			if sh.dead {
				continue
			}
			for len(sh.pending) > 0 && state[sh.pending[0]] != 0 {
				sh.pending = sh.pending[1:]
			}
			if len(sh.pending) == 0 {
				continue
			}
			active = append(active, sh)
		}
		if len(active) == 0 {
			break
		}
		for _, sh := range active {
			round := sh.rounds
			sh.rounds++
			go func(sh *oneShard, round int) {
				var recs []solveRec
				out := guard.Do(detCtx, sh.col, func(ctx context.Context) error {
					if err := chaos.Step(ctx, chaos.SiteATPGShard, fmt.Sprintf("%s#%d", sh.track, round)); err != nil {
						return err
					}
					// The coordinator is parked at the barrier, so reading
					// its pending/state arrays here is race-free. The
					// round's own vectors stay loaded in the shard's
					// simulator, reloaded only when one is added.
					var own []faults.Vector
					for _, i := range sh.pending {
						if len(recs) >= shardRoundFaults {
							break
						}
						if state[i] != 0 {
							continue
						}
						if len(own) > 0 && sh.sim.Diff(fs[i]) != 0 {
							continue // covered: the barrier will drop it
						}
						att := sh.gen.solveFault(ctx, cfg.limits, combinationalSolve, fs[i].Name(c), fs[i:i+1])
						recs = append(recs, solveRec{idx: i, att: att})
						if att.out.Class == guard.OK && att.ok {
							own = append(own, att.v)
							sh.sim.Load(own)
						}
					}
					return nil
				})
				results <- roundResult{id: sh.id, recs: recs, out: out}
			}(sh, round)
		}
		round := make([]roundResult, 0, len(active))
		for range active {
			round = append(round, <-results)
		}
		sort.Slice(round, func(a, b int) bool { return round[a].id < round[b].id })
		var batch []broadcast
		targets := map[int]bool{}
		for _, r := range round {
			sh := shards[r.id]
			if r.out.Class != guard.OK {
				// The shard boundary itself failed: the worker is dead and
				// the round's partial work is discarded. Its pending faults
				// are classified at end of run, after the surviving shards'
				// vectors had a chance to drop them.
				sh.dead = true
				sh.deadOut = r.out
				cShardAborts.Inc()
				root.Event("shard", sh.track,
					obs.Str("outcome", "dead"), obs.Str("reason", r.out.Reason))
				continue
			}
			for _, rec := range r.recs {
				i := rec.idx
				name := fs[i].Name(c)
				att := rec.att
				res.Retries += att.out.Retries()
				hLatency.Observe(att.latency.Nanoseconds())
				if !att.out.OK() {
					st, outcome := degraded(att.out.Class)
					state[i], classByFault[i] = st, st
					cDegraded[st].Inc()
					root.EventSince("fault", name, att.start, onShard(sh,
						obs.Str("outcome", outcome), obs.Str("reason", att.out.Reason))...)
					continue
				}
				if !att.ok {
					// untestableReason probes the shard's own manager; safe
					// here because every worker is parked at the barrier.
					reason := sh.gen.untestableReason(fs[i])
					state[i], classByFault[i] = 2, 2
					cUntestable.Inc()
					root.EventSince("fault", name, att.start, onShard(sh,
						obs.Str("outcome", reason),
						obs.Int("product_nodes", int64(att.nodes)))...)
					ckpt(name, reason, "")
					continue
				}
				if !sh.sim.DetectsFault(att.v, fs[i]) {
					// The generated vector must detect its target; treat a miss
					// as an internal inconsistency loudly rather than silently.
					//lint:allow nopanic documented self-check: a vector that misses its target is an internal inconsistency
					panic("atpg: generated vector does not detect its target fault")
				}
				vecByFault[i] = att.v
				cVectors.Inc()
				root.EventSince("fault", name, att.start, onShard(sh,
					obs.Str("outcome", "tested"),
					obs.Int("product_nodes", int64(att.nodes)),
					obs.Str("vector", att.v.String()))...)
				ckpt(name, "tested", att.v.String())
				cExchanged.Inc()
				batch = append(batch, broadcast{v: att.v, origin: name})
				targets[i] = true
			}
		}
		applyBatch(batch, targets, false)
	}
	// Dead shards: whatever their surviving peers' vectors did not drop
	// degrades to the shard's terminal class — a typed abort or timeout,
	// never a hang.
	for _, sh := range shards {
		if !sh.dead {
			continue
		}
		for _, i := range sh.pending {
			if state[i] != 0 {
				continue
			}
			st, outcome := degraded(sh.deadOut.Class)
			reason := sh.deadOut.Reason
			if st == 3 {
				reason = "shard-dead:" + reason
			}
			state[i], classByFault[i] = st, st
			cDegraded[st].Inc()
			root.Event("fault", fs[i].Name(c), onShard(sh,
				obs.Str("outcome", outcome), obs.Str("reason", reason))...)
		}
	}
	detSpan.End()

	// Assemble the result in stable fault-index order: identical
	// regardless of which shard finished first.
	for i := range fs {
		switch classByFault[i] {
		case 2:
			res.Untestable = append(res.Untestable, fs[i])
		case 3:
			res.Aborted = append(res.Aborted, fs[i])
		case 4:
			res.TimedOut = append(res.TimedOut, fs[i])
		}
		if v := vecByFault[i]; v != nil {
			res.Vectors = append(res.Vectors, v)
		}
	}

	if cfg.checkpoint != nil {
		if err := cfg.checkpoint.Flush(); err != nil {
			root.Counter("atpg.checkpoint.errors").Inc()
		}
	}
	for _, sh := range shards {
		if sh.gen != nil {
			if p := sh.gen.m.PeakSize(); p > res.PeakNodes {
				res.PeakNodes = p
			}
		}
	}
	// Fold the shard lanes' own work back into the root: deterministic by
	// construction (sorted by track/lane, ids lane-major), so the merged
	// causal trace is byte-stable for a fixed worker count.
	if workers > 1 {
		children := make([]*obs.Collector, len(shards))
		for i, sh := range shards {
			children[i] = sh.col
		}
		root.Merge(children...)
	}
	res.CPU = time.Since(start)
	runSpan.End()
	return res
}

// degraded maps a failed guard outcome to the fault state it leaves
// (3 = aborted, 4 = timed out) and its event outcome.
func degraded(cl guard.Class) (state byte, outcome string) {
	if cl == guard.TimedOut {
		return 4, "timed-out"
	}
	return 3, "aborted"
}
