// Package service is the msatpgd job daemon: an HTTP/JSON front end
// over the ATPG pipeline with a durable on-disk job queue, bounded
// retry with exponential backoff, and graceful degradation under
// overload, crash and drain.
//
// Robustness model:
//
//   - Crash: every job transition is journaled via atomic write-rename
//     (guard.WriteFileAtomic) and per-fault progress goes to a
//     checkpoint file per job, so a SIGKILL'd daemon restarts, re-queues
//     the jobs that were running and resumes each from its last
//     checkpoint — at any worker count, with identical classification.
//   - Transient failure: a job whose attempt dies (panic, injected
//     fault, worker casualty) re-queues with exponential backoff and
//     deterministic jitter (guard.Backoff) until its retry budget is
//     spent, then fails with a typed reason.
//   - Overload: admission is bounded (queue depth, per-tenant active-job
//     quotas); excess submissions get 429 + Retry-After instead of
//     unbounded memory growth. Per-tenant guard budgets (BDD nodes, MNA
//     solves, deadlines) clamp what any one job can consume, so a
//     pathological netlist degrades its own job, not the daemon.
//   - Drain: canceling the Serve context stops admission (503 +
//     Retry-After), interrupts running jobs — their completed faults
//     are already checkpointed — re-queues them for the next start and
//     persists everything before exit.
//
// Job lifecycle transitions emit service.* counters and events into the
// obs collector, so the daemon's /report covers the daemon itself with
// the same machinery as the pipeline.
package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atpg"
	"repro/internal/guard"
	"repro/internal/guard/chaos"
	"repro/internal/obs"
	"repro/internal/obs/live"
)

// Defaults for the zero Config fields.
const (
	DefaultMaxQueue        = 32
	DefaultMaxConcurrent   = 2
	DefaultSyncInterval    = 2 * time.Second
	DefaultCheckpointEvery = 8
	DefaultRetryAfter      = 5 * time.Second
)

// Config configures a Daemon. Zero fields take the defaults above.
type Config struct {
	// Dir is the durable state directory: job journal + per-job
	// checkpoints. Required.
	Dir string
	// MaxQueue bounds admitted (queued or running) jobs; submissions
	// beyond it get 429 + Retry-After.
	MaxQueue int
	// MaxConcurrent bounds concurrently running jobs.
	MaxConcurrent int
	// DefaultWorkers is the shard count for specs that do not ask.
	DefaultWorkers int
	// JobRetries is how many extra attempts a transiently failed job
	// gets before it is marked failed.
	JobRetries int
	// Backoff paces job retries; its zero value retries immediately.
	Backoff guard.Backoff
	// Quotas is the per-tenant budget table (nil: unlimited).
	Quotas *Quotas
	// SyncInterval is how often running jobs' SSE event high-water marks
	// are persisted, bounding how stale a restarted daemon's resume gap
	// can be.
	SyncInterval time.Duration
	// CheckpointEvery is the per-job checkpoint flush batch: how many
	// completed faults may be lost to a SIGKILL.
	CheckpointEvery int
	// Collector is the daemon's root collector (a fresh one when nil).
	Collector *obs.Collector
}

func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = DefaultMaxQueue
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = DefaultMaxConcurrent
	}
	if c.DefaultWorkers <= 0 {
		c.DefaultWorkers = 1
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = DefaultSyncInterval
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = DefaultCheckpointEvery
	}
	if c.Collector == nil {
		c.Collector = obs.NewCollector()
	}
	return c
}

// AdmissionError is a submission the daemon declined without error:
// overload (429) or drain (503), with a Retry-After hint.
type AdmissionError struct {
	Status     int
	RetryAfter time.Duration
	Reason     string
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("service: not admitted: %s (retry after %v)", e.Reason, e.RetryAfter)
}

// ErrNotFound reports an unknown job id.
var ErrNotFound = errors.New("service: no such job")

// jobRuntime is the in-process side of one job attempt: its collector
// lane, its cancel handle and the SSE id base carried over from every
// earlier incarnation of the job.
type jobRuntime struct {
	col        *obs.Collector
	cancel     context.CancelFunc
	base       int64 // external SSE id of this attempt's first event
	userCancel atomic.Bool
	done       atomic.Bool
}

// Daemon is the msatpgd job service.
type Daemon struct {
	cfg   Config
	col   *obs.Collector
	store *Store
	live  *live.Server
	mux   *http.ServeMux

	mu       sync.Mutex
	rt       map[string]*jobRuntime // latest runtime per job id (kept after terminal, for SSE replay)
	running  int
	draining bool
	aborted  bool

	wake    chan struct{}
	runners sync.WaitGroup
	bg      sync.WaitGroup
	stopBG  context.CancelFunc
	started atomic.Bool
}

// New opens the durable store under cfg.Dir and recovers it: jobs the
// previous process left running are re-queued (counted as
// service.jobs.recovered) so they resume from their checkpoints.
func New(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("service: Config.Dir is required")
	}
	col := cfg.Collector
	store, err := OpenStore(cfg.Dir, col)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:   cfg,
		col:   col,
		store: store,
		live:  live.NewServer(col),
		rt:    map[string]*jobRuntime{},
		wake:  make(chan struct{}, 1),
	}
	recovered := 0
	for _, j := range store.List() {
		if j.State != StateRunning {
			continue
		}
		recovered++
		_, _ = store.Update(context.Background(), j.ID, func(j *Job) {
			if j.State == StateRunning {
				j.State = StateQueued
				j.NextRetryNs = 0
			}
		})
		col.Event("job", j.ID, obs.Str("state", "queued"), obs.Str("reason", "recovered"))
	}
	if recovered > 0 {
		col.Counter("service.jobs.recovered").Add(int64(recovered))
	}
	d.live.SetPhase("serving")
	d.buildMux()
	d.updateGauges()
	return d, nil
}

// Collector returns the daemon's root collector.
func (d *Daemon) Collector() *obs.Collector { return d.col }

// Store returns the daemon's durable store (for tests and tools).
func (d *Daemon) Store() *Store { return d.store }

// Start launches the scheduler and the event-high-water-mark sync loop.
// ctx is the daemon's base context: it carries the chaos injector, and
// canceling it interrupts running jobs. Serve calls Start itself;
// call it directly only when driving the daemon without HTTP.
func (d *Daemon) Start(ctx context.Context) {
	if !d.started.CompareAndSwap(false, true) {
		return
	}
	bgCtx, cancel := context.WithCancel(ctx)
	d.stopBG = cancel
	d.bg.Add(2)
	go d.schedule(bgCtx)
	go d.syncLoop(bgCtx)
}

// Serve runs the daemon's HTTP surface on ln until ctx is canceled,
// then drains: admission stops, running jobs are interrupted and
// re-queued (their progress is checkpointed), the journal is persisted,
// and the server shuts down gracefully, then hard.
func (d *Daemon) Serve(ctx context.Context, ln net.Listener) error {
	d.Start(ctx)
	go d.live.Sampler().Run(ctx)
	hs := &http.Server{
		Handler:     d.mux,
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		d.Drain()
		shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = hs.Shutdown(shCtx)
		_ = hs.Close()
	}()
	err := hs.Serve(ln)
	<-done
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Drain stops admission, interrupts every running job (re-queuing it
// for the next start; completed faults are already in its checkpoint),
// waits for the runners and persists the journal. Idempotent.
func (d *Daemon) Drain() {
	d.mu.Lock()
	d.draining = true
	rts := d.activeRuntimesLocked()
	d.mu.Unlock()
	d.live.SetPhase("draining")
	d.col.Event("daemon", "drain", obs.Str("state", "begin"))
	for _, rt := range rts {
		rt.cancel()
	}
	if d.stopBG != nil {
		d.stopBG()
	}
	d.runners.Wait()
	d.bg.Wait()
	// The drain persist runs on a fresh context: the serve context is
	// already dead and must not veto the final journal write.
	if err := d.store.Persist(context.Background()); err == nil {
		d.col.Event("daemon", "drain", obs.Str("state", "done"))
	}
	d.live.SetPhase("drained")
}

// Abort simulates a SIGKILL for tests: the store freezes (no further
// persists — dirty state dies with the "process"), runners are cut down
// with no journal transitions recorded, and the method returns once
// every goroutine has exited. The on-disk journal is left exactly as a
// kill would leave it: interrupted jobs still say "running". A second
// daemon opened on the same directory recovers and resumes them.
func (d *Daemon) Abort() {
	d.store.Freeze()
	d.mu.Lock()
	d.aborted = true
	rts := d.activeRuntimesLocked()
	d.mu.Unlock()
	for _, rt := range rts {
		rt.cancel()
	}
	if d.stopBG != nil {
		d.stopBG()
	}
	d.runners.Wait()
	d.bg.Wait()
}

// activeRuntimesLocked snapshots the non-finished runtimes, in job-id
// order so cancellation and drain sweeps are deterministic.
func (d *Daemon) activeRuntimesLocked() []*jobRuntime {
	var rts []*jobRuntime
	for _, id := range sortedRuntimeIDsLocked(d.rt) {
		if rt := d.rt[id]; !rt.done.Load() {
			rts = append(rts, rt)
		}
	}
	return rts
}

// sortedRuntimeIDsLocked returns the runtime map's job ids in sorted
// order; callers hold d.mu.
func sortedRuntimeIDsLocked(rt map[string]*jobRuntime) []string {
	ids := make([]string, 0, len(rt))
	for id := range rt {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Submit validates and admits one job. Admission failures are typed:
// a validation error (permanent, 400), or an *AdmissionError (overload
// 429 / draining 503, with a Retry-After hint).
func (d *Daemon) Submit(ctx context.Context, spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	d.mu.Lock()
	draining := d.draining
	d.mu.Unlock()
	if draining {
		d.col.Counter("service.jobs.rejected").Inc()
		return nil, &AdmissionError{Status: http.StatusServiceUnavailable, RetryAfter: DefaultRetryAfter, Reason: "draining"}
	}
	total, forTenant := d.store.Active(spec.Tenant)
	if total >= d.cfg.MaxQueue {
		d.col.Counter("service.jobs.rejected").Inc()
		return nil, &AdmissionError{Status: http.StatusTooManyRequests, RetryAfter: DefaultRetryAfter, Reason: "queue full"}
	}
	if q := d.cfg.Quotas.For(spec.Tenant); q.MaxActive > 0 && forTenant >= q.MaxActive {
		d.col.Counter("service.jobs.rejected").Inc()
		return nil, &AdmissionError{Status: http.StatusTooManyRequests, RetryAfter: DefaultRetryAfter, Reason: "tenant quota"}
	}
	// A persist failure here is tolerated by design: the job is admitted
	// in memory (durability degraded, not serving) and the failure is
	// already counted on service.store.errors.
	j, _ := d.store.Create(ctx, spec)
	d.col.Counter("service.jobs.submitted").Inc()
	d.col.Event("job", j.ID, obs.Str("state", "queued"), obs.Str("tenant", spec.Tenant))
	d.updateGauges()
	d.kick()
	return j, nil
}

// Cancel requests cancellation of one job: a queued job goes terminal
// immediately, a running one is interrupted (its transition lands
// asynchronously), a terminal one is returned as-is.
func (d *Daemon) Cancel(ctx context.Context, id string) (*Job, error) {
	j, ok := d.store.Get(id)
	if !ok {
		return nil, ErrNotFound
	}
	if j.State.Terminal() {
		return j, nil
	}
	if j.State == StateRunning {
		d.mu.Lock()
		rt := d.rt[id]
		d.mu.Unlock()
		if rt != nil && !rt.done.Load() {
			rt.userCancel.Store(true)
			rt.cancel()
		}
		return j, nil
	}
	jc, _ := d.store.Update(ctx, id, func(j *Job) {
		if j.State == StateQueued {
			j.State = StateCanceled
			j.Error = "canceled"
			j.FinishedNs = nowNs()
		}
	})
	if jc != nil && jc.State == StateCanceled {
		d.col.Counter("service.jobs.canceled").Inc()
		d.col.Event("job", id, obs.Str("state", "canceled"))
		d.updateGauges()
	}
	return jc, nil
}

// runtime returns the job's latest runtime lane, if any.
func (d *Daemon) runtime(id string) *jobRuntime {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rt[id]
}

// kick nudges the scheduler without blocking.
func (d *Daemon) kick() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// schedule is the dispatch loop: wake on submissions and completions,
// or on the earliest retry-backoff expiry.
func (d *Daemon) schedule(ctx context.Context) {
	defer d.bg.Done()
	for {
		delay := d.dispatch(ctx)
		var tc <-chan time.Time
		var timer *time.Timer
		if delay > 0 {
			timer = time.NewTimer(delay)
			tc = timer.C
		}
		select {
		case <-ctx.Done():
			if timer != nil {
				timer.Stop()
			}
			return
		case <-d.wake:
		case <-tc:
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// dispatch starts queued jobs (oldest first) while concurrency slots
// remain, honoring retry-backoff gates. It returns how long until the
// earliest gated job becomes eligible (0: nothing to wait for).
func (d *Daemon) dispatch(ctx context.Context) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining || d.aborted {
		return 0
	}
	var wait time.Duration
	for d.running < d.cfg.MaxConcurrent {
		now := nowNs()
		wait = 0
		var pick *Job
		for _, j := range d.store.List() { // submission order: oldest first
			if j.State != StateQueued {
				continue
			}
			if j.NextRetryNs > now {
				if until := time.Duration(j.NextRetryNs - now); wait == 0 || until < wait {
					wait = until
				}
				continue
			}
			pick = j
			break
		}
		if pick == nil {
			return wait
		}
		d.startJobLocked(ctx, pick)
	}
	return wait
}

// startJobLocked transitions one queued job to running and launches its
// runner goroutine. Caller holds d.mu.
func (d *Daemon) startJobLocked(ctx context.Context, j *Job) {
	jc, _ := d.store.Update(ctx, j.ID, func(j *Job) {
		j.State = StateRunning
		j.Attempts++
		if j.StartedNs == 0 {
			j.StartedNs = nowNs()
		}
	})
	if jc == nil {
		return
	}
	rt := &jobRuntime{
		col:  d.col.NewChild(fmt.Sprintf("%s#%d", jc.ID, jc.Attempts)),
		base: jc.EventSeq,
	}
	jobCtx, cancel := context.WithCancel(ctx)
	rt.cancel = cancel
	d.rt[jc.ID] = rt
	d.running++
	d.col.Counter("service.jobs.started").Inc()
	d.col.Event("job", jc.ID, obs.Str("state", "running"), obs.Int("attempt", int64(jc.Attempts)))
	d.updateGaugesLocked()
	d.runners.Add(1)
	go d.runJob(jobCtx, jc, rt)
}

// runJob executes one attempt under the guard harness: a panic, an
// injected failure or a budget trip in the workload degrades to a typed
// outcome that the retry policy can act on, never a dead daemon.
func (d *Daemon) runJob(ctx context.Context, j *Job, rt *jobRuntime) {
	defer d.runners.Done()
	defer rt.cancel()
	var (
		result   *atpg.Classification
		resumed  int
		degraded bool
	)
	out := guard.Do(ctx, rt.col, func(ctx context.Context) error {
		if err := chaos.Step(ctx, chaos.SiteServiceJobStart, j.ID); err != nil {
			return err
		}
		w, err := buildWorkload(j.Spec)
		if err != nil {
			return err
		}
		ckpt, err := d.store.OpenJobCheckpoint(j.ID, j.Spec.Scope())
		if err != nil {
			return err
		}
		ckpt.SetFlushEvery(d.cfg.CheckpointEvery)
		lim, workers := d.cfg.Quotas.For(j.Spec.Tenant).Clamp(j.Spec, d.cfg.DefaultWorkers)
		res, err := w.run(ctx, rt.col, ckpt, lim, workers, j.Spec)
		if err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			// Interrupted (drain or cancel): RunParallel returned normally
			// with the unfinished faults classed as aborted, which must
			// not be mistaken for a completed run.
			return err
		}
		result = res.Classify(w.circuit)
		resumed = res.Resumed
		degraded = len(res.Aborted)+len(res.TimedOut) > 0
		return nil
	})
	d.finishJob(ctx, j.ID, rt, out, result, resumed, degraded)
}

// finishJob commits one attempt's outcome: done, canceled, re-queued
// for retry (with backoff) or interruption, or failed out of retries.
func (d *Daemon) finishJob(ctx context.Context, id string, rt *jobRuntime, out guard.Outcome, result *atpg.Classification, resumed int, degraded bool) {
	rt.done.Store(true)
	d.mu.Lock()
	aborted := d.aborted
	d.running--
	d.mu.Unlock()
	if aborted {
		// Simulated SIGKILL: the process is "dead"; record nothing.
		return
	}

	hwm := rt.base + rt.col.EventSeq()
	interrupted := out.Class == guard.Canceled && !rt.userCancel.Load()
	reason := out.Reason
	jc, _ := d.store.Update(ctx, id, func(j *Job) {
		j.EventSeq = hwm
		switch {
		case out.Class == guard.OK:
			j.State = StateDone
			j.Degraded = degraded
			j.Result = result
			j.Resumed = resumed
			j.Error = ""
			j.FinishedNs = nowNs()
		case out.Class == guard.Canceled && rt.userCancel.Load():
			j.State = StateCanceled
			j.Error = "canceled"
			j.FinishedNs = nowNs()
		case interrupted:
			// Drain or shutdown: back to the queue with no attempt
			// penalty — the next start resumes from the checkpoint.
			j.State = StateQueued
			j.NextRetryNs = 0
		case j.Attempts <= d.cfg.JobRetries:
			j.State = StateQueued
			j.Error = reason
			j.NextRetryNs = nowNs() + d.cfg.Backoff.Delay(j.Attempts-1, id).Nanoseconds()
		default:
			j.State = StateFailed
			j.Error = reason
			j.FinishedNs = nowNs()
		}
	})
	// Fold the attempt's lane into the root collector now that it has
	// quiesced, so the daemon's /report sees its work.
	d.col.Merge(rt.col)
	if jc != nil {
		switch {
		case jc.State == StateDone:
			d.col.Counter("service.jobs.completed").Inc()
			d.col.Event("job", id, obs.Str("state", "done"),
				obs.Str("degraded", fmt.Sprintf("%t", jc.Degraded)))
		case jc.State == StateCanceled:
			d.col.Counter("service.jobs.canceled").Inc()
			d.col.Event("job", id, obs.Str("state", "canceled"))
		case jc.State == StateFailed:
			d.col.Counter("service.jobs.failed").Inc()
			d.col.Event("job", id, obs.Str("state", "failed"), obs.Str("reason", reason))
		case interrupted:
			d.col.Event("job", id, obs.Str("state", "queued"), obs.Str("reason", "interrupted"))
		default:
			d.col.Counter("service.jobs.retried").Inc()
			d.col.Event("job", id, obs.Str("state", "queued"),
				obs.Str("reason", "retry:"+reason), obs.Int("attempt", int64(jc.Attempts)))
		}
	}
	d.updateGauges()
	d.kick()
}

// syncLoop periodically persists running jobs' SSE event high-water
// marks, so a crashed daemon's successor knows how many wire-visible
// ids each job has already consumed and reconnecting clients get a
// correct gap frame instead of silently restarted sequence numbers.
func (d *Daemon) syncLoop(ctx context.Context) {
	defer d.bg.Done()
	t := time.NewTicker(d.cfg.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			d.syncEventSeqs(ctx)
		}
	}
}

func (d *Daemon) syncEventSeqs(ctx context.Context) {
	type hwm struct {
		id  string
		seq int64
	}
	d.mu.Lock()
	var hwms []hwm
	for _, id := range sortedRuntimeIDsLocked(d.rt) {
		if rt := d.rt[id]; !rt.done.Load() {
			hwms = append(hwms, hwm{id, rt.base + rt.col.EventSeq()})
		}
	}
	d.mu.Unlock()
	for _, h := range hwms {
		_, _ = d.store.Update(ctx, h.id, func(j *Job) {
			if j.State == StateRunning && h.seq > j.EventSeq {
				j.EventSeq = h.seq
			}
		})
	}
}

// updateGauges refreshes the queue-depth and running-jobs gauges.
func (d *Daemon) updateGauges() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.updateGaugesLocked()
}

func (d *Daemon) updateGaugesLocked() {
	queued := 0
	for _, j := range d.store.List() {
		if j.State == StateQueued {
			queued++
		}
	}
	d.col.Gauge("service.queue.depth").Set(int64(queued))
	d.col.Gauge("service.jobs.running").Set(int64(d.running))
}
