package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atpg"
	"repro/internal/faults"
	"repro/internal/guard"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/perfbench/ledger"
)

// The daemon workload drives msatpgd's service in-process over loopback
// HTTP: closed-loop clients, each submitting one inline-netlist job and
// polling it until it is terminal before submitting the next.
const (
	daemonClients = 2
	pollEvery     = 2 * time.Millisecond
	jobTimeout    = 60 * time.Second
	// jobsPerSecond sizes a run: it submits --seconds × jobsPerSecond
	// jobs, about what the two clients complete per second on a 2-CPU
	// host (6.5–9.5 on a shared 2-vCPU Xeon VM, whose speed drifts).
	// A fixed job count rather than a time window matters here:
	// the journal is rewritten whole on every transition and the daemon
	// keeps every finished job's collector lane, so job latency and peak
	// RSS grow with the jobs already run, and a time window would tie
	// both to the host's speed of the moment.
	jobsPerSecond = 7.5
	// daemonSetupReps caps the daemon's set-up repetitions. Each one
	// leaves a loopback connection in TIME_WAIT for a minute, and with
	// thousands of them connect slows down, so set-up time would rise
	// with the repetitions of this run and of the runs just before it.
	daemonSetupReps = 101
	// Every checkEvery-th job's classification is compared byte for byte
	// with a direct atpg.RunParallel on the same netlist.
	checkEvery = 20
	// tracedJobs is the size of the traced window.
	tracedJobs = 20
	// netlistPool is how many job netlists a run generates; later jobs
	// reuse them in order.
	netlistPool = 200
)

// daemonInputs generates the job netlists from the c432 profile; job 0
// at seed 0 is the canonical c432.
func daemonInputs(e *env) ([]string, error) {
	p, err := profileFor("c432")
	if err != nil {
		return nil, err
	}
	base := seeded(p.Seed, e.seed)
	out := make([]string, netlistPool)
	for i := range out {
		q := p
		q.Seed = seeded(base, int64(i))
		c, err := iscas.Generate(q)
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		if err := c.WriteBench(&sb); err != nil {
			return nil, err
		}
		out[i] = sb.String()
	}
	return out, nil
}

// daemonBench is one in-process daemon on a loopback listener.
type daemonBench struct {
	dir      string // parent of every daemon's state directory
	starts   int
	stateDir string
	d        *service.Daemon
	cancel   context.CancelFunc
	served   chan error
	base     string
	http     *http.Client
}

// start is the daemon's set-up: open the durable store, listen, serve,
// and wait until /healthz answers.
func (b *daemonBench) start() error {
	b.starts++
	b.stateDir = filepath.Join(b.dir, fmt.Sprintf("daemon%d", b.starts))
	d, err := service.New(service.Config{Dir: b.stateDir, Collector: obs.Default})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	b.d, b.cancel, b.served = d, cancel, make(chan error, 1)
	b.base = "http://" + ln.Addr().String()
	b.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: daemonClients}}
	go func() { b.served <- d.Serve(ctx, ln) }()
	for t0 := time.Now(); ; {
		if _, err := b.get("/healthz", nil); err == nil {
			return nil
		} else if time.Since(t0) > 10*time.Second {
			b.stop()
			return fmt.Errorf("daemon not ready: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon and waits for Serve to return.
func (b *daemonBench) stop() error {
	b.cancel()
	err := <-b.served
	b.http.CloseIdleConnections()
	return err
}

// get fetches path and decodes a JSON body into v (when non-nil); a
// non-2xx status is an error.
func (b *daemonBench) get(path string, v any) ([]byte, error) {
	resp, err := b.http.Get(b.base + path)
	if err != nil {
		return nil, err
	}
	return readBody(resp, v)
}

func readBody(resp *http.Response, v any) ([]byte, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			return nil, err
		}
	}
	return body, nil
}

// jobRun is one job as its client saw it.
type jobRun struct {
	netlist int
	submit  time.Time
	done    time.Time // when the client saw the terminal state
	job     service.Job
	err     error
}

// runJob submits one job and polls it until it is terminal.
func (b *daemonBench) runJob(lane *obs.Collector, netlist int, bench string) jobRun {
	jr := jobRun{netlist: netlist, submit: time.Now()}
	sp := lane.StartSpan("service.job")
	defer sp.End()
	spec, err := json.Marshal(service.JobSpec{Bench: bench})
	if err != nil {
		jr.err = err
		return jr
	}
	resp, err := b.http.Post(b.base+"/api/v1/jobs", "application/json", bytes.NewReader(spec))
	if err == nil {
		_, err = readBody(resp, &jr.job)
	}
	if err != nil {
		jr.err = fmt.Errorf("submit: %w", err)
		return jr
	}
	for !jr.job.State.Terminal() {
		if time.Since(jr.submit) > jobTimeout {
			jr.err = fmt.Errorf("job %s still %s after %v", jr.job.ID, jr.job.State, jobTimeout)
			return jr
		}
		time.Sleep(pollEvery)
		if _, err := b.get("/api/v1/jobs/"+jr.job.ID, &jr.job); err != nil {
			jr.err = fmt.Errorf("poll %s: %w", jr.job.ID, err)
			return jr
		}
	}
	jr.done = time.Now()
	if jr.job.State != service.StateDone {
		jr.err = fmt.Errorf("job %s ended %s: %s", jr.job.ID, jr.job.State, jr.job.Error)
	}
	return jr
}

// window runs the closed loop: daemonClients clients take netlists in
// order, starting at netlist first, until jobs jobs were submitted. Jobs
// are returned in submission order.
func (b *daemonBench) window(tr *tracer, netlists []string, first, jobs int) []jobRun {
	var (
		next atomic.Int64
		mu   sync.Mutex
		runs []jobRun
		wg   sync.WaitGroup
	)
	for c := 0; c < daemonClients; c++ {
		lane := tr.lane(fmt.Sprintf("daemon-inline/client%d", c))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= jobs {
					return
				}
				i := (first + k) % len(netlists)
				jr := b.runJob(lane, i, netlists[i])
				mu.Lock()
				runs = append(runs, jr)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(runs, func(i, j int) bool { return runs[i].submit.Before(runs[j].submit) })
	return runs
}

func runDaemon(e *env) (*result, error) {
	netlists, err := daemonInputs(e)
	if err != nil {
		return nil, err
	}
	b := &daemonBench{dir: e.dir}
	r := &result{layers: layerSet{}}
	if err := r.timeSetup(daemonSetupReps, b.start, func() { _ = b.stop() }); err != nil {
		return nil, err
	}
	defer func() { _ = b.stop() }()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	runs := b.window(nil, netlists, 0, max(1, int(e.size.Seconds*jobsPerSecond)))
	var last time.Time
	for _, jr := range runs {
		r.attempted++
		if jr.err != nil {
			r.failed++
			r.problemf("%v", jr.err)
			continue
		}
		r.ops = append(r.ops, jr.done.Sub(jr.submit).Seconds())
		r.items = append(r.items, 1)
		if jr.done.After(last) {
			last = jr.done
		}
	}
	r.span = last.Sub(start).Seconds()
	runtime.ReadMemStats(&m1)
	r.recordMem(m0, m1, len(r.ops))
	r.checkJobs(e, b, netlists, runs)

	if e.tr != nil {
		if err := r.traceDaemon(e, b, netlists, len(runs)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// checkJobs is the daemon gate: every job done with consistent counts,
// every checkEvery-th classification byte-equal to a direct run on the
// same netlist, and at seed 0 job 0 equal to the canonical c432.
func (r *result) checkJobs(e *env, b *daemonBench, netlists []string, runs []jobRun) {
	for k, jr := range runs {
		if jr.err != nil {
			continue
		}
		cl := jr.job.Result
		if cl == nil {
			r.problemf("job %s is done without a result", jr.job.ID)
			continue
		}
		if cl.Detected+len(cl.Untestable)+len(cl.Aborted)+len(cl.TimedOut) != cl.Total || len(cl.Aborted)+len(cl.TimedOut) > 0 {
			r.problemf("job %s: %d detected, %d untestable, %d aborted, %d timed out of %d",
				jr.job.ID, cl.Detected, len(cl.Untestable), len(cl.Aborted), len(cl.TimedOut), cl.Total)
		}
		if e.seed == 0 && jr.netlist == 0 && (cl.Total != e.golden.Job0.Total || len(cl.Untestable) != e.golden.Job0.Untestable) {
			r.problemf("job %s (canonical c432): %d faults, %d untestable; golden %d, %d",
				jr.job.ID, cl.Total, len(cl.Untestable), e.golden.Job0.Total, e.golden.Job0.Untestable)
		}
		if k%checkEvery != 0 {
			continue
		}
		got, err := b.get("/api/v1/jobs/"+jr.job.ID+"/result", nil)
		if err != nil {
			r.problemf("result of %s: %v", jr.job.ID, err)
			continue
		}
		want, err := directClassification(netlists[jr.netlist])
		if err != nil {
			r.problemf("direct run for %s: %v", jr.job.ID, err)
			continue
		}
		if !bytes.Equal(bytes.TrimSpace(got), want) {
			r.problemf("job %s classification differs from a direct run:\n got  %s\n want %s", jr.job.ID, bytes.TrimSpace(got), want)
		}
	}
}

// directClassification runs the netlist through atpg.RunParallel as the
// daemon would, without the daemon, and renders its canonical form.
func directClassification(bench string) ([]byte, error) {
	c, err := logic.ParseBench("inline", strings.NewReader(bench))
	if err != nil {
		return nil, err
	}
	res, err := atpg.RunParallel(c, faults.Collapse(c), atpg.WithWorkers(1),
		atpg.WithShardOptions(atpg.WithCollector(nil)))
	if err != nil {
		return nil, err
	}
	return res.Classify(c).MarshalCanonical()
}

// traceDaemon runs a traced window of tracedJobs jobs and reads the
// service, journal and checkpoint layers off it.
func (r *result) traceDaemon(e *env, b *daemonBench, netlists []string, first int) error {
	var runs []jobRun
	_, delta, _ := tracedOp(func() error {
		runs = b.window(e.tr, netlists, first, tracedJobs)
		return nil
	})
	var lat, queue, run, notify, ckptBytes []float64
	var done *jobRun
	for i, jr := range runs {
		if jr.err != nil {
			r.problemf("traced window: %v", jr.err)
			continue
		}
		if done == nil {
			done = &runs[i]
		}
		j := jr.job
		lat = append(lat, jr.done.Sub(jr.submit).Seconds())
		queue = append(queue, float64(j.StartedNs-j.SubmittedNs)/1e6)
		run = append(run, float64(j.FinishedNs-j.StartedNs)/1e6)
		notify = append(notify, float64(jr.done.UnixNano()-j.FinishedNs)/1e6)
		if st, err := os.Stat(b.d.Store().CheckpointPath(j.ID)); err == nil {
			ckptBytes = append(ckptBytes, float64(st.Size()))
		}
	}
	if done == nil {
		return fmt.Errorf("traced window completed no job")
	}
	r.traced(time.Duration(ledger.Median(lat)*float64(time.Second)), delta, e.tr.spans())
	l := r.layers
	l.dist("service.queue_wait_ms_p50", queue, 50)
	l.dist("service.run_ms_p50", run, 50)
	l.dist("service.notify_ms_p50", notify, 50)
	l.set("service.journal_writes_per_job", float64(delta.Counters["service.store.writes"])/float64(len(lat)))
	l.set("guard.ckpt_bytes_per_job", mean(ckptBytes))
	journal := filepath.Join(b.stateDir, "jobs.json")
	if st, err := os.Stat(journal); err == nil {
		l.set("service.journal_kb", float64(st.Size())/1024)
	}

	parse := medianNs(func() { _, _ = logic.ParseBench("inline", strings.NewReader(netlists[done.netlist])) })
	l.set("logic.parse_ms", parse/1e6)
	if err := journalProbe(l, journal, filepath.Join(b.dir, "journal-probe")); err != nil {
		return err
	}
	if err := checkpointProbe(l, b.d.Store().CheckpointPath(done.job.ID), filepath.Join(b.dir, "ckpt-probe")); err != nil {
		return err
	}
	return digitalProbes(l, e.seed)
}

// journalProbe measures service.journal_write_ms: one Store.Update (a
// full atomic journal rewrite) on a reopened copy of the final journal.
func journalProbe(l layerSet, journal, dir string) error {
	data, err := os.ReadFile(journal)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs.json"), data, 0o644); err != nil {
		return err
	}
	s, err := service.OpenStore(dir, nil)
	if err != nil {
		return err
	}
	jobs := s.List()
	if len(jobs) == 0 {
		return fmt.Errorf("journal probe: empty journal")
	}
	var uerr error
	ns := medianNs(func() {
		if _, err := s.Update(context.Background(), jobs[0].ID, func(*service.Job) {}); err != nil {
			uerr = err
		}
	})
	l.set("service.journal_write_ms", ns/1e6)
	return uerr
}

// checkpointProbe measures guard.ckpt_flush_ms: one job's checkpoint
// records replayed through a fresh guard.Checkpoint at the daemon's
// flush cadence, timing the Puts that flush.
func checkpointProbe(l layerSet, path, dir string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	f, err := guard.DecodeCheckpoint(data)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cp, err := guard.OpenCheckpoint(filepath.Join(dir, "replay.ckpt"), f.Scope)
	if err != nil {
		return err
	}
	cp.SetFlushEvery(service.DefaultCheckpointEvery)
	var flushes []float64
	for i, rec := range f.Records {
		t0 := time.Now()
		if err := cp.Put(rec); err != nil {
			return err
		}
		if (i+1)%service.DefaultCheckpointEvery == 0 {
			flushes = append(flushes, float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
	l.dist("guard.ckpt_flush_ms", flushes, 50)
	return nil
}
