// Command msatpgd is the crash-safe ATPG job daemon: clients submit a
// netlist + profile over HTTP/JSON, watch per-fault progress as a
// Server-Sent Events stream, and fetch structured reports and canonical
// results when the job completes.
//
// Usage:
//
//	msatpgd -dir /var/lib/msatpgd              # durable state directory
//	msatpgd -addr localhost:8640 -dir state
//	msatpgd -dir state -max-concurrent 4 -workers 4
//	msatpgd -dir state -quotas quotas.json     # per-tenant budgets
//	msatpgd -dir state -job-retries 3 -backoff 500ms -backoff-max 30s
//	msatpgd -dir state -chaos-prob 0.05 -chaos-seed 7   # fault injection
//
// API (see the README "Running as a service" section for the full
// endpoint and failure-mode tables):
//
//	POST /api/v1/jobs              submit; 202, 400, 429/503 + Retry-After
//	GET  /api/v1/jobs              list jobs
//	GET  /api/v1/jobs/{id}         job record (state, attempts, result)
//	POST /api/v1/jobs/{id}/cancel  cancel queued or running job
//	GET  /api/v1/jobs/{id}/events  per-job SSE stream (Last-Event-ID resume)
//	GET  /api/v1/jobs/{id}/report  structured run report
//	GET  /api/v1/jobs/{id}/result  canonical classification (byte-comparable)
//	/events /varz /samples /healthz /progressz /debug/pprof/*  live ops
//
// Crash safety: jobs live in a journal written via atomic write-rename
// and per-fault progress goes to a checkpoint file per job, so a
// SIGKILL'd daemon restarts, re-queues whatever was running and resumes
// each job from its checkpoint — with classification identical to an
// uninterrupted run, at any worker count. SIGTERM or SIGINT drains:
// admission stops (503), running jobs are interrupted and re-queued for
// the next start, and the journal is persisted before exit. A second
// signal exits immediately.
//
// Exit status:
//
//	0  clean drain
//	1  the daemon failed at runtime (listener died, store unusable)
//	2  usage or input error (bad flags, unreadable quota file)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/guard"
	"repro/internal/guard/chaos"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// realMain is main with the process edges (args, stdio, exit code,
// signals) made explicit so tests can drive full daemon lifetimes
// in-process. ready, when non-nil, receives the bound address once the
// listener is up.
func realMain(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("msatpgd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8640", "listen address for the HTTP API and live ops surface")
	dir := fs.String("dir", "", "durable state directory: job journal + per-job checkpoints (required)")
	maxQueue := fs.Int("max-queue", service.DefaultMaxQueue, "admitted (queued+running) job bound; beyond it submissions get 429")
	maxConc := fs.Int("max-concurrent", service.DefaultMaxConcurrent, "jobs run concurrently")
	workers := fs.Int("workers", 1, "default worker shards per job (specs and tenant quotas may override)")
	jobRetries := fs.Int("job-retries", 2, "extra attempts for a job whose run dies transiently")
	backoff := fs.Duration("backoff", 500*time.Millisecond, "base pause before a job's first retry (grows exponentially, with jitter)")
	backoffMax := fs.Duration("backoff-max", 30*time.Second, "cap on the retry pause")
	quotasPath := fs.String("quotas", "", "JSON per-tenant quota table (see the README); empty = unlimited")
	syncEvery := fs.Duration("sync", service.DefaultSyncInterval, "how often running jobs' SSE high-water marks are persisted")
	ckptEvery := fs.Int("checkpoint-every", service.DefaultCheckpointEvery, "completed faults per checkpoint flush (how much work a SIGKILL may cost)")
	chaosProb := fs.Float64("chaos-prob", 0, "deterministic fault-injection probability per site visit (0 = off)")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for the chaos injector's site hashing")
	chaosSites := fs.String("chaos-sites", "", "comma-separated injection sites (default: all sites)")
	chaosAction := fs.String("chaos-action", "error", "what a firing site does: panic | error | budget | timeout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: msatpgd -dir STATE [flags]\n\nExit status:\n")
		fmt.Fprintf(stderr, "  0  clean drain (SIGTERM/SIGINT)\n")
		fmt.Fprintf(stderr, "  1  runtime failure\n")
		fmt.Fprintf(stderr, "  2  usage or input error\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "msatpgd: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}
	if *dir == "" {
		fmt.Fprintln(stderr, "msatpgd: -dir is required")
		fs.Usage()
		return 2
	}

	var quotas *service.Quotas
	if *quotasPath != "" {
		var err error
		if quotas, err = service.LoadQuotas(*quotasPath); err != nil {
			fmt.Fprintf(stderr, "msatpgd: %v\n", err)
			return 2
		}
	}

	ctx := context.Background()
	in, err := chaos.FromFlags(*chaosProb, *chaosSeed, *chaosSites, *chaosAction)
	if err != nil {
		fmt.Fprintf(stderr, "msatpgd: %v\n", err)
		return 2
	}
	if in != nil {
		ctx = chaos.Into(ctx, in)
	}

	d, err := service.New(service.Config{
		Dir:             *dir,
		MaxQueue:        *maxQueue,
		MaxConcurrent:   *maxConc,
		DefaultWorkers:  *workers,
		JobRetries:      *jobRetries,
		Backoff:         guard.Backoff{Base: *backoff, Max: *backoffMax, Jitter: 0.5},
		Quotas:          quotas,
		SyncInterval:    *syncEvery,
		CheckpointEvery: *ckptEvery,
		Collector:       obs.Default,
	})
	if err != nil {
		fmt.Fprintf(stderr, "msatpgd: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "msatpgd: listen %s: %v\n", *addr, err)
		return 1
	}
	fmt.Fprintf(stderr, "msatpgd: serving on http://%s/ (state in %s)\n", ln.Addr(), *dir)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	// First SIGTERM/SIGINT drains; a second one force-exits — an
	// operator must always be able to kill a stuck drain.
	serveCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)
	go func() {
		<-sigc
		fmt.Fprintln(stderr, "msatpgd: draining (signal again to force exit)")
		cancel()
		<-sigc
		fmt.Fprintln(stderr, "msatpgd: forced exit")
		os.Exit(1)
	}()

	if err := d.Serve(serveCtx, ln); err != nil {
		fmt.Fprintf(stderr, "msatpgd: %v\n", err)
		return 1
	}
	fmt.Fprintln(stderr, "msatpgd: drained")
	return 0
}
