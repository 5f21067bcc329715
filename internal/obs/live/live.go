// Package live is the pipeline's live ops surface: an HTTP server (on
// the standard library only) that turns an obs.Collector into something
// you can watch *during* a run instead of post-mortem.
//
// Endpoints:
//
//	/events     SSE stream of the structured event log (one frame per
//	            work item), resumable via Last-Event-ID, with in-band
//	            drop notification when a client falls behind the ring
//	/report     the run record so far (report.Report): the fault,
//	            element, comparator, critical-path and service sections
//	            beside the collector's full snapshot — the record
//	            msatpg -report writes at the end of a run
//	/samples    the background sampler's ring of per-interval snapshot
//	            deltas with per-second rates — rates without two scrapes
//	/healthz    liveness: status, phase, uptime
//	/debug/pprof/*  runtime profiles; CPU samples carry the phase=/
//	            fault=/frame=/element= labels threaded through the run
//	            loop, so `go tool pprof -tags` attributes time to
//	            individual faults and phases
//
// The SSE write path is a chaos injection site (chaos.SiteLiveSSE), so
// slow and failing streaming clients are exercised by the same
// deterministic harness as the rest of the pipeline. The server shuts
// down cleanly when the context passed to Serve is canceled; in-flight
// streams end because request contexts inherit from it.
package live

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
)

// Server is the live ops surface over one collector. Create with
// NewServer, expose with Serve (or mount Handler on your own server).
// A nil *Server is a valid no-op for SetPhase, so callers can thread an
// optional server without nil checks.
type Server struct {
	col     *obs.Collector
	sampler *Sampler
	start   time.Time
	poll    time.Duration
	mux     *http.ServeMux
	phase   atomic.Value // string: current run phase for /healthz
	clients atomic.Int64 // active SSE clients, mirrored to live.sse.clients
}

type config struct {
	sampleInterval time.Duration
	poll           time.Duration
}

// Option configures a Server at construction.
type Option func(*config)

// WithSampleInterval sets the sampler tick period (default 1s).
func WithSampleInterval(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.sampleInterval = d
		}
	}
}

// WithPollInterval sets how often /events polls the ring for new events
// (default 100ms). Mainly for tests, which shrink it.
func WithPollInterval(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.poll = d
		}
	}
}

// NewServer builds the ops surface over col.
func NewServer(col *obs.Collector, opts ...Option) *Server {
	cfg := config{
		sampleInterval: DefaultSampleInterval,
		poll:           DefaultPollInterval,
	}
	for _, o := range opts {
		o(&cfg)
	}
	s := &Server{
		col:     col,
		sampler: NewSampler(col, cfg.sampleInterval, DefaultSampleCapacity),
		start:   time.Now(),
		poll:    cfg.poll,
		mux:     http.NewServeMux(),
	}
	s.phase.Store("startup")

	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/events", s.handleEvents)
	s.mux.HandleFunc("/report", s.handleReport)
	s.mux.HandleFunc("/samples", s.handleSamples)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the server's mux, for mounting on an existing server.
func (s *Server) Handler() http.Handler { return s.mux }

// Sampler returns the server's snapshot sampler (driven by Serve, or
// manually via Tick in tests).
func (s *Server) Sampler() *Sampler { return s.sampler }

// SetPhase records the run phase reported by /healthz.
// Safe on a nil server, so the pipeline can thread an optional server.
func (s *Server) SetPhase(phase string) {
	if s == nil {
		return
	}
	s.phase.Store(phase)
}

// Phase returns the current run phase.
func (s *Server) Phase() string {
	if s == nil {
		return ""
	}
	p, _ := s.phase.Load().(string)
	return p
}

// Serve runs the ops server on ln until ctx is done, then shuts it down
// (gracefully first, then hard so open SSE streams cannot hold the
// process). The sampler runs for the same lifetime, and request
// contexts inherit ctx — which is how a chaos injector installed in ctx
// reaches the SSE write site.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:     s.mux,
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	go s.sampler.Run(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		shCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		// Best-effort graceful drain, then hard close: an SSE stream
		// whose client never disconnects must not hold shutdown.
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

// handleIndex is a minimal human landing page listing the endpoints.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "msatpg live ops — phase %s, up %v\n\n", s.Phase(), time.Since(s.start).Round(time.Millisecond))
	fmt.Fprint(w, ""+
		"/events     SSE event stream (resume with Last-Event-ID)\n"+
		"/report     run record so far, with the full obs snapshot\n"+
		"/samples    sampler ring: per-interval deltas + rates\n"+
		"/healthz    liveness: status, phase, uptime\n"+
		"/debug/pprof/  profiles (CPU samples carry phase=/fault= labels)\n")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Encode errors here mean the client went away mid-body; the status
	// line is already out, so there is nothing useful left to send.
	_ = enc.Encode(v)
}

// handleReport serves the run record built from the collector's
// snapshot, with the runtime telemetry gauges refreshed at scrape time.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	obs.CaptureRuntime(s.col)
	writeJSON(w, report.Build(s.col.Snapshot()))
}

// samplesPayload is the /samples document.
type samplesPayload struct {
	IntervalNs int64    `json:"interval_ns"`
	Evicted    int64    `json:"evicted"`
	Samples    []Sample `json:"samples"`
}

func (s *Server) handleSamples(w http.ResponseWriter, r *http.Request) {
	samples, evicted := s.sampler.Samples()
	writeJSON(w, samplesPayload{
		IntervalNs: s.sampler.Interval().Nanoseconds(),
		Evicted:    evicted,
		Samples:    samples,
	})
}

// healthzPayload is the /healthz document.
type healthzPayload struct {
	Status   string `json:"status"`
	Phase    string `json:"phase"`
	UptimeNs int64  `json:"uptime_ns"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, healthzPayload{
		Status:   "ok",
		Phase:    s.Phase(),
		UptimeNs: time.Since(s.start).Nanoseconds(),
	})
}
