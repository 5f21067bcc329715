package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/obs/live"
	"repro/internal/report"
)

// buildMux wires the daemon's HTTP surface: the job API under /api/v1,
// and the embedded live ops endpoints (/events, /report, /samples,
// /healthz, pprof) for everything else.
func (d *Daemon) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", d.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", d.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", d.handleJob)
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", d.handleCancel)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", d.handleJobEvents)
	mux.HandleFunc("GET /api/v1/jobs/{id}/report", d.handleJobReport)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", d.handleJobResult)
	mux.Handle("/", d.live.Handler())
	d.mux = mux
}

// Handler returns the daemon's HTTP handler, for mounting in tests or
// on an existing server.
func (d *Daemon) Handler() http.Handler { return d.mux }

func jsonOut(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	// An encode error here means the client left mid-body; the status
	// line is already out.
	_ = enc.Encode(v)
}

// errorPayload is the API's error document.
type errorPayload struct {
	Error string `json:"error"`
}

// handleSubmit admits one job: 202 with the job record, 400 for a spec
// the daemon can never run, 429/503 with Retry-After under overload or
// drain — load shedding is a first-class answer, not a failure.
func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		jsonOut(w, http.StatusBadRequest, errorPayload{Error: fmt.Sprintf("decoding job spec: %v", err)})
		return
	}
	j, err := d.Submit(r.Context(), spec)
	if err != nil {
		var ae *AdmissionError
		if errors.As(err, &ae) {
			w.Header().Set("Retry-After", strconv.Itoa(int(ae.RetryAfter.Seconds())))
			jsonOut(w, ae.Status, errorPayload{Error: ae.Reason})
			return
		}
		jsonOut(w, http.StatusBadRequest, errorPayload{Error: err.Error()})
		return
	}
	w.Header().Set("Location", "/api/v1/jobs/"+j.ID)
	jsonOut(w, http.StatusAccepted, j)
}

// listPayload is the GET /api/v1/jobs document.
type listPayload struct {
	Jobs []*Job `json:"jobs"`
}

func (d *Daemon) handleList(w http.ResponseWriter, r *http.Request) {
	jsonOut(w, http.StatusOK, listPayload{Jobs: d.store.List()})
}

func (d *Daemon) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := d.store.Get(r.PathValue("id"))
	if !ok {
		jsonOut(w, http.StatusNotFound, errorPayload{Error: "no such job"})
		return
	}
	jsonOut(w, http.StatusOK, j)
}

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := d.Cancel(r.Context(), r.PathValue("id"))
	if err != nil {
		jsonOut(w, http.StatusNotFound, errorPayload{Error: err.Error()})
		return
	}
	jsonOut(w, http.StatusOK, j)
}

// handleJobEvents streams the job's per-fault events over SSE. The
// streamer's Base is the job's event high-water mark at the current
// attempt's start, persisted in the job record — so ids stay monotonic
// across retries and daemon restarts, and a client reconnecting with a
// pre-crash Last-Event-ID gets a correct "dropped" gap frame for the
// events the dead process's ring took with it.
func (d *Daemon) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := d.store.Get(id); !ok {
		jsonOut(w, http.StatusNotFound, errorPayload{Error: "no such job"})
		return
	}
	rt := d.runtime(id)
	if rt == nil {
		// Not started (or started by a previous, dead process): nothing
		// to stream yet. Retry-After keeps clients polling gently.
		w.Header().Set("Retry-After", "1")
		jsonOut(w, http.StatusServiceUnavailable, errorPayload{Error: "job has no event stream yet"})
		return
	}
	st := &live.EventStreamer{Col: rt.col, Base: rt.base}
	st.ServeHTTP(w, r)
}

// handleJobReport serves the run record of the job's latest attempt
// (per-fault outcomes, latency percentiles, critical path), live while
// the attempt runs.
func (d *Daemon) handleJobReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := d.store.Get(id); !ok {
		jsonOut(w, http.StatusNotFound, errorPayload{Error: "no such job"})
		return
	}
	rt := d.runtime(id)
	if rt == nil {
		jsonOut(w, http.StatusConflict, errorPayload{Error: "job has not run in this process yet"})
		return
	}
	rep := report.Build(rt.col.Snapshot())
	jsonOut(w, http.StatusOK, rep)
}

// handleJobResult serves the canonical classification of a finished
// job: the byte-comparable document the resume tests diff.
func (d *Daemon) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := d.store.Get(r.PathValue("id"))
	if !ok {
		jsonOut(w, http.StatusNotFound, errorPayload{Error: "no such job"})
		return
	}
	if j.Result == nil {
		jsonOut(w, http.StatusConflict, errorPayload{Error: "job has no result (state " + string(j.State) + ")"})
		return
	}
	data, err := j.Result.MarshalCanonical()
	if err != nil {
		jsonOut(w, http.StatusInternalServerError, errorPayload{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(data, '\n'))
}
