package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postJob(t *testing.T, srv *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJob(t *testing.T, r io.Reader) *Job {
	t.Helper()
	var j Job
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return &j
}

func TestHTTPJobAPI(t *testing.T) {
	d, err := New(Config{Dir: t.TempDir(), MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d.Start(ctx)
	defer d.Drain()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// Malformed and unknown-field documents are 400s.
	for _, body := range []string{"{", `{"no_such_field":1}`, `{"circuit":"nonsense"}`} {
		resp := postJob(t, srv, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %q status = %d, want 400", body, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// A valid submission is a 202 with a Location.
	resp := postJob(t, srv, `{"bench":"INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	j := decodeJob(t, resp.Body)
	resp.Body.Close()
	if loc != "/api/v1/jobs/"+j.ID {
		t.Fatalf("Location = %q for job %s", loc, j.ID)
	}

	// Poll the job record until done.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(srv.URL + loc)
		if err != nil {
			t.Fatal(err)
		}
		j = decodeJob(t, resp.Body)
		resp.Body.Close()
		if j.State == StateDone {
			break
		}
		if j.State.Terminal() {
			t.Fatalf("job ended %s: %s", j.State, j.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", j.State)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The canonical result is served byte-for-byte (plus one newline).
	resp, err = http.Get(srv.URL + loc + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", resp.StatusCode)
	}
	want, err := j.Result.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSuffix(body, []byte("\n")), want) {
		t.Fatalf("result body %s != canonical %s", body, want)
	}

	// The report is the job attempt's run record: its sections agree
	// with the snapshot it carries.
	resp, err = http.Get(srv.URL + loc + "/report")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Faults struct {
			Total int64 `json:"total"`
		} `json:"faults"`
		Snapshot struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"snapshot"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep.Faults.Total == 0 {
		t.Fatal("job report counts no faults")
	}
	if got := rep.Snapshot.Counters["atpg.faults.total"]; got != rep.Faults.Total {
		t.Errorf("job report's snapshot counts atpg.faults.total = %d, its faults section %d", got, rep.Faults.Total)
	}
	// The job's fault simulation records on the job's own collector.
	if rep.Snapshot.Counters["faults.sim.calls"] == 0 {
		t.Errorf("job report's snapshot has no faults.sim.calls: %v", rep.Snapshot.Counters)
	}

	// Unknown ids are 404s on every job endpoint.
	for _, path := range []string{"/api/v1/jobs/job-999", "/api/v1/jobs/job-999/result",
		"/api/v1/jobs/job-999/events", "/api/v1/jobs/job-999/report"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s status = %d, want 404", path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// With MaxQueue 1 and one done job, a second submission is admitted;
	// fill the queue and overflow with a third to see the 429 + Retry-After.
	resp = postJob(t, srv, `{}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJob(t, srv, `{}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	resp.Body.Close()

	// The embedded live ops surface answers on the same mux.
	resp, err = http.Get(srv.URL + "/progressz")
	if err != nil {
		t.Fatal(err)
	}
	var prog struct {
		Service *struct {
			Submitted int64 `json:"submitted"`
			Completed int64 `json:"completed"`
		} `json:"service"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&prog); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if prog.Service == nil || prog.Service.Submitted < 1 || prog.Service.Completed != 1 {
		t.Fatalf("/progressz service section = %+v", prog.Service)
	}
}

func TestHTTPCancel(t *testing.T) {
	d, err := New(Config{Dir: t.TempDir()}) // not started: job stays queued
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp := postJob(t, srv, `{}`)
	j := decodeJob(t, resp.Body)
	resp.Body.Close()
	resp, err = http.Post(srv.URL+"/api/v1/jobs/"+j.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	c := decodeJob(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || c.State != StateCanceled {
		t.Fatalf("cancel = %d %+v", resp.StatusCode, c)
	}
}
