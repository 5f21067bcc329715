package live

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
)

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d, want 200", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("GET %s Content-Type = %q, want application/json", url, ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}

// TestHealthzAndReport reads the run's phase and uptime from /healthz
// and its record from /report: the same report.Report msatpg -report
// writes, with the fault section distilled from the events and the
// guard tallies and event count in its snapshot.
func TestHealthzAndReport(t *testing.T) {
	col := obs.NewCollector()
	col.Counter("atpg.faults.total").Add(3)
	col.Counter("guard.items").Add(16)
	col.Counter("guard.retries").Add(2)
	col.Event("fault", "f0", obs.Str("outcome", "tested"))
	col.Event("fault", "f1", obs.Str("outcome", "dropped"))
	col.Event("fault", "f2", obs.Str("outcome", "no-difference"))

	s := NewServer(col)
	s.SetPhase("digital")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var h healthzPayload
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" || h.Phase != "digital" || h.UptimeNs <= 0 {
		t.Errorf("healthz = %+v, want ok/digital/positive uptime", h)
	}

	var rep report.Report
	getJSON(t, ts.URL+"/report", &rep)
	if rep.Snapshot == nil {
		t.Fatal("/report carries no snapshot")
	}
	if f := rep.Faults; f == nil || f.Total != 3 || f.Tested != 1 || f.Dropped != 1 || f.Untestable != 1 {
		t.Errorf("/report faults = %+v, want 3 total: 1 tested, 1 dropped, 1 untestable", f)
	}
	c := rep.Snapshot.Counters
	if c["guard.items"] != 16 || c["guard.retries"] != 2 {
		t.Errorf("/report guard counters = %v, want items 16 retries 2", c)
	}
	if seq := int64(len(rep.Snapshot.Events)) + rep.Snapshot.EventsDropped; seq != col.EventSeq() {
		t.Errorf("events + events_dropped = %d, want the event sequence %d", seq, col.EventSeq())
	}
	// The runtime gauges are refreshed at scrape time.
	if rep.Snapshot.Gauges["runtime.goroutines"] == 0 {
		t.Errorf("/report gauges = %v, want runtime.goroutines", rep.Snapshot.Gauges)
	}
}

func TestSamples(t *testing.T) {
	col := obs.NewCollector()
	col.Counter("atpg.vectors").Add(7)
	s := NewServer(col, WithSampleInterval(time.Minute))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Drive the sampler by hand and read the ring back over HTTP.
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	s.Sampler().Tick(now)
	col.Counter("atpg.vectors").Add(3)
	s.Sampler().Tick(now.Add(time.Second))

	var sp samplesPayload
	getJSON(t, ts.URL+"/samples", &sp)
	if sp.IntervalNs != time.Minute.Nanoseconds() {
		t.Errorf("interval = %dns, want 1m", sp.IntervalNs)
	}
	if len(sp.Samples) != 1 || sp.Samples[0].Counters["atpg.vectors"] != 3 {
		t.Errorf("samples = %+v, want one sample with vectors delta 3", sp.Samples)
	}
}

func TestIndexListsEndpointsAnd404s(t *testing.T) {
	ts := httptest.NewServer(NewServer(obs.NewCollector()).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"/events", "/report", "/samples", "/healthz", "/debug/pprof/"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("index does not mention %s", want)
		}
	}

	// /report is the only route to the snapshot.
	for _, path := range []string{"/no-such-endpoint", "/snapshot", "/debug/vars", "/varz", "/progressz"} {
		resp, err = http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestNilServerSetPhaseIsSafe(t *testing.T) {
	var s *Server
	s.SetPhase("analog") // must not panic
	if got := s.Phase(); got != "" {
		t.Errorf("nil server phase = %q, want empty", got)
	}
}

func TestServeShutsDownOnContextCancel(t *testing.T) {
	col := obs.NewCollector()
	s := NewServer(col, WithSampleInterval(10*time.Millisecond))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Hold an SSE stream open across the shutdown: cancellation must end
	// it rather than letting it pin the server.
	sseResp, err := http.Get(url + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve returned %v after cancel, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after context cancel")
	}
}
