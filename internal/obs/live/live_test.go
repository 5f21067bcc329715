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

func TestHealthzAndProgressz(t *testing.T) {
	col := obs.NewCollector()
	col.Counter("atpg.faults.total").Add(20)
	col.Counter("atpg.faults.detected").Add(12)
	col.Counter("atpg.faults.untestable").Add(3)
	col.Counter("atpg.faults.aborted").Add(1)
	col.Counter("guard.items").Add(16)
	col.Counter("guard.retries").Add(2)
	col.Event("fault", "f0")

	s := NewServer(col)
	s.SetPhase("digital")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var h healthzPayload
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" || h.Phase != "digital" || h.UptimeNs <= 0 {
		t.Errorf("healthz = %+v, want ok/digital/positive uptime", h)
	}

	var p progresszPayload
	getJSON(t, ts.URL+"/progressz", &p)
	if p.Faults.Total != 20 || p.Faults.Detected != 12 {
		t.Errorf("progressz faults = %+v, want total 20 detected 12", p.Faults)
	}
	if p.Faults.Done != 16 { // 12 detected + 3 untestable + 1 aborted
		t.Errorf("faults done = %d, want 16", p.Faults.Done)
	}
	if p.Guard.Items != 16 || p.Guard.Retries != 2 {
		t.Errorf("progressz guard = %+v, want items 16 retries 2", p.Guard)
	}
	if p.Events.Seq != 1 {
		t.Errorf("events seq = %d, want 1", p.Events.Seq)
	}
}

func TestVarzAndSamples(t *testing.T) {
	col := obs.NewCollector()
	col.Counter("atpg.vectors").Add(7)
	s := NewServer(col, WithSampleInterval(time.Minute))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	getJSON(t, ts.URL+"/varz", &snap)
	if snap.Counters["atpg.vectors"] != 7 {
		t.Errorf("varz atpg.vectors = %d, want 7", snap.Counters["atpg.vectors"])
	}
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
	for _, want := range []string{"/events", "/varz", "/samples", "/healthz", "/progressz", "/debug/pprof/"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("index does not mention %s", want)
		}
	}

	// /varz is the only route to the snapshot.
	for _, path := range []string{"/no-such-endpoint", "/snapshot", "/debug/vars"} {
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
