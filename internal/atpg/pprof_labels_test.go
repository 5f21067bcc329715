package atpg

import (
	"bytes"
	"context"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"

	"repro/internal/faults"
)

// labelProbe is a root context whose Value hook, on the first lookup
// made from inside a targeted solve, captures the pprof labels of the
// goroutine making it.
type labelProbe struct {
	context.Context
	once   sync.Once
	labels string // the "# labels:" line of the solving goroutine
}

func (p *labelProbe) Value(key any) any {
	if insideSolve() {
		p.once.Do(p.capture)
	}
	return p.Context.Value(key)
}

// insideSolve reports whether the caller runs inside the body that
// solveFault wraps in pprof.Do, where the phase and fault labels apply.
func insideSolve() bool {
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.HasPrefix(f.Function, "repro/internal/atpg.(*Generator).solveFault.func") {
			return true
		}
		if !more {
			return false
		}
	}
}

// capture writes a debug=1 goroutine profile, which prints each stack's
// labels above it, and keeps the labels of the stack holding this hook.
func (p *labelProbe) capture() {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		p.labels = "error: " + err.Error()
		return
	}
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(rec, "(*labelProbe).capture") {
			continue
		}
		for _, line := range strings.Split(rec, "\n") {
			if strings.HasPrefix(line, "# labels: ") {
				p.labels = strings.TrimPrefix(line, "# labels: ")
			}
		}
	}
}

// TestCPUProfileCarriesPhaseLabels proves the pprof.Do wrapping of each
// targeted solve reaches the profiler: the goroutine running a solve
// carries the phase and fault labels, which every CPU sample taken on it
// records and `go tool pprof -tags` reads back. The labels are read
// deterministically, from a goroutine profile written at the first
// context lookup made inside a solve, rather than by waiting for the CPU
// sampler to land in one.
func TestCPUProfileCarriesPhaseLabels(t *testing.T) {
	c := adder(t)
	g, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.All(c)
	probe := &labelProbe{Context: context.Background()}
	g.Run(fs, WithContext(probe))
	for _, want := range []string{`"phase":"deterministic"`, `"fault":"` + fs[0].Name(c) + `"`} {
		if !strings.Contains(probe.labels, want) {
			t.Errorf("solving goroutine's labels = %q, want them to contain %s", probe.labels, want)
		}
	}
}
