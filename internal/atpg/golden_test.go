package atpg_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/adc"
	"repro/internal/atpg"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// goldenCase is one pinned workers=1 run: a circuit, its fault list and
// the constraint (nil for a free run) installed on the generator.
type goldenCase struct {
	name  string
	c     *logic.Circuit
	fs    []faults.Fault
	setup func(*atpg.Generator) error
	opts  []atpg.RunOption
	// parallel also runs the case through RunParallel at one worker;
	// only the cheap circuits do, to keep the test short.
	parallel bool
}

// goldenCases lists Fig. 3 (stem faults, Fc = l0 + l2 as in
// experiments/fig3.go) and the Table 4 circuits (collapsed faults, the
// 15-comparator flash over experiments.BoundInputs), each free,
// constrained and free with a 64-vector random phase.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	add := func(label string, c *logic.Circuit, fs []faults.Fault, fc func(*atpg.Generator) error, parallel bool) {
		cases = append(cases,
			goldenCase{name: label + " free", c: c, fs: fs, parallel: parallel},
			goldenCase{name: label + " constrained", c: c, fs: fs, setup: fc, parallel: parallel},
			goldenCase{name: label + " random", c: c, fs: fs, parallel: parallel,
				opts: []atpg.RunOption{atpg.WithRandomPhase(64, 7)}})
	}
	fig3 := iscas.Fig3()
	add("fig3", fig3, faults.Stems(fig3), func(g *atpg.Generator) error {
		m := g.Manager()
		g.SetConstraint(m.Or(m.Var(iscas.Fig3Va), m.Var(iscas.Fig3Vb)))
		return nil
	}, true)
	for _, name := range []string{"c432", "c499", "c880", "c1355", "c1908"} {
		c, err := iscas.Benchmark(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bound := experiments.BoundInputs(c, name)
		add(name, c, faults.Collapse(c), func(g *atpg.Generator) error {
			flash := adc.NewFlash(experiments.ComparatorCount, 0, float64(experiments.ComparatorCount+1))
			g.SetConstraint(flash.ConstraintBDD(g.Manager(), bound))
			return nil
		}, name == "c432")
	}
	return cases
}

// dumpResult renders what a run emits: the vectors in emitted order, the
// untestable faults in listed order and the canonical classification.
func dumpResult(buf *bytes.Buffer, label string, c *logic.Circuit, res *atpg.Result) error {
	fmt.Fprintf(buf, "== %s\nvectors %d\n", label, len(res.Vectors))
	for _, v := range res.Vectors {
		fmt.Fprintf(buf, "  %s\n", v)
	}
	fmt.Fprintf(buf, "untestable %d\n", len(res.Untestable))
	for _, f := range res.Untestable {
		fmt.Fprintf(buf, "  %s\n", f.Name(c))
	}
	canon, err := res.Classify(c).MarshalCanonical()
	if err != nil {
		return err
	}
	fmt.Fprintf(buf, "classification %s\n", canon)
	return nil
}

// TestWorkersOneGolden pins the workers=1 output of (*Generator).Run
// byte for byte, and checks RunParallel at one worker against the same
// record. Regenerate with -update-golden only when a change is meant to
// move the emitted vectors or the classification.
func TestWorkersOneGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Table 4 three times over")
	}
	var serial bytes.Buffer
	for _, gc := range goldenCases(t) {
		g, err := atpg.New(gc.c, atpg.WithCollector(nil))
		if err != nil {
			t.Fatalf("%s: New: %v", gc.name, err)
		}
		if gc.setup != nil {
			if err := gc.setup(g); err != nil {
				t.Fatalf("%s: setup: %v", gc.name, err)
			}
		}
		var one bytes.Buffer
		if err := dumpResult(&one, gc.name, gc.c, g.Run(gc.fs, gc.opts...)); err != nil {
			t.Fatal(err)
		}
		serial.Write(one.Bytes())
		if !gc.parallel {
			continue
		}
		opts := append([]atpg.RunOption{
			atpg.WithWorkers(1),
			atpg.WithShardOptions(atpg.WithCollector(obs.NewCollector())),
		}, gc.opts...)
		if gc.setup != nil {
			opts = append(opts, atpg.WithShardSetup(gc.setup))
		}
		res, err := atpg.RunParallel(gc.c, gc.fs, opts...)
		if err != nil {
			t.Fatalf("%s: RunParallel: %v", gc.name, err)
		}
		var par bytes.Buffer
		if err := dumpResult(&par, gc.name, gc.c, res); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(par.Bytes(), one.Bytes()) {
			t.Errorf("%s: RunParallel(workers=1) differs from (*Generator).Run:\n%s", gc.name, firstDiff(par.Bytes(), one.Bytes()))
		}
	}

	path := filepath.Join("testdata", "workers1.golden")
	got := serial.Bytes()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (rerun with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("(*Generator).Run output differs from golden %s:\n%s", path, firstDiff(got, want))
	}
}

// firstDiff reports the first differing line of two dumps.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, gl, wl)
		}
	}
	return "(no line differs)"
}
