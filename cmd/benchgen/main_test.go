package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/logic"
)

// TestEmitAllCreatesDir runs -all into a nested directory that does not
// exist yet: emitAll must create it and write all seven netlists, each
// of which parses back to a circuit with the generator's interface.
func TestEmitAllCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "new", "netlists")
	if err := emitAll(dir); err != nil {
		t.Fatalf("emitAll into a missing directory: %v", err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.bench"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 7 {
		t.Fatalf("emitAll wrote %d .bench files, want 7: %v", len(paths), paths)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".bench")
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := logic.ParseBench(name, f)
		f.Close()
		if err != nil {
			t.Errorf("%s does not parse back: %v", filepath.Base(path), err)
			continue
		}
		want, err := lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Inputs()) != len(want.Inputs()) || len(got.Outputs()) != len(want.Outputs()) {
			t.Errorf("%s parses to %d inputs / %d outputs, want %d / %d", name,
				len(got.Inputs()), len(got.Outputs()), len(want.Inputs()), len(want.Outputs()))
		}
	}
}
