package core

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/analog"
	"repro/internal/atpg"
	"repro/internal/circuits"
	"repro/internal/faults"
	"repro/internal/guard"
	"repro/internal/guard/chaos"
)

func TestCompileProgramEndToEnd(t *testing.T) {
	mx := testMixed(t)
	elements := []string{"Rd", "Rg", "R1"}
	matrix, err := analog.BuildMatrix(mx.Analog, elements, circuits.BandPassParams(),
		analog.EDOptions{Tol: 0.05, ElemTol: 0, MaxDev: 20, Step: 1e-4})
	if err != nil {
		t.Fatalf("BuildMatrix: %v", err)
	}
	prog, err := CompileProgram(mx, matrix, elements)
	if err != nil {
		t.Fatalf("CompileProgram: %v", err)
	}

	// Analog: both bounds of all three elements are testable on this
	// vehicle → six analog tests, none untestable.
	if len(prog.AnalogTests) != 6 {
		t.Errorf("analog tests = %d, want 6", len(prog.AnalogTests))
	}
	if len(prog.AnalogUntestable) != 0 {
		t.Errorf("untestable analog elements: %+v", prog.AnalogUntestable)
	}
	for _, at := range prog.AnalogTests {
		if at.Comparator < 1 || at.Comparator > mx.Conv.NumComparators() {
			t.Errorf("%s: comparator %d out of range", at.Element, at.Comparator)
		}
		if !at.Expect.IsComposite() {
			t.Errorf("%s: expected value %v is not composite", at.Element, at.Expect)
		}
		if len(at.Outputs) == 0 {
			t.Errorf("%s: no observing outputs", at.Element)
		}
		if at.Stimulus.Amplitude <= 0 {
			t.Errorf("%s: non-positive stimulus amplitude", at.Element)
		}
	}

	// Conversion: both ladder resistors of the 2-comparator flash are
	// covered (3 resistors for 2 comparators).
	if len(prog.ConversionTests) != mx.Conv.NumResistors() {
		t.Errorf("conversion tests = %d, want %d", len(prog.ConversionTests), mx.Conv.NumResistors())
	}

	// Digital: the Fig 3 vehicle under thermometer constraints (l2→l0)
	// keeps full coverage of the testable faults, and the compacted
	// vector set still detects everything it did before.
	if prog.DigitalFaults == 0 || len(prog.DigitalVectors) == 0 {
		t.Fatal("digital section empty")
	}
	gen := mustGen(t, mx)
	fc := mx.Conv.ConstraintBDD(gen.Manager(), mx.Binding)
	gen.SetConstraint(fc)
	fs := faults.Collapse(mx.Digital)
	sim := faults.NewSimulator(mx.Digital)
	detected := sim.Coverage(prog.DigitalVectors, fs)
	res := gen.Run(fs)
	if detected != res.Detected {
		t.Errorf("program vectors detect %d, full run detects %d", detected, res.Detected)
	}

	// The rendered plan mentions every section.
	var sb strings.Builder
	if err := prog.Write(&sb); err != nil {
		t.Fatalf("Write: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"TEST PROGRAM", "[1] analog element tests",
		"[2] conversion-block element tests", "[3] digital stuck-at vectors", "Rd"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan missing %q", want)
		}
	}
}

// testFactory builds independent Figure 4 vehicles with the sensitivity
// matrix over elements.
func testFactory(t *testing.T, elements []string) MixedFactory {
	return func() (*Mixed, *analog.Matrix, error) {
		mx := testMixed(t)
		matrix, err := analog.BuildMatrix(mx.Analog, elements, circuits.BandPassParams(),
			analog.EDOptions{Tol: 0.05, ElemTol: 0, MaxDev: 20, Step: 1e-4})
		if err != nil {
			return nil, nil, err
		}
		return mx, matrix, nil
	}
}

func TestCompileProgramParallelMatchesSerial(t *testing.T) {
	elements := []string{"Rd", "Rg", "R1"}
	factory := testFactory(t, elements)
	serial, err := CompileProgramParallel(context.Background(), 1, factory, elements, guard.Limits{}, nil)
	if err != nil {
		t.Fatalf("CompileProgramParallel(1): %v", err)
	}
	for _, workers := range []int{2, 3} {
		par, err := CompileProgramParallel(context.Background(), workers, factory, elements, guard.Limits{}, nil)
		if err != nil {
			t.Fatalf("CompileProgramParallel(%d): %v", workers, err)
		}
		// The analog and conversion sections — and the digital coverage
		// and untestable classification — must match the serial flow
		// exactly; only the digital vector set may differ.
		if !reflect.DeepEqual(par.AnalogTests, serial.AnalogTests) {
			t.Errorf("workers=%d: analog tests diverge:\n%+v\nwant\n%+v", workers, par.AnalogTests, serial.AnalogTests)
		}
		if !reflect.DeepEqual(par.AnalogUntestable, serial.AnalogUntestable) {
			t.Errorf("workers=%d: untestable analog elements diverge", workers)
		}
		if !reflect.DeepEqual(par.AnalogAborted, serial.AnalogAborted) {
			t.Errorf("workers=%d: aborted element tests = %+v, want %+v", workers, par.AnalogAborted, serial.AnalogAborted)
		}
		if !reflect.DeepEqual(par.Census, serial.Census) {
			t.Errorf("workers=%d: census = %+v, want %+v", workers, par.Census, serial.Census)
		}
		if !reflect.DeepEqual(par.ConversionTests, serial.ConversionTests) {
			t.Errorf("workers=%d: conversion tests diverge", workers)
		}
		if par.DigitalFaults != serial.DigitalFaults || par.DigitalCoverage != serial.DigitalCoverage {
			t.Errorf("workers=%d: digital faults/coverage = %d/%.3f, want %d/%.3f",
				workers, par.DigitalFaults, par.DigitalCoverage, serial.DigitalFaults, serial.DigitalCoverage)
		}
		if !reflect.DeepEqual(par.DigitalUntestable, serial.DigitalUntestable) {
			t.Errorf("workers=%d: digital untestable = %v, want %v", workers, par.DigitalUntestable, serial.DigitalUntestable)
		}
		// Both compacted vector sets detect the same faults.
		mx := testMixed(t)
		fs := faults.Collapse(mx.Digital)
		sim := faults.NewSimulator(mx.Digital)
		if got, want := sim.Coverage(par.DigitalVectors, fs), sim.Coverage(serial.DigitalVectors, fs); got != want {
			t.Errorf("workers=%d: parallel vectors detect %d faults, serial detect %d", workers, got, want)
		}
	}
}

// TestCompileProgramSurvivesElementPanics injects a panic into every
// test of one element: the flow must finish, file both of its bounds
// under AnalogAborted with reason "panic", read as degraded, and leave
// every other analog test as a clean run computes it — at one worker
// and on a pool.
func TestCompileProgramSurvivesElementPanics(t *testing.T) {
	elements := []string{"Rd", "Rg", "R1"}
	factory := testFactory(t, elements)
	clean, err := CompileProgramParallel(context.Background(), 1, factory, elements, guard.Limits{}, nil)
	if err != nil {
		t.Fatalf("clean compile: %v", err)
	}
	if clean.Degraded() || len(clean.AnalogAborted) != 0 {
		t.Fatalf("clean compile degraded: %+v", clean.AnalogAborted)
	}

	// The injector's choice is a pure function of its seed: take the
	// first seed under which exactly one element's tests panic.
	var in *chaos.Injector
	var victim string
	for seed := int64(1); victim == ""; seed++ {
		cand := chaos.New(seed, 0.4, chaos.AtSites(chaos.SiteCoreElement), chaos.WithAction(chaos.Panic))
		var fired []string
		for _, e := range elements {
			if cand.Decide(chaos.SiteCoreElement, e) == chaos.Panic {
				fired = append(fired, e)
			}
		}
		if len(fired) == 1 {
			in, victim = cand, fired[0]
		}
	}
	var want []AnalogTest
	for _, at := range clean.AnalogTests {
		if at.Element != victim {
			want = append(want, at)
		}
	}

	ctx := chaos.Into(context.Background(), in)
	for _, workers := range []int{1, 3} {
		prog, err := CompileProgramParallel(ctx, workers, factory, elements, guard.Limits{}, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(prog.AnalogAborted) != 2 {
			t.Fatalf("workers=%d: aborted element tests = %+v, want both bounds of %s", workers, prog.AnalogAborted, victim)
		}
		for i, bound := range []Bound{UpperBound, LowerBound} {
			a := prog.AnalogAborted[i]
			if a.Element != victim || a.Bound != bound || a.Outcome.Class != guard.Aborted || a.Outcome.Reason != "panic" {
				t.Errorf("workers=%d: aborted[%d] = %s %s %v (%s), want %s %s aborted (panic)",
					workers, i, a.Element, a.Bound, a.Outcome.Class, a.Outcome.Reason, victim, bound)
			}
		}
		if !prog.Degraded() {
			t.Errorf("workers=%d: a program with aborted element tests must read as degraded", workers)
		}
		if !reflect.DeepEqual(prog.AnalogTests, want) {
			t.Errorf("workers=%d: surviving analog tests diverge from the clean run:\n%+v\nwant\n%+v", workers, prog.AnalogTests, want)
		}
		var sb strings.Builder
		if err := prog.Write(&sb); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if !strings.Contains(sb.String(), victim) || !strings.Contains(sb.String(), "ABORTED (panic)") {
			t.Errorf("workers=%d: plan does not list the aborted tests:\n%s", workers, sb.String())
		}
	}
}

// TestCompileProgramResumesFromCheckpoint compiles with a checkpoint,
// then compiles again on the reopened file: the second digital run must
// restore every fault instead of recomputing it, and every section of
// the program must come out as the first compile wrote it.
func TestCompileProgramResumesFromCheckpoint(t *testing.T) {
	elements := []string{"Rd", "Rg", "R1"}
	factory := testFactory(t, elements)
	path := filepath.Join(t.TempDir(), "prog.ckpt")
	compile := func() *TestProgram {
		t.Helper()
		ckpt, err := guard.OpenCheckpoint(path, "core-test")
		if err != nil {
			t.Fatalf("OpenCheckpoint: %v", err)
		}
		prog, err := CompileProgramParallel(context.Background(), 2, factory, elements, guard.Limits{}, ckpt)
		if err != nil {
			t.Fatalf("CompileProgramParallel: %v", err)
		}
		return prog
	}
	first := compile()
	second := compile()
	if first.Digital.Resumed != 0 {
		t.Errorf("first compile resumed %d faults from an empty checkpoint", first.Digital.Resumed)
	}
	if second.Digital.Resumed != second.DigitalFaults {
		t.Errorf("second compile resumed %d of %d faults", second.Digital.Resumed, second.DigitalFaults)
	}
	first.Digital, second.Digital = nil, nil
	first.GeneratedIn, second.GeneratedIn = 0, 0
	if !reflect.DeepEqual(first, second) {
		t.Errorf("resumed program differs:\n%+v\nwant\n%+v", second, first)
	}
}

func mustGen(t *testing.T, mx *Mixed) *atpg.Generator {
	t.Helper()
	p, err := NewPropagator(mx)
	if err != nil {
		t.Fatal(err)
	}
	return p.Generator()
}

func TestEstimateTesterTime(t *testing.T) {
	mx := testMixed(t)
	elements := []string{"Rd", "Rg"}
	matrix, err := analog.BuildMatrix(mx.Analog, elements, circuits.BandPassParams(),
		analog.EDOptions{Tol: 0.05, ElemTol: 0, MaxDev: 20, Step: 1e-4})
	if err != nil {
		t.Fatalf("BuildMatrix: %v", err)
	}
	prog, err := CompileProgram(mx, matrix, elements)
	if err != nil {
		t.Fatalf("CompileProgram: %v", err)
	}
	est, err := prog.EstimateTesterTime(mx, 1e6)
	if err != nil {
		t.Fatalf("EstimateTesterTime: %v", err)
	}
	if est.Total <= 0 {
		t.Fatal("total time must be positive")
	}
	if est.Total != est.Settle+est.Observe+est.Conversion+est.Digital {
		t.Error("breakdown does not sum to total")
	}
	// The band-pass (Q = 2 at 5 kHz) settles in well under 10 ms; four
	// analog tests plus observation windows stay under a second.
	if est.Total > time.Second {
		t.Errorf("estimate implausibly long: %v", est.Total)
	}
	// Digital patterns at 1 MHz are microseconds — far below the analog
	// part of the budget.
	if est.Digital >= est.Settle {
		t.Errorf("digital %v should be negligible next to settling %v", est.Digital, est.Settle)
	}
	if _, err := prog.EstimateTesterTime(mx, 0); err == nil {
		t.Error("zero pattern rate must error")
	}
}
