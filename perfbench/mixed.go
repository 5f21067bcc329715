package main

import (
	"context"
	"fmt"
	"math"
	"reflect"

	"repro/internal/adc"
	"repro/internal/analog"
	"repro/internal/atpg"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/iscas"
)

// mixedVehicle is the paper's whole method on one circuit: the Chebyshev
// filter, the 15-comparator flash and a digital block.
type mixedVehicle struct {
	digital string
	profile iscas.Profile
	binding []string
	cheb    *analogBlock
	mx      *core.Mixed // after set-up
}

func mixedInputs(e *env) (*mixedVehicle, error) {
	name := e.size.digital()
	p, err := profileFor(name)
	if err != nil {
		return nil, err
	}
	// The binding stays the paper's draw for every seed: here it decides
	// which comparators can propagate a fault at all, and redrawing it
	// moved a pass between 4.6 and 8.7 s and peak RSS between 0.4 and
	// 0.8 GB over ten seeds on a 2-CPU host. The seed varies the
	// filter's values.
	b, err := bindingFor(name, p, 0)
	if err != nil {
		return nil, err
	}
	cheb := analogInputs(e.seed)[1]
	return &mixedVehicle{digital: name, profile: p, binding: b, cheb: cheb}, nil
}

func (v *mixedVehicle) setup() error {
	dig, err := iscas.Generate(v.profile)
	if err != nil {
		return err
	}
	if err := v.cheb.setup(); err != nil {
		return err
	}
	flash := adc.NewFlash(experiments.ComparatorCount, 0, float64(experiments.ComparatorCount+1))
	v.mx, err = core.NewMixed(v.cheb.c, circuits.ChebyshevOutput, flash, dig, v.binding)
	return err
}

// programSummary is the comparable content of a compiled test program.
type programSummary struct {
	Analog            []string // element/bound/param/comparator of each analog test
	AnalogUntestable  int
	Conversion        []string // resistor@comparator of each conversion test
	Vectors           []string
	DigitalUntestable []string
	DigitalFaults     int
	DigitalCoverage   float64
}

func summarize(p *core.TestProgram) programSummary {
	s := programSummary{
		AnalogUntestable:  len(p.AnalogUntestable),
		DigitalUntestable: p.DigitalUntestable,
		DigitalFaults:     p.DigitalFaults,
		DigitalCoverage:   p.DigitalCoverage,
	}
	for _, t := range p.AnalogTests {
		s.Analog = append(s.Analog, fmt.Sprintf("%s/%s/%s/%d", t.Element, t.Bound, t.Param, t.Comparator))
	}
	for _, t := range p.ConversionTests {
		s.Conversion = append(s.Conversion, fmt.Sprintf("%s@%d", t.Element, t.Comparator))
	}
	for _, v := range p.DigitalVectors {
		s.Vectors = append(s.Vectors, v.String())
	}
	return s
}

func runMixed(e *env) (*result, error) {
	v, err := mixedInputs(e)
	if err != nil {
		return nil, err
	}
	r := &result{layers: layerSet{}}
	if err := r.timeSetup(maxSetupReps, v.setup, nil); err != nil {
		return nil, err
	}

	var first *core.TestProgram
	r.timeOps(e.size.Seconds, func() (opOut, error) {
		out := opOut{attempted: 1}
		m, err := analog.BuildMatrix(v.mx.Analog, v.cheb.elements, v.cheb.ps, analog.DefaultEDOptions())
		if err != nil {
			return out, err
		}
		prog, err := core.CompileProgram(v.mx, m, v.cheb.elements)
		if err != nil {
			return out, err
		}
		out.items = 1
		if first == nil {
			first = prog
		} else if !reflect.DeepEqual(summarize(first), summarize(prog)) {
			r.problemf("pass %d compiled a different program from pass 1", len(r.ops)+1)
		}
		return out, nil
	})
	if first != nil {
		r.checkProgram(e, v, first)
	}

	if e.tr != nil {
		var replay programSummary
		var st cellStats
		d, delta, err := tracedOp(func() error {
			var err error
			replay, err = tracedProgram(e.tr, v, &st)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		if first != nil && !reflect.DeepEqual(summarize(first), replay) {
			r.problemf("the traced replay of CompileProgram compiled a different program")
		}
		r.traced(d, delta, e.tr.spans())
		st.record(r.layers)
		if err := digitalProbes(r.layers, e.seed); err != nil {
			return nil, err
		}
		if err := analogProbe(r.layers, v.mx.Analog); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// tracedProgram replays BuildMatrix and CompileProgramCtx as their public
// steps, each wrapped in a span, and summarises the program they yield.
func tracedProgram(tr *tracer, v *mixedVehicle, st *cellStats) (programSummary, error) {
	var s programSummary
	mx := v.mx
	lane := tr.lane("mixed/" + v.digital)
	m, err := tracedMatrix(lane, st, v.cheb)
	if err != nil {
		return s, err
	}
	ctx := context.Background()
	sp := lane.StartSpan("core.propagator")
	prop, err := core.NewPropagator(mx)
	sp.End()
	if err != nil {
		return s, err
	}
	for _, elem := range v.cheb.elements {
		for _, bound := range []core.Bound{core.UpperBound, core.LowerBound} {
			sp := lane.StartSpan("core.element_test")
			verdict, err := mx.TestAnalogElementCtx(ctx, prop, m, elem, bound)
			sp.End()
			if err != nil {
				return s, fmt.Errorf("element %s: %w", elem, err)
			}
			if !verdict.Testable {
				s.AnalogUntestable++
				continue
			}
			s.Analog = append(s.Analog, fmt.Sprintf("%s/%s/%s/%d", elem, bound, verdict.Param, verdict.Act.Target))
		}
	}
	sp = lane.StartSpan("core.census")
	census, err := mx.CensusPropagation(prop)
	sp.End()
	if err != nil {
		return s, err
	}
	sp = lane.StartSpan("core.conversion")
	opt := adc.DefaultEDOptions()
	eds := mx.ConversionCoverage(census, opt)
	best := mx.BestConversionComparators(census, opt)
	sp.End()
	for i := range eds {
		if best[i] != 0 && !math.IsInf(eds[i], 1) {
			s.Conversion = append(s.Conversion, fmt.Sprintf("R%d@%d", i+1, best[i]))
		}
	}
	gen := prop.Generator()
	sp = lane.StartSpan("adc.constraint")
	gen.SetConstraint(mx.Conv.ConstraintBDD(gen.Manager(), mx.Binding))
	sp.End()
	fs := faults.Collapse(mx.Digital)
	sp = lane.StartSpan("atpg.run")
	res := gen.Run(fs, atpg.WithContext(ctx))
	sp.End()
	sp = lane.StartSpan("core.compact")
	vecs := gen.Compact(res.Vectors, fs)
	sp.End()
	for _, vec := range vecs {
		s.Vectors = append(s.Vectors, vec.String())
	}
	s.DigitalFaults, s.DigitalCoverage = res.Total, res.Coverage()
	s.DigitalUntestable = res.Classify(mx.Digital).Untestable // sorted names, as CompileProgram lists them
	return s, nil
}

// checkProgram is the mixed-flow gate: the seed-0 section sizes, and for
// every seed the digital vectors re-checked by independent fault
// simulation and against the constraint Fc.
func (r *result) checkProgram(e *env, v *mixedVehicle, p *core.TestProgram) {
	if e.seed == 0 {
		got := mixedGolden{len(p.AnalogTests), len(p.ConversionTests), len(p.DigitalVectors)}
		if want, ok := e.golden.Mixed[v.digital]; !ok || got != want {
			r.problemf("mixed %s: analog tests, conversion tests, vectors %v; golden %v", v.digital, got, want)
		}
	}
	dig := v.mx.Digital
	fs := faults.Collapse(dig)
	if len(fs) != p.DigitalFaults {
		r.problemf("mixed %s: program covers %d faults, circuit has %d", v.digital, p.DigitalFaults, len(fs))
		return
	}
	unt := map[string]bool{}
	for _, n := range p.DigitalUntestable {
		unt[n] = true
	}
	var untestable []faults.Fault
	for _, f := range fs {
		if unt[f.Name(dig)] {
			untestable = append(untestable, f)
		}
	}
	detected := int(math.Round(p.DigitalCoverage * float64(p.DigitalFaults-len(untestable))))
	r.problems = append(r.problems, checkVectors("mixed "+v.digital, dig, fs, p.DigitalVectors, detected, untestable, v.binding, false)...)
}
