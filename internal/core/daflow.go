package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/atpg"
	"repro/internal/bdd"
	"repro/internal/dac"
	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/mna"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// MixedDA is the dual configuration the paper leaves to "another paper":
// a digital block whose output code drives an R-2R DAC whose output
// drives an analog block. All observability flows through the analog
// output, measured with a finite accuracy — so a digital fault is only
// detectable when it moves the DAC input code by at least a threshold
// number of LSBs, and an analog/DAC element fault must shift the analog
// output beyond the measurement accuracy for some applicable code.
type MixedDA struct {
	Digital *logic.Circuit
	// CodeBits names the digital outputs forming the DAC input code,
	// least significant bit first.
	CodeBits []string
	Conv     *dac.R2R
	Analog   *mna.Circuit
	// AnalogGainNode is the analog node observed by the tester. The
	// analog block is modelled as driven by the DAC level at DC; its
	// transfer is taken from the circuit's single source.
	AnalogGainNode string
	// Accuracy is the tester's measurement accuracy at the analog
	// output, as a fraction of the analog full-scale output.
	Accuracy float64

	bitIDs []logic.SigID
}

// NewMixedDA validates and assembles the dual-configuration circuit.
func NewMixedDA(digital *logic.Circuit, codeBits []string, conv *dac.R2R, analog *mna.Circuit, analogOut string, accuracy float64) (*MixedDA, error) {
	if !digital.Frozen() {
		return nil, fmt.Errorf("core: digital circuit %q must be frozen", digital.Name)
	}
	if len(codeBits) != conv.Bits() {
		return nil, fmt.Errorf("core: %d code bits for a %d-bit DAC", len(codeBits), conv.Bits())
	}
	if accuracy <= 0 || accuracy >= 1 {
		return nil, fmt.Errorf("core: accuracy %g must be in (0, 1)", accuracy)
	}
	if !analog.HasNode(analogOut) {
		return nil, fmt.Errorf("core: analog circuit %q has no node %q", analog.Name(), analogOut)
	}
	outSet := map[string]logic.SigID{}
	for _, id := range digital.Outputs() {
		outSet[digital.Signal(id).Name] = id
	}
	mx := &MixedDA{
		Digital:        digital,
		CodeBits:       append([]string(nil), codeBits...),
		Conv:           conv,
		Analog:         analog,
		AnalogGainNode: analogOut,
		Accuracy:       accuracy,
	}
	seen := map[string]bool{}
	for _, n := range codeBits {
		id, ok := outSet[n]
		if !ok {
			return nil, fmt.Errorf("core: code bit %q is not a digital primary output", n)
		}
		if seen[n] {
			return nil, fmt.Errorf("core: code bit %q used twice", n)
		}
		seen[n] = true
		mx.bitIDs = append(mx.bitIDs, id)
	}
	return mx, nil
}

// AnalogDCGain returns the DC transfer magnitude of the analog block.
func (mx *MixedDA) AnalogDCGain() (float64, error) {
	return mx.Analog.GainMag(mx.AnalogGainNode, 0)
}

// Tau converts the measurement accuracy at the analog output into the
// minimal DAC code change a digital fault must cause to be observable:
// the accuracy band ε·FS_analog mapped back through the analog DC gain
// and the DAC LSB, rounded up and clamped to at least 1.
func (mx *MixedDA) Tau() (uint64, error) {
	gain, err := mx.AnalogDCGain()
	if err != nil {
		return 0, err
	}
	if gain <= 0 {
		return 0, fmt.Errorf("core: analog block has zero DC gain; nothing is observable")
	}
	fsAnalog := gain * mx.Conv.IdealVout(mx.Conv.FullScale())
	band := mx.Accuracy * fsAnalog
	lsbAtOutput := gain * mx.Conv.LSB()
	tau := uint64(math.Ceil(band / lsbAtOutput))
	if tau < 1 {
		tau = 1
	}
	return tau, nil
}

// DAResult summarises a threshold-observability ATPG run on the digital
// block of the dual configuration.
type DAResult struct {
	Tau        uint64
	Total      int
	Detected   int
	Untestable []faults.Fault
	Vectors    []faults.Vector
	CPU        time.Duration
}

// Coverage returns detected/total; an empty fault list reads as 0, like
// atpg.Result.Coverage.
func (r *DAResult) Coverage() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.Total)
}

// codeBDDs returns the good and faulty code-bit functions for a fault.
func (mx *MixedDA) codeBDDs(g *atpg.Generator, f faults.Fault) (good, bad []bdd.Ref) {
	fo := g.FaultyOutputs(f)
	good = make([]bdd.Ref, len(mx.bitIDs))
	bad = make([]bdd.Ref, len(mx.bitIDs))
	for i, id := range mx.bitIDs {
		good[i] = g.GoodFunction(id)
		if fv, ok := fo[id]; ok {
			bad[i] = fv
		} else {
			bad[i] = good[i]
		}
	}
	return good, bad
}

// TestFunctionDA returns the set of vectors whose DAC input codes differ
// by at least tau LSB between the good and faulty circuit — the dual
// configuration's analogue of S = Fc·(F ⊕ F_f).
func (mx *MixedDA) TestFunctionDA(g *atpg.Generator, f faults.Fault, tau uint64) bdd.Ref {
	good, bad := mx.codeBDDs(g, f)
	m := g.Manager()
	return m.And(g.Constraint(), m.DiffMagnitudeGE(good, bad, tau))
}

// DetectsDA reports whether one vector moves the faulty circuit's code by
// at least tau LSB — the simulation-side check RunDigitalDA's fault
// dropping applies, there on one simulator for the whole run.
func (mx *MixedDA) DetectsDA(v faults.Vector, f faults.Fault, tau uint64) bool {
	sim := faults.NewSimulator(mx.Digital)
	sim.Load([]faults.Vector{v})
	return mx.movesCode(sim, f, tau, make([]uint64, len(mx.bitIDs)))
}

// movesCode reports whether f moves the DAC input code by at least tau
// LSB on the simulator's first loaded vector; bad is scratch space, one
// word per code bit.
func (mx *MixedDA) movesCode(sim *faults.Simulator, f faults.Fault, tau uint64, bad []uint64) bool {
	sim.Faulty(f, mx.bitIDs, bad)
	var goodCode, badCode int64
	for i, id := range mx.bitIDs {
		goodCode |= int64(sim.Good(id)&1) << uint(i)
		badCode |= int64(bad[i]&1) << uint(i)
	}
	diff := goodCode - badCode
	if diff < 0 {
		diff = -diff
	}
	return uint64(diff) >= tau
}

// RunDigitalDA generates tests for the digital block observed only
// through the DAC and analog output, with fault dropping under the
// threshold-detection criterion.
func (mx *MixedDA) RunDigitalDA(g *atpg.Generator, fs []faults.Fault, tau uint64) *DAResult {
	defer obs.Default.StartSpan("core.run_digital_da").End()
	start := time.Now()
	res := &DAResult{Tau: tau, Total: len(fs)}
	state := make([]byte, len(fs)) // 0 pending, 1 detected, 2 untestable
	sim := faults.NewSimulator(mx.Digital)
	bad := make([]uint64, len(mx.bitIDs))
	drop := func(v faults.Vector) {
		sim.Load([]faults.Vector{v}) // the good circuit, once per vector
		for i := range fs {
			if state[i] == 0 && mx.movesCode(sim, fs[i], tau, bad) {
				state[i] = 1
				res.Detected++
			}
		}
	}
	for i := range fs {
		if state[i] != 0 {
			continue
		}
		s := mx.TestFunctionDA(g, fs[i], tau)
		assign, ok := g.Manager().SatOneConstrained(s, mx.Digital.InputNames())
		if !ok {
			state[i] = 2
			res.Untestable = append(res.Untestable, fs[i])
			continue
		}
		v := faults.VectorFromAssignment(mx.Digital, assign)
		res.Vectors = append(res.Vectors, v)
		drop(v)
		if state[i] == 0 {
			//lint:allow nopanic documented self-check: a DA vector that misses its target is an internal inconsistency
			panic("core: DA vector does not detect its target fault")
		}
	}
	res.CPU = time.Since(start)
	return res
}

// AnalogElementEDDA returns the minimal deviation of an analog element
// observable in the dual configuration: the tester applies the best DAC
// code (the full-scale level maximises the signal) and detects the fault
// when the analog output moves by more than the accuracy band. +Inf when
// the element never reaches the band within maxDev.
func (mx *MixedDA) AnalogElementEDDA(elem string, maxDev float64) (float64, error) {
	gain0, err := mx.AnalogDCGain()
	if err != nil {
		return 0, err
	}
	vfs := mx.Conv.IdealVout(mx.Conv.FullScale())
	band := mx.Accuracy * gain0 * vfs
	var measureErr error
	h := func(delta float64) float64 {
		restore := mx.Analog.Perturb(elem, delta)
		defer restore()
		gain, err := mx.AnalogDCGain()
		if err != nil {
			if measureErr == nil {
				measureErr = err
			}
			return -band
		}
		return math.Abs(gain-gain0)*vfs - band
	}
	best := math.Inf(1)
	for _, sign := range []float64{1, -1} {
		limit := maxDev
		if sign < 0 && limit > 0.95 {
			limit = 0.95
		}
		g := func(mag float64) float64 { return h(sign * mag) }
		a, b, err := numeric.ExpandBracket(g, 0, 0.01, limit)
		if measureErr != nil {
			return 0, measureErr
		}
		if err != nil {
			continue
		}
		x, err := numeric.Brent(g, a, b, 1e-7)
		if err != nil {
			continue
		}
		if x < best {
			best = x
		}
	}
	return best, nil
}
