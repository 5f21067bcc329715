package core

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/adc"
	"repro/internal/analog"
	"repro/internal/guard/chaos"
	"repro/internal/obs"
	"repro/internal/waveform"
)

// ElementTest records the outcome of the §2.3 automatic procedure for one
// analog element and one tolerance-box bound.
type ElementTest struct {
	Element  string
	Bound    Bound
	Param    string  // parameter whose deviation exposes the element
	ED       float64 // worst-case element deviation exercised (fraction)
	Act      Activation
	Prop     PropResult
	Testable bool
	// Reason explains a false Testable: "unobservable" (no parameter
	// sees the element) or "unpropagatable" (no comparator's composite
	// value reaches a primary output).
	Reason string
}

// TestAnalogElement runs the paper's automatic flow for one analog
// element: take its parameters from most to least sensitive (the ED
// matrix), activate the worst-case deviation through each comparator in
// turn, and propagate the composite value through the digital block. The
// first parameter/comparator pair that activates and propagates wins;
// when "all the possibilities are studied" without success the element is
// reported untestable through the mixed circuit.
func (mx *Mixed) TestAnalogElement(p *Propagator, matrix *analog.Matrix, elem string, bound Bound) (ElementTest, error) {
	return mx.TestAnalogElementCtx(context.Background(), p, matrix, elem, bound)
}

// TestAnalogElementCtx is TestAnalogElement with cancellation: the
// context is checked before each parameter/comparator attempt, so a
// deadline or cancel aborts the search for an activation mid-element
// instead of grinding through every remaining comparator. The element
// is also the "core.element" chaos site — fault-injection tests force
// panics and solver errors here to prove one bad element degrades to a
// classified outcome rather than killing the run. CPU samples taken
// under the element's activation/propagation search carry
// phase=analog and element=<name> pprof labels, so a profile scraped
// from the live ops server attributes solver time per element.
func (mx *Mixed) TestAnalogElementCtx(ctx context.Context, p *Propagator, matrix *analog.Matrix, elem string, bound Bound) (ElementTest, error) {
	var res ElementTest
	var err error
	pprof.Do(ctx, pprof.Labels("phase", "analog", "element", elem), func(ctx context.Context) {
		res, err = mx.testAnalogElement(ctx, p, matrix, elem, bound)
	})
	return res, err
}

func (mx *Mixed) testAnalogElement(ctx context.Context, p *Propagator, matrix *analog.Matrix, elem string, bound Bound) (ElementTest, error) {
	// The element span joins the caller's causal tree (the flow's analog
	// phase) and is itself the parent of whatever instrumented callees
	// pick up from ctx.
	span, ctx := obs.Default.StartSpanCtx(ctx, "core.element_test")
	defer span.End()
	start := time.Now()
	res := ElementTest{Element: elem, Bound: bound}
	if err := chaos.Step(ctx, chaos.SiteCoreElement, elem); err != nil {
		return res, fmt.Errorf("core: testing %s: %w", elem, err)
	}
	mx.Analog.BindContext(ctx)
	defer mx.Analog.BindContext(nil)
	order := matrix.ParamsFor(elem)
	if len(order) == 0 {
		res.Reason = "unobservable"
		emitElementEvent(start, res)
		return res, nil
	}
	for _, j := range order {
		param := matrix.Params[j]
		i := indexOf(matrix.Elements, elem)
		ed := matrix.ED[i][j]
		if analog.Unobservable(ed) {
			continue
		}
		for target := 1; target <= mx.Conv.NumComparators(); target++ {
			if err := ctx.Err(); err != nil {
				return res, fmt.Errorf("core: testing %s: %w", elem, err)
			}
			act, ok, err := mx.PlanActivation(elem, ed*1.0001, param, bound, target)
			if err != nil {
				return res, fmt.Errorf("core: activating %s via %s: %w", elem, param.Name(), err)
			}
			if !ok {
				continue
			}
			prop, ok, err := p.Propagate(act.Pattern)
			if err != nil {
				return res, err
			}
			if !ok {
				continue
			}
			res.Param = param.Name()
			res.ED = ed
			res.Act = act
			res.Prop = prop
			res.Testable = true
			emitElementEvent(start, res)
			return res, nil
		}
	}
	res.Reason = "unpropagatable"
	emitElementEvent(start, res)
	return res, nil
}

// emitElementEvent records one "element" event: the per-work-item record
// of the analog flow (tolerance bound, ED, covering parameter, Table 1
// activation stimulus, toggling comparator) consumed by the run report.
func emitElementEvent(start time.Time, res ElementTest) {
	bound := obs.Str("bound", res.Bound.String())
	if res.Testable {
		obs.Default.EventSince("element", res.Element, start,
			obs.Str("outcome", "testable"),
			bound,
			obs.Float("ed", res.ED),
			obs.Str("param", res.Param),
			obs.Str("stim", res.Act.Stim.String()),
			obs.Int("comparator", int64(res.Act.Target)),
			obs.Str("outputs", strings.Join(res.Prop.Outputs, " ")))
		return
	}
	obs.Default.EventSince("element", res.Element, start,
		obs.Str("outcome", "untestable"),
		bound,
		obs.Str("reason", res.Reason))
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// PropagationCensus reports, for each deviation direction, through which
// comparators a composite value can(not) reach a digital primary output —
// the per-circuit rows of Table 5. A deviation below −x% lowers the
// response, so the comparator reads 1 in the good circuit and 0 in the
// faulty one (D); a deviation above +x% produces D̄.
type PropagationCensus struct {
	// BlockedLow lists comparators (1-based) through which a D (dev <
	// −x%) cannot be propagated; BlockedHigh the same for D̄ (dev > +x%).
	BlockedLow  []int
	BlockedHigh []int
	// AllowedEither marks comparators usable in at least one direction,
	// the set Table 7 restricts the conversion-element coverage to.
	AllowedEither map[int]bool
}

// CensusPropagation probes every comparator position with both composite
// polarities on the adjacent-thermometer background. Each probe leaves
// one "comparator" event recording which directions are blocked.
func (mx *Mixed) CensusPropagation(p *Propagator) (*PropagationCensus, error) {
	defer obs.Default.StartSpan("core.census").End()
	n := mx.Conv.NumComparators()
	out := &PropagationCensus{AllowedEither: map[int]bool{}}
	for k := 1; k <= n; k++ {
		start := time.Now()
		okLow := false
		okHigh := false
		if _, ok, err := p.Propagate(ComparatorPattern(n, k, waveform.D)); err != nil {
			return nil, err
		} else if ok {
			okLow = true
		}
		if _, ok, err := p.Propagate(ComparatorPattern(n, k, waveform.DBar)); err != nil {
			return nil, err
		} else if ok {
			okHigh = true
		}
		if !okLow {
			out.BlockedLow = append(out.BlockedLow, k)
		}
		if !okHigh {
			out.BlockedHigh = append(out.BlockedHigh, k)
		}
		if okLow || okHigh {
			out.AllowedEither[k] = true
		}
		obs.Default.EventSince("comparator", fmt.Sprintf("c%d", k), start,
			obs.Int("comparator", int64(k)),
			obs.Bool("blocked_low", !okLow),
			obs.Bool("blocked_high", !okHigh))
	}
	return out, nil
}

// ConversionCoverage computes the conversion-block element coverage table
// (Table 6 when census is nil — direct access to the converter — and
// Table 7 when restricted to the comparators the census says propagate).
// The result has one entry per ladder resistor; +Inf marks an
// untestable-through-this-circuit element (the paper's dashed cells).
func (mx *Mixed) ConversionCoverage(census *PropagationCensus, opt adc.EDOptions) []float64 {
	var allowed map[int]bool
	if census != nil {
		allowed = census.AllowedEither
	}
	return mx.Conv.CoverageTable(allowed, opt)
}

// BestConversionComparators returns, per ladder resistor, the comparator
// used to test it under the census restriction (0 = untestable) — the
// "comparators connected to ..." rows of Table 7.
func (mx *Mixed) BestConversionComparators(census *PropagationCensus, opt adc.EDOptions) []int {
	var allowed map[int]bool
	if census != nil {
		allowed = census.AllowedEither
	}
	out := make([]int, mx.Conv.NumResistors())
	for i := 1; i <= mx.Conv.NumResistors(); i++ {
		out[i-1] = mx.Conv.BestComparatorFor(i, allowed, opt)
	}
	return out
}

// VerifyActivation replays an activation against the analog block and
// reports the measured fault-free and faulty response amplitudes and the
// composite value actually seen at the target comparator — used by the
// validation experiments to show the planned stimulus behaves as
// predicted.
func (mx *Mixed) VerifyActivation(elem string, delta float64, act Activation) (good, faulty float64, v waveform.Composite, err error) {
	good, err = waveform.ResponseAmplitude(mx.Analog, mx.AnalogOut, act.Stim)
	if err != nil {
		return 0, 0, waveform.Zero, err
	}
	restore := mx.Analog.Perturb(elem, delta)
	defer restore()
	faulty, err = waveform.ResponseAmplitude(mx.Analog, mx.AnalogOut, act.Stim)
	if err != nil {
		return 0, 0, waveform.Zero, err
	}
	vt := mx.Conv.Threshold(act.Target)
	return good, faulty, waveform.Classify(good, faulty, vt), nil
}

// MinFinite returns the smallest finite value of xs, or +Inf.
func MinFinite(xs []float64) float64 {
	best := math.Inf(1)
	for _, x := range xs {
		if x < best {
			best = x
		}
	}
	return best
}
