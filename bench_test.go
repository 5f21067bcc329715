package repro_test

import (
	"testing"

	"repro/internal/adc"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/iscas"
	"repro/internal/waveform"
)

// Each benchmark regenerates one table or figure of the paper's
// evaluation section. Run them all with:
//
//	go test -bench=. -benchmem
//
// The per-circuit Table 4 benches correspond to the CPU column of the
// paper's Table 4 (measured on this machine instead of a 1995
// workstation; only the with/without-constraints ratio is meaningful).

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id); err != nil {
			b.Fatalf("Run(%s): %v", id, err)
		}
	}
}

// BenchmarkEq1BandPassED regenerates the Equation 1 matrix (Example 1).
func BenchmarkEq1BandPassED(b *testing.B) { benchExperiment(b, "eq1") }

// BenchmarkFig3ConstrainedATPG regenerates Example 2 (Figure 3).
func BenchmarkFig3ConstrainedATPG(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig6Propagation regenerates the Figure 6 OBDD propagation.
func BenchmarkFig6Propagation(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkTable3Chebyshev regenerates Table 3 (standalone vs embedded
// Chebyshev element deviations).
func BenchmarkTable3Chebyshev(b *testing.B) { benchExperiment(b, "table3") }

// benchTable4 runs the with/without-constraints ATPG pair on one circuit.
func benchTable4(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable4Circuit(name); err != nil {
			b.Fatalf("table4 %s: %v", name, err)
		}
	}
}

// One benchmark per row of Table 4.
func BenchmarkTable4ATPGc432(b *testing.B)  { benchTable4(b, "c432") }
func BenchmarkTable4ATPGc499(b *testing.B)  { benchTable4(b, "c499") }
func BenchmarkTable4ATPGc880(b *testing.B)  { benchTable4(b, "c880") }
func BenchmarkTable4ATPGc1355(b *testing.B) { benchTable4(b, "c1355") }
func BenchmarkTable4ATPGc1908(b *testing.B) { benchTable4(b, "c1908") }

// BenchmarkTable5Propagation regenerates the comparator census of Table 5.
func BenchmarkTable5Propagation(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkTable6Conversion regenerates the direct-access ladder coverage.
func BenchmarkTable6Conversion(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkTable7ConversionMixed regenerates the embedded ladder coverage.
func BenchmarkTable7ConversionMixed(b *testing.B) { benchExperiment(b, "table7") }

// BenchmarkTable8StateVar regenerates the validation-board table.
func BenchmarkTable8StateVar(b *testing.B) { benchExperiment(b, "table8") }

// BenchmarkExtensionDA regenerates the digital→DAC→analog extension
// experiment (the paper's announced dual configuration).
func BenchmarkExtensionDA(b *testing.B) { benchExperiment(b, "extda") }

// BenchmarkAblation regenerates the ATPG strategy ablation (deterministic
// vs random-phase vs checkpoint targeting vs compaction).
func BenchmarkAblation(b *testing.B) { benchExperiment(b, "ablation") }

// --- component-level bench ----------------------------------------------
// perfbench (BENCHMARK.json) times the engines the tables are built
// from: OBDD construction, vector extraction, fault simulation, the MNA
// solve and the worst-case ED search. No perfbench metric times a single
// composite-value propagation, so that one stays here.

// BenchmarkDPropagationC1908 times one composite-value propagation (one
// cell of the Table 5 census) through the largest digital block.
func BenchmarkDPropagationC1908(b *testing.B) {
	dig := iscas.MustBenchmark("c1908")
	flash := adc.NewFlash(experiments.ComparatorCount, 0, 16)
	mx, err := core.NewMixed(circuits.Chebyshev5(), circuits.ChebyshevOutput,
		flash, dig, experiments.BoundInputs(dig, "c1908"))
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewPropagator(mx)
	if err != nil {
		b.Fatal(err)
	}
	pattern := core.ComparatorPattern(experiments.ComparatorCount, 8, waveform.D)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Propagate(pattern); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigures regenerates the schematic-figure realizations.
func BenchmarkFigures(b *testing.B) { benchExperiment(b, "figures") }
