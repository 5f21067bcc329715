package experiments

import (
	"fmt"
	"time"

	"repro/internal/atpg"
	"repro/internal/faults"
	"repro/internal/iscas"
)

// AblationRow compares ATPG strategies on one circuit: the paper's plain
// deterministic flow, a random-phase-accelerated flow, checkpoint-first
// targeting, and reverse-order static compaction of the deterministic
// vector set.
type AblationRow struct {
	Circuit string
	Faults  int

	DetVectors int // deterministic flow (the paper's choice)
	DetCPU     time.Duration

	RandVectors int // 256 random patterns first, deterministic top-up
	RandHits    int // faults dropped by the random phase
	RandCPU     time.Duration

	CkptTargets int // checkpoint faults targeted instead of collapsed list
	CkptVectors int
	CkptMissed  int // collapsed faults a checkpoint-only set leaves undetected
	CkptCPU     time.Duration

	CompactedVectors int // deterministic set after static compaction
}

func init() {
	register("ablation", "Ablation — deterministic vs random-phase vs checkpoint targeting vs compaction", runAblation)
}

// ablationCircuits keeps the ablation affordable while spanning sizes.
var ablationCircuits = []string{"c432", "c499", "c880"}

// RunAblationCircuit computes one ablation row; exported for benchmarks.
func RunAblationCircuit(name string) (AblationRow, error) {
	c, err := iscas.Benchmark(name)
	if err != nil {
		return AblationRow{}, err
	}
	fs := faults.Collapse(c)
	row := AblationRow{Circuit: name, Faults: len(fs)}

	// 1. Plain deterministic (the paper's configuration).
	g1, err := atpg.New(c)
	if err != nil {
		return AblationRow{}, err
	}
	det := g1.Run(fs)
	row.DetVectors = len(det.Vectors)
	row.DetCPU = det.CPU

	// 2. Random phase first.
	g2, err := atpg.New(c)
	if err != nil {
		return AblationRow{}, err
	}
	rnd := g2.Run(fs, atpg.WithRandomPhase(256, 1))
	row.RandVectors = len(rnd.Vectors)
	row.RandHits = rnd.RandomHits
	row.RandCPU = rnd.CPU

	// 3. Checkpoint-first targeting: generate for checkpoint faults
	// only, then measure what the set misses on the collapsed list
	// (nonzero for XOR-rich circuits — the theorem's precondition).
	g3, err := atpg.New(c)
	if err != nil {
		return AblationRow{}, err
	}
	cps := faults.Checkpoints(c)
	start := time.Now()
	ck := g3.Run(cps)
	row.CkptCPU = time.Since(start)
	row.CkptTargets = len(cps)
	row.CkptVectors = len(ck.Vectors)
	sim := faults.NewSimulator(c)
	detByCk := sim.Detect(ck.Vectors, fs)
	detByAll := sim.Detect(det.Vectors, fs)
	for i := range fs {
		if detByAll[i] >= 0 && detByCk[i] < 0 {
			row.CkptMissed++
		}
	}

	// 4. Static compaction of the deterministic set.
	row.CompactedVectors = len(g1.Compact(det.Vectors, fs))
	return row, nil
}

func runAblation() (*Result, error) {
	var data []AblationRow
	rows := [][]string{{
		"Circuit", "faults",
		"det vect", "det CPU",
		"rand vect", "rand hits", "rand CPU",
		"ckpt targets", "ckpt vect", "ckpt missed",
		"compacted",
	}}
	for _, name := range ablationCircuits {
		row, err := RunAblationCircuit(name)
		if err != nil {
			return nil, err
		}
		data = append(data, row)
		rows = append(rows, []string{
			row.Circuit, itoa(row.Faults),
			itoa(row.DetVectors), fmtDur(row.DetCPU),
			itoa(row.RandVectors), itoa(row.RandHits), fmtDur(row.RandCPU),
			itoa(row.CkptTargets), itoa(row.CkptVectors), itoa(row.CkptMissed),
			itoa(row.CompactedVectors),
		})
	}
	text := table("Ablation — ATPG strategy comparison (unconstrained runs)", rows)
	text += fmt.Sprintln("\nrand = 256 random patterns before the deterministic top-up " +
		"(the acceleration the paper notes is legal only without constraints);")
	text += fmt.Sprintln("ckpt = checkpoint faults targeted instead of the collapsed list " +
		"(misses are possible on XOR-rich logic, where the checkpoint theorem does not apply);")
	text += fmt.Sprintln("compacted = deterministic set after reverse-order static compaction.")
	return &Result{
		ID:    "ablation",
		Title: "Ablation: ATPG strategy choices",
		Text:  text,
		Data:  data,
	}, nil
}
