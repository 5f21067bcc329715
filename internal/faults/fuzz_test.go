//go:build gofuzz

package faults

import (
	"strings"
	"testing"

	"repro/internal/logic"
)

// FuzzDetectMatchesResim parses arbitrary .bench netlists and requires
// the event-driven kernel to match a full re-simulation for every fault
// of All under every input pattern: Detect's first detecting vector,
// index by index, and every signal's faulty word per batch. Circuits are
// bounded to 10 inputs and 200 gates so each input stays cheap.
//
// Run with: go test -tags gofuzz -fuzz FuzzDetectMatchesResim ./internal/faults
func FuzzDetectMatchesResim(f *testing.F) {
	f.Add("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")
	f.Add("INPUT(G1)\nINPUT(G2)\nOUTPUT(G17)\nG10 = NAND(G1, G1)\nG17 = OR(G10, G2)\n")
	f.Add("INPUT(a)\nOUTPUT(y)\ny = XOR(a, a)\n")
	f.Add("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(g1)\nOUTPUT(g3)\ng1 = AND(a, b)\ng3 = AND(g1, c)\n")
	f.Add("INPUT(a)\nINPUT(b)\nOUTPUT(a)\nOUTPUT(y)\ny = NOR(a, b)\n")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := logic.ParseBench("fuzz", strings.NewReader(src))
		if err != nil || len(c.Inputs()) > 10 || c.NumGates() > 200 {
			return
		}
		checkKernel(t, c, exhaustiveVectors(len(c.Inputs())), All(c))
	})
}
