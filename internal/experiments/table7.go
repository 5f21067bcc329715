package experiments

import (
	"fmt"

	"repro/internal/adc"
	"repro/internal/core"
)

// Table7Block is the conversion-element coverage when the converter is
// embedded in the mixed circuit, observed through one digital benchmark.
type Table7Block struct {
	Circuit         string
	ED              []float64 // fraction per ladder resistor; +Inf = dashed cell
	BestComparators []int     // 0 = untestable through this circuit
	Untestable      []int     // 1-based resistors with no usable comparator
}

// Table7Circuits lists the digital blocks the paper's Table 7 reports.
var Table7Circuits = []string{"c432", "c499", "c1355"}

func init() {
	register("table7", "Table 7 — conversion element coverage inside the mixed circuit", runTable7)
}

// RunTable7Circuit computes the restricted coverage through one digital
// block; exported for the root benchmarks.
func RunTable7Circuit(name string) (Table7Block, error) {
	mx, _, _, err := Vehicle("chebyshev", name)
	if err != nil {
		return Table7Block{}, err
	}
	p, err := core.NewPropagator(mx)
	if err != nil {
		return Table7Block{}, err
	}
	census, err := mx.CensusPropagation(p)
	if err != nil {
		return Table7Block{}, err
	}
	opt := adc.DefaultEDOptions()
	block := Table7Block{
		Circuit:         name,
		ED:              mx.ConversionCoverage(census, opt),
		BestComparators: mx.BestConversionComparators(census, opt),
	}
	for i, k := range block.BestComparators {
		if k == 0 {
			block.Untestable = append(block.Untestable, i+1)
		}
	}
	return block, nil
}

func runTable7() (*Result, error) {
	var data []Table7Block
	text := ""
	for _, name := range Table7Circuits {
		block, err := RunTable7Circuit(name)
		if err != nil {
			return nil, err
		}
		data = append(data, block)
		rows := [][]string{{"E"}, {"ED[%]"}, {"via Vt"}}
		for i := range block.ED {
			rows[0] = append(rows[0], fmt.Sprintf("R%d", i+1))
			rows[1] = append(rows[1], pct(block.ED[i]))
			via := "—"
			if block.BestComparators[i] != 0 {
				via = itoa(block.BestComparators[i])
			}
			rows[2] = append(rows[2], via)
		}
		text += table(fmt.Sprintf("Table 7 — coverage through %s (— = reference voltage untestable)", name), rows)
		text += "\n"
	}
	return &Result{
		ID:    "table7",
		Title: "Table 7: conversion-block element coverage as part of the mixed circuit",
		Text:  text,
		Data:  data,
	}, nil
}
