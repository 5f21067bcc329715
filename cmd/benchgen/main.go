// Command benchgen emits the generated benchmark netlists in ISCAS
// ".bench" format, for inspection or for use with external tools.
// Performance is measured by perfbench; see BENCHMARK.json.
//
// Usage:
//
//	benchgen -name c432            # one netlist to stdout
//	benchgen -all -dir ./netlists  # every benchmark into a directory
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/iscas"
	"repro/internal/logic"
)

func main() {
	name := flag.String("name", "", "benchmark to emit (c432, c499, c880, c1355, c1908, fig3, adder283)")
	all := flag.Bool("all", false, "emit every benchmark")
	dir := flag.String("dir", ".", "output directory when -all is used")
	flag.Parse()

	if *all {
		if err := emitAll(*dir); err != nil {
			fmt.Fprintf(os.Stderr, "benchgen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "benchgen: need -name or -all")
		os.Exit(2)
	}
	c, err := lookup(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgen: %v\n", err)
		os.Exit(1)
	}
	if err := c.WriteBench(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchgen: %v\n", err)
		os.Exit(1)
	}
}

func lookup(name string) (*logic.Circuit, error) {
	switch name {
	case "fig3":
		return iscas.Fig3(), nil
	case "adder283":
		return iscas.Adder283(), nil
	default:
		return iscas.Benchmark(name)
	}
}

func emitAll(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := append([]string{"fig3", "adder283"}, iscas.BenchmarkNames...)
	for _, n := range names {
		c, err := lookup(n)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, n+".bench")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := c.WriteBench(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}
