// rxbench is the command-line consumer of the experiment registry
// (internal/experiments): it regenerates every experiment table of
// EXPERIMENTS.md (the reproduction of the paper's evaluation artifacts; see
// DESIGN.md's per-experiment index) and runs the gated cases against the
// committed baselines.
//
// Usage:
//
//	rxbench                 # run everything
//	rxbench e1 e5 e7        # run selected experiments
//	rxbench -quick          # smaller workloads (CI-sized)
//	rxbench -json DIR       # run the gated cases, write BENCH_<id>.json
//	rxbench -json DIR -compare bench   # also gate against a baseline dir
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rx/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "smaller workloads")
	jsonDir := flag.String("json", "", "run the gated benchmark cases and write BENCH_<id>.json files to this directory (skips the experiment tables)")
	compareDir := flag.String("compare", "", "with -json: compare results against the baseline BENCH_*.json in this directory; exit nonzero on regression")
	flag.Parse()

	if *jsonDir != "" {
		suites, err := runGated()
		if err == nil {
			err = writeBenchJSON(*jsonDir, suites)
		}
		if err == nil && *compareDir != "" {
			err = compareBench(*compareDir, suites)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rxbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	sel := map[string]bool{}
	for _, a := range flag.Args() {
		sel[strings.ToLower(a)] = true
	}

	fmt.Println("System R/X reproduction — experiment harness")
	fmt.Println("(E12, Table-1 propagation semantics, is a correctness artifact: run `go test ./internal/quickxscan/ -run 'Table1|Propagation'`)")
	fmt.Println()
	for _, e := range experiments.Registry() {
		if e.Table == nil || len(sel) > 0 && !sel[strings.ToLower(e.ID)] {
			continue
		}
		start := time.Now()
		tbl, err := e.Table(&experiments.Meter{Quick: *quick})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		var sb strings.Builder
		tbl.Render(&sb)
		fmt.Print(sb.String())
		fmt.Printf("(%s took %v)\n\n", strings.ToUpper(e.ID), time.Since(start).Round(time.Millisecond))
	}
}
