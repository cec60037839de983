package main

// The machine-readable side of the registry. `rxbench -json DIR` runs every
// gated case (E3 sub-document update, E10 parse/shred, E13 query scan, E14
// checksum read, E16 bulk load, E18 planner, E19 stored-document scan kernel)
// through testing.Benchmark and writes one BENCH_<id>.json per suite;
// `-compare DIR` additionally checks the results against a committed baseline
// directory with a generous threshold gate (allocs/op is machine-independent
// and gated tightly; ns/op varies across hardware and only catches
// order-of-magnitude regressions). CI runs both and archives the JSON.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rx/internal/experiments"
)

type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Gate thresholds for -compare (fractions over baseline).
const (
	nsGate     = 1.5  // ns/op may grow 150% (cross-machine noise)
	allocsGate = 0.30 // allocs/op may grow 30%
)

// runGated returns the gated cases' results keyed by suite (experiment) ID.
func runGated() (map[string][]benchResult, error) {
	suites := map[string][]benchResult{}
	for _, e := range experiments.Registry() {
		if e.Cases == nil {
			continue
		}
		cases, err := e.Cases()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, c := range cases {
			if !c.Gated {
				continue
			}
			r := testing.Benchmark(c.Run)
			if r.N == 0 {
				return nil, fmt.Errorf("%s/%s failed", e.ID, c.Name)
			}
			suites[e.ID] = append(suites[e.ID], benchResult{
				Name:        c.Name,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			})
		}
	}
	return suites, nil
}

func writeBenchJSON(dir string, suites map[string][]benchResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for id, rs := range suites {
		data, err := json.MarshalIndent(rs, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, "BENCH_"+id+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

// compareBench gates current results against a baseline directory. Missing
// baseline files or benchmarks are reported but not fatal (new benchmarks
// need a first run to establish a baseline).
func compareBench(baseDir string, suites map[string][]benchResult) error {
	var failures []string
	for id, rs := range suites {
		path := filepath.Join(baseDir, "BENCH_"+id+".json")
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Printf("compare: no baseline %s (skipping)\n", path)
			continue
		}
		var base []benchResult
		if err := json.Unmarshal(data, &base); err != nil {
			return fmt.Errorf("compare: %s: %w", path, err)
		}
		byName := map[string]benchResult{}
		for _, b := range base {
			byName[b.Name] = b
		}
		for _, r := range rs {
			b, ok := byName[r.Name]
			if !ok {
				fmt.Printf("compare: %s/%s has no baseline (skipping)\n", id, r.Name)
				continue
			}
			if b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*(1+nsGate) {
				failures = append(failures, fmt.Sprintf("%s/%s: ns/op %.0f > baseline %.0f +%d%%",
					id, r.Name, r.NsPerOp, b.NsPerOp, int(nsGate*100)))
			}
			// A zero allocs/op baseline holds the case to zero.
			if float64(r.AllocsPerOp) > float64(b.AllocsPerOp)*(1+allocsGate) {
				failures = append(failures, fmt.Sprintf("%s/%s: allocs/op %d > baseline %d +%d%%",
					id, r.Name, r.AllocsPerOp, b.AllocsPerOp, int(allocsGate*100)))
			}
			fmt.Printf("compare: %s/%s ns/op %.0f (base %.0f)  allocs/op %d (base %d)\n",
				id, r.Name, r.NsPerOp, b.NsPerOp, r.AllocsPerOp, b.AllocsPerOp)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench regression:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}
