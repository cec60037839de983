// Command benchmark is the repository's end-to-end benchmark: four
// workloads (write, lookup, scan, served) over the whole engine stack, the
// end-to-end metrics a user of the engine sees, and a traced run that
// attributes them to layers from outside. README.md in this directory
// documents workloads, metrics and how to read the output; BENCHMARK.json
// at the repository root is the contract the pipeline reads.
//
//	bash benchmark/run.sh --workload lookup --seed 7 --seconds 12 --trace 0
//	bash benchmark/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

func run(cfg config) (*result, error) {
	// Earlier runs leave dirty pages and journal work behind (databases
	// written and deleted); flush them now so that they are not flushed by
	// this run's first syncs.
	syscall.Sync()
	switch cfg.workload {
	case "write":
		return runWrite(cfg)
	case "lookup":
		return runLookup(cfg)
	case "scan":
		return runScan(cfg)
	case "served":
		return runServed(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want write, lookup, scan or served)", cfg.workload)
}

// resultLine is the last line of standard output: the contract's object.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run as -out stores it and -compare reads it.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	resultLine
}

// report prints every metric the run measured by name with its unit — the
// user metrics the workload has, then in a traced run the per-layer ones —
// and then the result line, which holds what the pipeline's contract asks
// for: BENCHMARK.json's end_to_end metrics, or in a traced run its per_layer
// metrics (0 for one the workload does not exercise). It returns the line
// and the run as -out stores it, with every metric measured.
func report(w io.Writer, cfg config, res *result) (resultLine, runRecord) {
	line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	rec := runRecord{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, resultLine: line}
	rec.Metrics = map[string]metricValue{}
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	defs := userMetrics
	if cfg.trace {
		defs = append(defs[:len(defs):len(defs)], layerMetrics...)
	}
	for _, d := range defs {
		if v, ok := res.metrics[d.Name]; ok {
			rec.Metrics[d.Name] = metricValue{v, d.Unit}
			fmt.Fprintf(w, "  %-40s %16.6g %s\n", d.Name, v, d.Unit)
		}
	}
	defs = endToEnd()
	if cfg.trace {
		defs = perLayer()
	}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{res.metrics[d.Name], d.Unit}
	}
	b, _ := json.Marshal(line)
	fmt.Fprintln(w, string(b))
	return line, rec
}

// appendRun adds a run to the JSON array in path.
func appendRun(path string, rec runRecord) error {
	var runs []runRecord
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &runs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	runs = append(runs, rec)
	b, err := json.MarshalIndent(runs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func main() {
	var cfg config
	var traceFlag int
	var out string
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "write, lookup, scan or served (default: all four, one after the other)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated corpus and operation streams")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length the timed phase is sized for: it runs the workload's frozen rate times this many operations")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing the per-layer metrics and writing trace-<workload>.json")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes, for the package test")
	flag.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "work"), "work directory for databases and trace files")
	flag.StringVar(&out, "out", "", "append each run to this JSON file, for -compare")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: benchmark -compare A.json B.json")
	flag.Parse()
	cfg.trace = traceFlag != 0

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	workloads := workloadNames
	if cfg.workload != "" {
		workloads = []string{cfg.workload}
	}
	exit := 0
	for _, w := range workloads {
		c := cfg
		c.workload = w
		// Each run works in its own directory and leaves only trace files.
		c.dir = filepath.Join(cfg.dir, fmt.Sprintf("%s-%d-%d", w, cfg.seed, time.Now().UnixNano()))
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		res, err := run(c)
		if c.trace && err == nil {
			src := filepath.Join(c.dir, "trace-"+w+".json")
			err = os.Rename(src, filepath.Join(cfg.dir, "trace-"+w+".json"))
		}
		os.RemoveAll(c.dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w, err)
			os.Exit(2)
		}
		line, rec := report(os.Stdout, c, res)
		if !line.Correct {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed or mismatched the oracle\n", w, res.failed, res.attempted)
			exit = 1
		}
		if out != "" {
			if err := appendRun(out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(2)
			}
		}
	}
	os.Exit(exit)
}
