// Package experiments is the one place a measured body is written: the
// reproduction of every evaluation artifact in the paper (DESIGN.md's
// per-experiment index) as a registry. An experiment is a table builder that
// times its operations through a Meter, plus the benchmark cases that are not
// rows of a table; fixtures and timed operations exist once. Three thin
// consumers read the registry: cmd/rxbench renders the tables, rxbench
// -json/-compare runs the gated cases through testing.Benchmark, and the root
// bench_test.go runs everything under `go test -bench`.
package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// Experiment is one entry of the registry.
type Experiment struct {
	ID string
	// Table builds the experiment's EXPERIMENTS.md table. Nil for experiments
	// reported as benchmark cases only.
	Table func(*Meter) (*Table, error)
	// Cases builds their fixtures and returns the measured bodies that are
	// not operations of the table. Nil when there are none.
	Cases func() ([]Case, error)
}

// Case is one measured body. Whatever it needs beyond what Experiment.Cases
// built, it sets up before its own ResetTimer.
type Case struct {
	Name string
	// Gated cases have a committed baseline in bench/BENCH_<ID>.json that
	// `rxbench -json DIR -compare bench` holds them to.
	Gated bool
	Run   func(*testing.B)
}

// Registry lists every experiment, in EXPERIMENTS.md order.
func Registry() []Experiment {
	return []Experiment{
		{"E1", e1, nil},
		{"E2", e2, nil},
		{"E3", e3, e3Cases},
		{"E4", e4, nil},
		{"E5", e5, nil},
		{"E6", e6, nil},
		{"E7", e7, nil},
		{"E7b", e7b, nil},
		{"E8", e8, nil},
		{"E9", e9, nil},
		{"E10", e10, e10Cases},
		{"E11", e11, nil},
		{"E11b", e11b, nil},
		{"E13", nil, e13Cases},
		{"E14", nil, e14Cases},
		{"E15", e15, nil},
		{"E16", e16, e16Cases},
		{"E18", nil, e18Cases},
		{"E19", nil, e19Cases},
		{"E20", nil, e20Cases},
	}
}

// Bench runs the experiment under `go test -bench`: its cases, and every
// operation its table times, each as a sub-benchmark, at CI scale.
func (e Experiment) Bench(b *testing.B) {
	if e.Cases != nil {
		cases, err := e.Cases()
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cases {
			b.Run(c.Name, c.Run)
		}
	}
	if e.Table != nil {
		if _, err := e.Table(&Meter{Quick: true, b: b}); err != nil {
			b.Fatal(err)
		}
	}
}

// Meter is how a table builder times an operation, so that the operation is
// written once: a table takes the mean of a few runs, `go test -bench` (see
// Experiment.Bench) runs the same closure as a sub-benchmark.
type Meter struct {
	Quick bool // CI-sized workloads
	b     *testing.B
}

// pick returns the full-scale or the CI-scale value.
func (m *Meter) pick(full, small int) int {
	if m.Quick {
		return small
	}
	return full
}

// time runs the operation and returns its mean duration: over iters runs, or
// over the sub-benchmark's when benchmarking.
func (m *Meter) time(name string, iters int, run func() error) (el time.Duration, err error) {
	if m.b == nil {
		start := time.Now()
		for i := 0; i < iters && err == nil; i++ {
			err = run()
		}
		return time.Since(start) / time.Duration(iters), err
	}
	m.b.Run(name, func(b *testing.B) {
		loop(func() error { err = run(); return err })(b)
		el = b.Elapsed() / time.Duration(b.N)
	})
	return el, err
}

// loop is the benchmark body over one operation.
func loop(run func() error) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// op is one named operation over a fixture that is already built.
type op struct {
	name string
	run  func() error
}

// Table is one experiment's result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper's claim being checked
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Render prints the table in aligned text form.
func (t *Table) Render(w *strings.Builder) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "paper: %s\n", t.Claim)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "  %-*s", widths[i], c)
		}
		w.WriteString("\n")
	}
	line(t.Headers)
	var sep []string
	for _, wd := range widths {
		sep = append(sep, strings.Repeat("-", wd))
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	w.WriteString("\n")
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func i0(v int) string     { return fmt.Sprintf("%d", v) }
func dms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}
