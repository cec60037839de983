package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// oneIteration makes testing.Benchmark run a body once for the rest of the
// test, as `-benchtime=1x` does.
func oneIteration(t *testing.T) {
	benchtime := flag.Lookup("test.benchtime")
	was := benchtime.Value.String()
	t.Cleanup(func() { benchtime.Value.Set(was) })
	benchtime.Value.Set("1x")
}

// TestRegistry walks the registry at smoke scale: every table builds with
// well-formed, non-empty rows, every case survives one iteration, and the
// gated cases are exactly the ones bench/BENCH_<ID>.json baselines — a
// renamed case fails here instead of silently dropping out of the gate.
func TestRegistry(t *testing.T) {
	oneIteration(t)

	gated := map[string]bool{}
	seen := map[string]bool{}
	for _, e := range Registry() {
		if seen[e.ID] || e.Table == nil && e.Cases == nil {
			t.Errorf("%s: registered twice, or with nothing to run", e.ID)
		}
		seen[e.ID] = true
		if e.Table != nil {
			tbl, err := e.Table(&Meter{Quick: true})
			if err != nil {
				t.Fatalf("%s table: %v", e.ID, err)
			}
			if tbl.ID != e.ID || len(tbl.Rows) == 0 {
				t.Errorf("%s: table %q with %d rows", e.ID, tbl.ID, len(tbl.Rows))
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Headers) {
					t.Errorf("%s: row %q under %d headers", e.ID, row, len(tbl.Headers))
				}
			}
		}
		if e.Cases == nil {
			continue
		}
		cases, err := e.Cases()
		if err != nil {
			t.Fatalf("%s cases: %v", e.ID, err)
		}
		for _, c := range cases {
			if testing.Benchmark(c.Run).N == 0 {
				t.Errorf("%s/%s failed", e.ID, c.Name)
			}
			if c.Gated {
				gated[e.ID+"/"+c.Name] = true
			}
		}
	}

	files, err := filepath.Glob("../../bench/BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no baselines under bench/: %v", err)
	}
	baselined := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var results []struct{ Name string }
		if err := json.Unmarshal(data, &results); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		id := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(file), "BENCH_"), ".json")
		for _, r := range results {
			baselined++
			if !gated[id+"/"+r.Name] {
				t.Errorf("%s baselines %s/%s, which is not a gated case of the registry", file, id, r.Name)
			}
		}
	}
	if baselined != len(gated) {
		t.Errorf("%d gated cases, %d baselined: a gated case has no baseline in bench/", len(gated), baselined)
	}
}

// TestBenchRunsTableOperations: under `go test -bench` the operations a table
// times run as sub-benchmarks of the experiment.
func TestBenchRunsTableOperations(t *testing.T) {
	oneIteration(t)

	runs := 0
	e := Experiment{ID: "probe", Table: func(m *Meter) (*Table, error) {
		_, err := m.time("op", 3, func() error { runs++; return nil })
		return &Table{}, err
	}}
	if testing.Benchmark(e.Bench).N == 0 || runs == 0 {
		t.Fatalf("benchmark failed or never ran the table's operation (%d runs)", runs)
	}
}

// TestE20AllocsIndependentOfDocumentSize is the read path's tripwire, as
// TestEvalStoredAllocsIndependentOfDocumentSize is the scan kernel's: a Get
// and an indexed query allocate the same per operation for 8-item and
// 64-item orders. A per-node term would add hundreds; the slack of 2 is for
// the walker and serializer pools, which a GC cycle empties.
func TestE20AllocsIndependentOfDocumentSize(t *testing.T) {
	cases, err := e20Cases()
	if err != nil {
		t.Fatal(err)
	}
	allocs := map[string]int64{}
	for _, c := range cases {
		allocs[c.Name] = testing.Benchmark(c.Run).AllocsPerOp()
		t.Logf("%s: %d allocs/op", c.Name, allocs[c.Name])
	}
	for _, op := range []string{"get-order", "indexed-query"} {
		small, large := allocs[fmt.Sprintf("%s/items=%d", op, e20Sizes[0])], allocs[fmt.Sprintf("%s/items=%d", op, e20Sizes[1])]
		if large > small+2 || small > large+2 {
			t.Errorf("%s: %d allocs at %d items, %d at %d; want the same constant", op, small, e20Sizes[0], large, e20Sizes[1])
		}
	}
}
