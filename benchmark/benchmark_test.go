package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"rx/benchmark/gen"
	"rx/internal/core"
	"rx/internal/session"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// workloadMetrics are the user metrics each workload has beyond the ones
// every workload has.
var workloadMetrics = map[string][]string{
	"write":  {"query_p50_ms", "query_p99_ms", "get_p50_ms", "get_p99_ms", "insert_p50_ms", "insert_p99_ms", "update_p50_ms", "update_p99_ms", "recovery_s"},
	"lookup": {"query_p50_ms", "query_p99_ms", "get_p50_ms", "get_p99_ms"},
	"scan":   {"query_p50_ms", "query_p99_ms", "get_p50_ms", "get_p99_ms"},
	"served": {"query_p50_ms", "query_p99_ms", "get_p50_ms", "get_p99_ms", "insert_p50_ms", "insert_p99_ms", "late_share"},
}

// TestSmoke runs all four workloads at smoke size, untraced and traced, and
// checks that every metric BENCHMARK.json names is printed with its unit,
// that the untraced run measures every user metric the workload has, and
// that no operation failed the oracle.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 42, seconds: 0.4, trace: traced, smoke: true, dir: t.TempDir()}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 || res.metrics["failed_share"] != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w, traced, res.failed, res.attempted, res.notes)
			}
			for _, d := range endToEnd() {
				if v, ok := res.metrics[d.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: end-to-end metric %s = %v (present %v); every workload must measure it and it is never 0", w, d.Name, v, ok)
				}
			}
			for _, name := range workloadMetrics[w] {
				if v, ok := res.metrics[name]; !ok || (v <= 0 && name != "late_share") {
					t.Errorf("%s trace=%v: user metric %s = %v (present %v)", w, traced, name, v, ok)
				}
			}
			line, rec := report(io.Discard, cfg, res)
			want := endToEnd()
			if traced {
				want = perLayer()
				if _, err := os.Stat(filepath.Join(cfg.dir, "trace-"+w+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w, err)
				}
				if res.metrics["harness.trace_overhead_share"] == 0 {
					t.Errorf("%s: harness.trace_overhead_share not reported", w)
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: the result line has %d metrics, want %d", w, traced, len(line.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: result line metric %s = %+v (present %v), want unit %s", w, traced, d.Name, m, ok, d.Unit)
				}
			}
			if len(rec.Metrics) < len(endToEnd())+len(workloadMetrics[w]) {
				t.Errorf("%s trace=%v: -out would store %d metrics", w, traced, len(rec.Metrics))
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics this package prints, with the same units, directions and
// bounds.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, g := range got {
			w := want[i]
			better := "lower"
			if w.Higher {
				better = "higher"
			}
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != better {
				t.Errorf("%s[%d]: BENCHMARK.json says %+v, the benchmark prints %s %s better=%s", kind, i, g, w.Name, w.Unit, better)
			}
			if !nameRE.MatchString(g.Name) || seen[g.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, g.Name)
			}
			seen[g.Name] = true
			if bounded && (g.Bound == nil || *g.Bound != w.Gate || *g.Bound > 0.25) {
				t.Errorf("%s: %s bound %v, want %v (at most 0.25)", kind, g.Name, g.Bound, w.Gate)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: %s has a bound; per-layer metrics have none", kind, g.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd(), true)
	check("per_layer", doc.PerLayer, perLayer(), false)
}

// TestOracleRejectsCorruption corrupts what the oracle expects of a correct
// query and a correct Get and checks both are then reported as failed.
func TestOracleRejectsCorruption(t *testing.T) {
	ctx := context.Background()
	eng, err := openEngine(engineOpts{dir: t.TempDir(), poolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.close()
	rng := rand.New(rand.NewSource(1))
	pop := gen.NewPopulation(rng, 600, "cust")
	col, err := eng.db.CreateCollection(ordersCol, core.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sess := session.New(eng.db)
	defer sess.Close()
	ids, err := loadBatches(ctx, sess, ordersCol, pop.Docs)
	if err != nil {
		t.Fatal(err)
	}
	_ = col
	mix := gen.NewReadMix(rng, ordersCol, "cust", pop, gen.LookupWeights)
	q, g := mix.Query(), mix.Get()
	if _, ok := runQuery(ctx, sess, &q); !ok {
		t.Fatalf("correct query %s rejected", q.Expr)
	}
	if _, ok := runGet(ctx, sess, &g, ids[g.Doc]); !ok {
		t.Fatal("correct Get rejected")
	}
	bad := q
	bad.Want.Sum++
	if _, ok := runQuery(ctx, sess, &bad); ok {
		t.Error("query with a corrupted value digest accepted")
	}
	bad = q
	bad.Want.Count++
	if _, ok := runQuery(ctx, sess, &bad); ok {
		t.Error("query with a corrupted count accepted")
	}
	badGet := g
	badGet.WantHash++
	if _, ok := runGet(ctx, sess, &badGet, ids[g.Doc]); ok {
		t.Error("Get with a corrupted hash accepted")
	}
}

// writeRuns writes five synthetic lookup runs to path: every user metric is
// 100 times its factor in scale (1 when absent; the two shares are the
// factor itself, 0 when absent), run i moved by jitter×(i−2).
func writeRuns(t *testing.T, path string, scale map[string]float64, jitter float64) {
	t.Helper()
	var runs []runRecord
	for i := 0; i < 5; i++ {
		line := resultLine{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
		for _, d := range userMetrics {
			f, ok := scale[d.Name]
			v := 100 * (1 + jitter*float64(i-2))
			switch {
			case d.Abs:
				v = f
			case ok:
				v *= f
			}
			line.Metrics[d.Name] = metricValue{v, d.Unit}
		}
		runs = append(runs, runRecord{"lookup", int64(i), 15, false, line})
	}
	b, err := json.Marshal(runs)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCompare checks -compare on synthetic runs: equal runs are ok; a 20 %
// regression of a timing or a throughput is worse, in either direction, and
// so are a 5 % larger stored ratio, a late share up by 0.01 and any failed
// share; a worsening within the bound is ok; and a spread wider than the
// bound is unresolved.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	a, same, slow, noisy := filepath.Join(dir, "a.json"), filepath.Join(dir, "same.json"), filepath.Join(dir, "slow.json"), filepath.Join(dir, "noisy.json")
	writeRuns(t, a, nil, 0.001)
	writeRuns(t, same, nil, 0.001)
	writeRuns(t, slow, map[string]float64{"ops_per_s": 0.8, "ingest_mb_per_s": 0.8, "query_p50_ms": 1.2, "query_p99_ms": 1.2, "recovery_s": 1.2,
		"setup_s": 1.05, "get_p99_ms": 1.12, "stored_bytes_per_user_byte": 1.05, "late_share": 0.01, "failed_share": 0.001}, 0.001)
	writeRuns(t, noisy, nil, 0.3)
	var out bytes.Buffer
	if worse, err := compareFiles(&out, a, same); err != nil || worse || bytes.Contains(out.Bytes(), []byte("unresolved")) {
		t.Errorf("equal runs: worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	worse, err := compareFiles(&out, a, slow)
	if err != nil || !worse {
		t.Errorf("regression not flagged: worse=%v err=%v", worse, err)
	}
	for _, want := range []string{`ops_per_s .* worse`, `ingest_mb_per_s .* worse`, `query_p50_ms .* worse`, `query_p99_ms .* worse`, `recovery_s .* worse`,
		`stored_bytes_per_user_byte .* worse`, `late_share .* worse`, `failed_share .* worse`,
		`setup_s .* ok`, `get_p99_ms .* ok`, `get_p50_ms .* ok`} {
		if !regexp.MustCompile(want).Match(out.Bytes()) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if worse, err := compareFiles(&out, noisy, noisy); err != nil || worse || !bytes.Contains(out.Bytes(), []byte("unresolved")) {
		t.Errorf("wide spread not reported as unresolved (worse=%v err=%v):\n%s", worse, err, out.String())
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(v, n=4), which the pipeline uses.
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2, 5, 4})
	if q1 != 1.5 || med != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v %v %v, want 1.5 3 4.5", q1, med, q3)
	}
}
