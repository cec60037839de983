package main

// Machine-readable smoke benchmarks. `rxbench -json DIR` runs a small
// benchmark per perf-tracked experiment suite (E3 sub-document update, E10
// parse/shred, E13 query scan, E14 checksum read, E16 bulk load, E18 planner,
// E19 stored-document scan kernel) through testing.Benchmark and
// writes one BENCH_<id>.json per suite; `-compare DIR` additionally checks
// the results against a committed baseline directory with a generous
// threshold gate (allocs/op is machine-independent and gated tightly;
// ns/op varies across hardware and only catches order-of-magnitude
// regressions). CI runs both and archives the JSON.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rx/internal/buffer"
	"rx/internal/core"
	"rx/internal/pagestore"
	"rx/internal/xml"
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

func benchDocXML(i int) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, `<Product pid="%d" cat="tools">`, i)
	fmt.Fprintf(&sb, `<Name>Widget %d</Name><Price>%d.99</Price>`, i, i%97)
	for j := 0; j < 16; j++ {
		fmt.Fprintf(&sb, `<Part num="%d-%d"><Desc>part %d of product %d, standard finish</Desc><Qty>%d</Qty></Part>`,
			i, j, j, i, j*3)
	}
	sb.WriteString(`</Product>`)
	return []byte(sb.String())
}

func run(name string, fn func(b *testing.B)) benchResult {
	r := testing.Benchmark(fn)
	return benchResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

func mustDB(b *testing.B) (*core.DB, *core.Collection) {
	db, err := core.OpenMemory()
	if err != nil {
		b.Fatal(err)
	}
	col, err := db.CreateCollection("bench", core.CollectionOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return db, col
}

// runSmokeBenchmarks returns results keyed by suite ID.
func runSmokeBenchmarks() map[string][]benchResult {
	suites := map[string][]benchResult{}

	// E3 — one transactional UpdateText on a multi-record document with one
	// value index: the edit pipeline end to end (plan, undo record, record
	// rewrite, value-key maintenance).
	suites["E3"] = []benchResult{
		run("txn-update-text", func(b *testing.B) {
			db, err := core.OpenMemory()
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			col, err := db.CreateCollection("bench", core.CollectionOptions{PackThreshold: 256})
			if err != nil {
				b.Fatal(err)
			}
			if err := col.CreateValueIndex("qty", "/Product/Part/Qty", xml.TDouble); err != nil {
				b.Fatal(err)
			}
			id, err := col.Insert(benchDocXML(1))
			if err != nil {
				b.Fatal(err)
			}
			texts, _, err := col.Query("/Product/Part/Qty/text()")
			if err != nil || len(texts) != 16 {
				b.Fatalf("Qty texts: %d, %v", len(texts), err)
			}
			if n := col.XMLTable().Count(); n < 3 {
				panic(fmt.Sprintf("E3: document packed into %d records, want several", n))
			}
			vals := [2][]byte{[]byte("7"), []byte("8")}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				node := texts[i%len(texts)].Node
				err := db.RunTxn(func(t *core.Txn) error { return t.UpdateText(col, id, node, vals[i&1]) })
				if err != nil {
					b.Fatal(err)
				}
			}
		}),
	}

	// E10 — parse + shred + index maintenance (single-document insert).
	suites["E10"] = []benchResult{
		run("insert", func(b *testing.B) {
			db, col := mustDB(b)
			defer db.Close()
			doc := benchDocXML(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := col.Insert(doc); err != nil {
					b.Fatal(err)
				}
			}
		}),
	}

	// E13 — scan-shaped query over stored documents (zero-copy walk path).
	suites["E13"] = []benchResult{
		run("scan-query", func(b *testing.B) {
			db, col := mustDB(b)
			defer db.Close()
			for i := 0; i < 16; i++ {
				if _, err := col.Insert(benchDocXML(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs, _, err := col.QueryOpts("/Product/Part/Qty", core.QueryOptions{NeedValues: true})
				if err != nil {
					b.Fatal(err)
				}
				if len(rs) == 0 {
					b.Fatal("no results")
				}
			}
		}),
	}

	// E14 — page read cost: raw store, checksum-verified store, and a hot
	// (resident) page through the buffer pool over each. The pool pair is
	// the engine-visible number: a hot page verifies once per residency, so
	// the checksummed read must be within noise of the raw one.
	newStore := func(b *testing.B, checksummed bool) pagestore.Store {
		var s pagestore.Store = pagestore.NewMemStore()
		if checksummed {
			s = pagestore.NewChecksumStore(s)
		}
		id, err := s.Allocate()
		if err != nil {
			b.Fatal(err)
		}
		page := make([]byte, pagestore.PageSize)
		for i := range page {
			page[i] = byte(i)
		}
		if err := s.WritePage(id, page); err != nil {
			b.Fatal(err)
		}
		return s
	}
	storeRead := func(checksummed bool) func(b *testing.B) {
		return func(b *testing.B) {
			s := newStore(b, checksummed)
			buf := make([]byte, pagestore.PageSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.ReadPage(0, buf); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	poolHot := func(checksummed bool) func(b *testing.B) {
		return func(b *testing.B) {
			s := newStore(b, checksummed)
			pool := buffer.New(s, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := pool.Fetch(0)
				if err != nil {
					b.Fatal(err)
				}
				pool.Unpin(f, false)
			}
		}
	}
	suites["E14"] = []benchResult{
		run("store-read/raw", storeRead(false)),
		run("store-read/checksum", storeRead(true)),
		run("pool-hot/raw", poolHot(false)),
		run("pool-hot/checksum", poolHot(true)),
	}

	// E18 — adversarial planner workloads: data shapes where the old
	// hard-wired index-first heuristic picks a pathological access path.
	// Each pair benchmarks the heuristic's choice (pinned via ForceMethod)
	// against the costed planner's pick on the same data; the committed
	// baseline preserves the gap so a planner regression trips the gate.
	suites["E18"] = e18Benchmarks()

	// E19 — the stored-document scan kernel, per document: one record walk
	// feeding QuickXScan with nothing to keep, so what is measured is the
	// walker, the ID synthesis and the matcher. allocs/op is the tripwire: a
	// small per-document constant, with no per-node term.
	suites["E19"] = e19Benchmarks()

	// E16 — bulk load (32-document batches through InsertBatch).
	suites["E16"] = []benchResult{
		run("bulk-load-32", func(b *testing.B) {
			db, col := mustDB(b)
			defer db.Close()
			docs := make([][]byte, 32)
			for i := range docs {
				docs[i] = benchDocXML(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := col.InsertBatch(docs, core.BatchOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}),
	}
	return suites
}

// e18DocXML is the adversarial shape: one selective field (Sku) and 64
// Part/Qty entries per document, so an index over Qty holds 64 entries per
// document and walking it costs far more than evaluating the document once.
func e18DocXML(i int) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, `<Product><Sku>SKU-%d</Sku>`, i)
	for j := 0; j < 64; j++ {
		fmt.Fprintf(&sb, `<Part><Qty>%d</Qty></Part>`, j)
	}
	sb.WriteString(`</Product>`)
	return []byte(sb.String())
}

func e18Benchmarks() []benchResult {
	db, err := core.OpenMemory()
	if err != nil {
		panic(err)
	}
	defer db.Close()
	newCol := func(name string, opts core.CollectionOptions) *core.Collection {
		col, err := db.CreateCollection(name, opts)
		if err != nil {
			panic(err)
		}
		docs := make([][]byte, 200)
		for i := range docs {
			docs[i] = e18DocXML(i)
		}
		if _, err := col.InsertBatch(docs, core.BatchOptions{}); err != nil {
			panic(err)
		}
		return col
	}
	mustIndex := func(col *core.Collection, name, path string, t xml.TypeID) {
		if err := col.CreateValueIndex(name, path, t); err != nil {
			panic(err)
		}
	}
	mustPlan := func(col *core.Collection, expr, want string) {
		_, p, err := col.Query(expr)
		if err != nil {
			panic(err)
		}
		if p.Method != want {
			panic(fmt.Sprintf("E18: costed planner picked %q for %s, expected %q", p.Method, expr, want))
		}
	}
	q := func(col *core.Collection, expr, force string, wantResults int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs, _, err := col.QueryOpts(expr, core.QueryOptions{ForceMethod: force})
				if err != nil {
					b.Fatal(err)
				}
				if len(rs) != wantResults {
					b.Fatalf("results = %d, want %d", len(rs), wantResults)
				}
			}
		}
	}

	// filter: the only matching index (//Qty) is inexact, the predicate
	// anchors at Part, and the documents are multi-record — the shape where
	// the old heuristic hard-wired NodeID filtering, fetching and
	// re-evaluating all 12800 Part subtrees one by one. The cost model
	// prices that walk against scanning the 200 documents and scans.
	filterCol := newCol("e18_filter", core.CollectionOptions{PackThreshold: 512})
	mustIndex(filterCol, "ix_any_qty", "//Qty", xml.TDouble)
	if err := filterCol.RefreshStats(nil); err != nil {
		panic(err)
	}
	filter := `/Product/Part[Qty >= 0]`
	mustPlan(filterCol, filter, "scan")

	// andorder: the old heuristic ANDed every available index, dragging the
	// worthless Qty index (64 entries/doc, selectivity 1.0) into the merge;
	// the cost model prices its saving at zero and probes only Sku.
	andCol := newCol("e18_and", core.CollectionOptions{})
	mustIndex(andCol, "ix_sku", "/Product/Sku", xml.TString)
	mustIndex(andCol, "ix_qty", "/Product/Part/Qty", xml.TDouble)
	if err := andCol.RefreshStats(nil); err != nil {
		panic(err)
	}
	andorder := `/Product[Sku = 'SKU-42' and Part/Qty >= 0]`
	mustPlan(andCol, andorder, "docid-list")

	return []benchResult{
		run("filter/heuristic", q(filterCol, filter, "nodeid-filtering", 12800)),
		run("filter/costed", q(filterCol, filter, "", 12800)),
		run("andorder/heuristic", q(andCol, andorder, "nodeid-anding", 1)),
		run("andorder/costed", q(andCol, andorder, "", 1)),
	}
}

// e19Docs is how many documents one E19 scan covers; the per-query set-up
// (parse, plan, compile) is spread over them and rounds to nothing.
const e19Docs = 512

func e19Benchmarks() []benchResult {
	db, err := core.OpenMemory()
	if err != nil {
		panic(err)
	}
	defer db.Close()
	col, err := db.CreateCollection("e19", core.CollectionOptions{})
	if err != nil {
		panic(err)
	}
	docs := make([][]byte, e19Docs)
	for i := range docs {
		docs[i] = benchDocXML(i) // ≈100 stored nodes, one record
	}
	if _, err := col.InsertBatch(docs, core.BatchOptions{}); err != nil {
		panic(err)
	}
	// One op is one document: each pass scans the whole collection serially
	// and advances the op count by its size.
	scan := func(expr string) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for done := 0; done < b.N; done += e19Docs {
				rs, _, err := col.QueryOpts(expr, core.QueryOptions{NeedValues: true, Parallelism: 1})
				if err != nil {
					b.Fatal(err)
				}
				if len(rs) != 0 {
					b.Fatalf("%s: %d results, want none", expr, len(rs))
				}
			}
		}
	}
	return []benchResult{
		// Descendant axes keep every subtree alive: all ≈100 nodes of a
		// document are decoded and matched.
		run("stored-scan/descendant", scan(`//Part[Qty > 1000]/Desc`)),
		// Child axes let the evaluator rule subtrees out: the 16 Part
		// subtrees of a document are stepped over by their byte length.
		run("stored-scan/child-axis", scan(`/Product[Price > 1000]/Name`)),
	}
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
			if b.AllocsPerOp > 0 && float64(r.AllocsPerOp) > float64(b.AllocsPerOp)*(1+allocsGate) {
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
