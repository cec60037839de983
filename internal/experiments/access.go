package experiments

// E7, E7b, E13, E18, E19: queries over stored collections — the §4.3 access
// methods (Table 2), the parallel scan, the costed planner against the old
// access-path heuristic, and the stored-document scan kernel.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"rx/internal/core"
	"rx/internal/xml"
	"rx/internal/xmlgen"
)

// stored inserts docs, one batch, into a fresh in-memory collection.
func stored(opts core.CollectionOptions, docs [][]byte) (*core.Collection, error) {
	db, col, err := memCollection(opts)
	if err != nil {
		return nil, err
	}
	err = db.RunTxn(func(t *core.Txn) error { _, err := t.InsertBatch(col, docs, core.BatchOptions{}); return err })
	return col, err
}

// generate returns n documents.
func generate(n int, doc func(i int) []byte) [][]byte {
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = doc(i)
	}
	return docs
}

// catalogs stores docs generated catalogs of the given size.
func catalogs(seed int64, docs, products int) (*core.Collection, error) {
	rng := rand.New(rand.NewSource(seed))
	return stored(core.CollectionOptions{}, generate(docs, func(int) []byte { return xmlgen.Catalog(rng, products, 1000) }))
}

// queryOp evaluates expr in full. want, when not negative, is the result
// count every evaluation must return.
func queryOp(col *core.Collection, expr string, opts core.QueryOptions, want int) func() error {
	return func() error {
		rs, _, err := col.QueryOpts(expr, opts)
		if err == nil && want >= 0 && len(rs) != want {
			err = fmt.Errorf("%s: %d results, want %d", expr, len(rs), want)
		}
		return err
	}
}

// indexDef is one value index of a fixture.
type indexDef struct {
	name, path string
	typ        xml.TypeID
}

func createIndexes(col *core.Collection, defs ...indexDef) error {
	for _, d := range defs {
		if err := col.CreateValueIndex(d.name, d.path, d.typ); err != nil {
			return err
		}
	}
	return nil
}

// e7 reproduces Table 2: the three index access methods against the scan
// baseline, over a selectivity sweep.
func e7(m *Meter) (*Table, error) {
	docs, products := m.pick(2000, 300), 10
	t := &Table{
		ID:      "E7",
		Title:   fmt.Sprintf("access methods over %d catalog docs × %d products (Table 2)", docs, products),
		Claim:   "value indexes identify a small candidate set: DocID/NodeID list for exact matches, filtering for containment, ANDing/ORing for multiple predicates (§4.3, Table 2)",
		Headers: []string{"query", "selectivity", "method", "exact", "candidates", "results", "ms"},
	}
	col, err := catalogs(21, docs, products)
	if err != nil {
		return nil, err
	}
	for _, mode := range []string{"scan", "indexed"} {
		if mode == "indexed" {
			err := createIndexes(col,
				indexDef{"ix_regprice", "/Catalog/Categories/Product/RegPrice", xml.TDouble},
				indexDef{"ix_discount", "//Discount", xml.TDouble})
			if err != nil {
				return nil, err
			}
		}
		for _, qs := range []struct{ q, sel string }{
			{`/Catalog/Categories/Product[RegPrice > 990]`, "~1%"},
			{`/Catalog/Categories/Product[RegPrice > 900]`, "~10%"},
			{`/Catalog/Categories/Product[RegPrice > 500]`, "~50%"},
			{`/Catalog/Categories/Product[Discount > 0.2]`, "~25%"},
			{`/Catalog/Categories/Product[RegPrice > 900 and Discount > 0.2]`, "~2.5%"},
			{`/Catalog/Categories/Product[RegPrice > 990 or Discount > 0.2]`, "~26%"},
		} {
			row, err := timedQuery(m, mode+"/"+qs.q, col, qs.q)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, append([]string{qs.q, qs.sel}, row...))
		}
	}
	t.Notes = append(t.Notes, "first block: scan (no indexes); second block: index access — the gap widens as selectivity sharpens")
	return t, nil
}

// timedQuery times one evaluation of expr and returns its table cells:
// method, exact, candidates, results, ms.
func timedQuery(m *Meter, name string, col *core.Collection, expr string) ([]string, error) {
	var rs []core.Result
	var plan *core.Plan
	el, err := m.time(name, 1, func() (err error) {
		rs, plan, err = col.QueryOpts(expr, core.QueryOptions{})
		return err
	})
	if err != nil {
		return nil, err
	}
	return []string{plan.Method, fmt.Sprint(plan.Exact), i0(plan.CandidateDocs), i0(len(rs)), dms(el)}, nil
}

// e7b reproduces the second half of §4.3's access-method discussion: "For
// large documents, the DocID list access is no longer efficient. Instead, the
// NodeID list access applies." Few large multi-record documents; candidate
// subtrees are re-evaluated without touching the rest of the document.
func e7b(m *Meter) (*Table, error) {
	docs, items := m.pick(50, 10), m.pick(2000, 500)
	t := &Table{
		ID:      "E7b",
		Title:   fmt.Sprintf("NodeID-list access on large documents (%d docs × %d items)", docs, items),
		Claim:   "for large documents, NodeID-level access beats whole-document filtering (§4.3)",
		Headers: []string{"query", "method", "candidates", "results", "ms"},
	}
	rng := rand.New(rand.NewSource(37))
	col, err := stored(core.CollectionOptions{}, generate(docs, func(int) []byte {
		var sb bytes.Buffer
		sb.WriteString("<order><items>")
		for i := 0; i < items; i++ {
			fmt.Fprintf(&sb, `<item><sku>S%06d</sku><qty>%d</qty><note>%060d</note></item>`,
				rng.Intn(1000000), rng.Intn(100), i)
		}
		sb.WriteString("</items></order>")
		return sb.Bytes()
	}))
	if err != nil {
		return nil, err
	}
	const query = "/order/items/item[qty = 42]/sku"
	for _, label := range []string{"no index: scan", "covering index"} {
		if label == "covering index" {
			if err := createIndexes(col, indexDef{"ix_qty", "//qty", xml.TDouble}); err != nil {
				return nil, err
			}
		}
		row, err := timedQuery(m, label, col, query)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, append([]string{query + " (" + label + ")", row[0]}, row[2:]...))
	}
	t.Notes = append(t.Notes,
		"with the index, only the matching item subtrees are decoded (ancestor context synthesized from the self-contained record headers); the scan walks every record of every document")
	return t, nil
}

// e13Cases: the scan-shaped query of the gate; the parallel executor
// against the same scan run serially — 64 catalog documents, a predicate
// scan that re-evaluates every one, 1 to 8 workers; and the break-even rows
// the cursor's fan-out rule is read from — a docid-list query over n of 256
// ≈1.5 KiB Product documents at 1 worker, 2 workers and the engine's choice
// (0).
func e13Cases() ([]Case, error) {
	out := []Case{{Name: "scan-query", Gated: true, Run: func(b *testing.B) {
		col, err := stored(core.CollectionOptions{}, generate(16, xmlgen.Product))
		if err != nil {
			b.Fatal(err)
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
	}}}
	col, err := catalogs(12, 64, 200)
	if err != nil {
		return nil, err
	}
	const query = "/Catalog/Categories/Product[RegPrice > 500]/ProductName"
	serial, _, err := col.QueryOpts(query, core.QueryOptions{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	for _, par := range []int{1, 2, 4, 8} {
		out = append(out, Case{Name: fmt.Sprintf("workers=%d", par),
			Run: loop(queryOp(col, query, core.QueryOptions{Parallelism: par}, len(serial)))})
	}
	products, err := stored(core.CollectionOptions{}, generate(256, xmlgen.Product))
	if err != nil {
		return nil, err
	}
	if err := createIndexes(products, indexDef{"ix_pid", "/Product/@pid", xml.TDouble}); err != nil {
		return nil, err
	}
	for _, n := range []int{4, 16, 64, 256} {
		expr := fmt.Sprintf("/Product[@pid < %d]/Name", n)
		for _, par := range []int{1, 2, 0} {
			out = append(out, Case{Name: fmt.Sprintf("docid-list/n=%d/workers=%d", n, par),
				Run: loop(queryOp(products, expr, core.QueryOptions{Parallelism: par, ForceMethod: "docid-list"}, n))})
		}
	}
	return out, nil
}

// e18Cases — adversarial planner workloads: data shapes where the old
// hard-wired index-first heuristic picks a pathological access path. Each
// pair runs the heuristic's choice (pinned via ForceMethod) against the
// costed planner's pick on the same data; the committed baseline preserves
// the gap so a planner regression trips the gate.
func e18Cases() ([]Case, error) {
	build := func(opts core.CollectionOptions, expr, want string, indexes ...indexDef) (*core.Collection, error) {
		col, err := stored(opts, generate(200, func(i int) []byte { return xmlgen.Parts(i, 64) }))
		if err != nil {
			return nil, err
		}
		if err := createIndexes(col, indexes...); err != nil {
			return nil, err
		}
		if _, p, err := col.QueryOpts(expr, core.QueryOptions{}); err != nil {
			return nil, err
		} else if p.Method != want {
			return nil, fmt.Errorf("E18: costed planner picked %q for %s, expected %q", p.Method, expr, want)
		}
		return col, nil
	}

	// filter: the only matching index (//Qty) is inexact, the predicate
	// anchors at Part, and the documents are multi-record — the shape where
	// the old heuristic hard-wired NodeID filtering, fetching and
	// re-evaluating all 12800 Part subtrees one by one. The cost model
	// prices that walk against scanning the 200 documents and scans.
	const filter = `/Product/Part[Qty >= 0]`
	filterCol, err := build(core.CollectionOptions{PackThreshold: 512}, filter, "scan",
		indexDef{"ix_any_qty", "//Qty", xml.TDouble})
	if err != nil {
		return nil, err
	}
	// andorder: the old heuristic ANDed every available index, dragging the
	// worthless Qty index (64 entries/doc, selectivity 1.0) into the merge;
	// the cost model prices its saving at zero and probes only Sku.
	const andorder = `/Product[Sku = 'SKU-42' and Part/Qty >= 0]`
	andCol, err := build(core.CollectionOptions{}, andorder, "docid-list",
		indexDef{"ix_sku", "/Product/Sku", xml.TString}, indexDef{"ix_qty", "/Product/Part/Qty", xml.TDouble})
	if err != nil {
		return nil, err
	}
	// range: a two-sided window on one index. On the single-valued Sku the
	// two conjuncts merge into one bounded scan of the window (a docid-list
	// over one index); on the multi-valued Part/Qty they must not — every
	// Product holds Qty values on both sides of the empty window (61, 2) and
	// none inside, and matches existentially — so that plan stays *-anding.
	const coalesced = `/Product[Sku >= 'SKU-10' and Sku < 'SKU-11']/Sku`
	coalescedCol, err := build(core.CollectionOptions{}, coalesced, "docid-list",
		indexDef{"ix_sku", "/Product/Sku", xml.TString})
	if err != nil {
		return nil, err
	}
	const multivalued = `/Product[Part/Qty > 61 and Part/Qty < 2]`
	multiCol, err := build(core.CollectionOptions{}, multivalued, "nodeid-anding",
		indexDef{"ix_qty", "/Product/Part/Qty", xml.TDouble})
	if err != nil {
		return nil, err
	}
	gated := func(name string, col *core.Collection, expr, force string, want int) Case {
		return Case{Name: name, Gated: true, Run: loop(queryOp(col, expr, core.QueryOptions{ForceMethod: force}, want))}
	}
	return []Case{
		gated("filter/heuristic", filterCol, filter, "nodeid-filtering", 12800),
		gated("filter/costed", filterCol, filter, "", 12800),
		gated("andorder/heuristic", andCol, andorder, "nodeid-anding", 1),
		gated("andorder/costed", andCol, andorder, "", 1),
		gated("range/coalesced", coalescedCol, coalesced, "", 11),
		gated("range/multivalued", multiCol, multivalued, "", 200),
	}, nil
}

// e19Docs is how many documents one E19 scan covers; the per-query set-up
// (parse, plan, compile) is spread over them and rounds to nothing.
const e19Docs = 512

// e19Cases — the stored-document scan kernel, per document: one record walk
// feeding QuickXScan with nothing to keep, so what is measured is the
// walker, the ID synthesis and the matcher. allocs/op is the tripwire: a
// small per-document constant, with no per-node term.
func e19Cases() ([]Case, error) {
	col, err := stored(core.CollectionOptions{}, generate(e19Docs, xmlgen.Product)) // ≈100 stored nodes, one record
	if err != nil {
		return nil, err
	}
	// One op is one document: each pass scans the whole collection serially
	// and advances the op count by its size.
	scan := func(name, expr string) Case {
		pass := queryOp(col, expr, core.QueryOptions{NeedValues: true, Parallelism: 1}, 0)
		return Case{Name: name, Gated: true, Run: func(b *testing.B) {
			b.ReportAllocs()
			for done := 0; done < b.N; done += e19Docs {
				if err := pass(); err != nil {
					b.Fatal(err)
				}
			}
		}}
	}
	return []Case{
		// Descendant axes keep every subtree alive: all ≈100 nodes of a
		// document are decoded and matched.
		scan("stored-scan/descendant", `//Part[Qty > 1000]/Desc`),
		// Child axes let the evaluator rule subtrees out: the 16 Part
		// subtrees of a document are stepped over by their byte length.
		scan("stored-scan/child-axis", `/Product[Price > 1000]/Name`),
		// A descendant query whose result step names an element no Product
		// has: each document is ruled out by its root record's name
		// signature after the one fetch, with no node decoded.
		scan("stored-scan/ruled-out", `//Part[Qty > 1000]/Serial`),
	}, nil
}
