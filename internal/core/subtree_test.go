package core

import (
	"fmt"
	"strings"
	"testing"

	"rx/internal/quickxscan"
	"rx/internal/xml"
	"rx/internal/xpath"
)

// bigOrderDoc builds a multi-record document: many items under one order.
func bigOrderDoc(items int) []byte {
	var sb strings.Builder
	sb.WriteString("<order><items>")
	for i := 0; i < items; i++ {
		fmt.Fprintf(&sb, `<item><sku>S%04d</sku><qty>%d</qty><note>%040d</note></item>`, i, i%9+1, i)
	}
	sb.WriteString("</items></order>")
	return []byte(sb.String())
}

func TestNodeIDFilteringOnLargeDocs(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("orders", CollectionOptions{PackThreshold: 600})
	const docs, items = 8, 120
	for d := 0; d < docs; d++ {
		mustInsert(t, col, bigOrderDoc(items))
	}
	// A containment-path (covering, not exact) index.
	if err := col.CreateValueIndex("ix_qty", "//qty", xml.TDouble); err != nil {
		t.Fatal(err)
	}

	// Scan answer for ground truth.
	scanRes, _, err := col.QueryOpts("/order/items/item[qty = 7]/sku", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(scanRes) == 0 {
		t.Fatal("ground truth empty")
	}

	res, plan, err := col.QueryOpts("/order/items/item[qty = 7]/sku", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != "nodeid-filtering" {
		t.Fatalf("plan = %s, want nodeid-filtering", plan.Method)
	}
	if len(res) != len(scanRes) {
		t.Fatalf("nodeid-filtering: %d results, scan: %d", len(res), len(scanRes))
	}
	for i := range res {
		if res[i].Doc != scanRes[i].Doc || res[i].Node.String() != scanRes[i].Node.String() {
			t.Fatalf("result %d differs: %v vs %v", i, res[i], scanRes[i])
		}
	}
	// Values come from the subtree evaluation.
	resV, _, err := col.QueryOpts("/order/items/item[qty = 7]/sku", QueryOptions{NeedValues: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resV {
		if !strings.HasPrefix(string(r.Value), "S") {
			t.Errorf("value = %q", r.Value)
		}
	}
}

func TestNodeIDFilteringRejectsNonMatchingPaths(t *testing.T) {
	// The covering index also matches qty nodes outside the query's spine;
	// subtree re-evaluation must filter those out.
	db := newDB(t)
	col, _ := db.CreateCollection("mix", CollectionOptions{PackThreshold: 400})
	var sb strings.Builder
	sb.WriteString("<order><items>")
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&sb, `<item><qty>7</qty><pad>%030d</pad></item>`, i)
	}
	// qty under a different spine: must not appear in results.
	sb.WriteString("</items><summary><qty>7</qty></summary></order>")
	for d := 0; d < 6; d++ {
		mustInsert(t, col, []byte(sb.String()))
	}
	if err := col.CreateValueIndex("ix", "//qty", xml.TDouble); err != nil {
		t.Fatal(err)
	}
	// Every qty matches, so the costed planner rightly prefers a scan here;
	// force the filtering executor — this test checks its spine filtering,
	// not plan choice.
	res, plan, err := col.QueryOpts("/order/items/item[qty = 7]",
		QueryOptions{ForceMethod: "nodeid-filtering"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != "nodeid-filtering" {
		t.Fatalf("plan = %s", plan.Method)
	}
	if len(res) != 6*60 {
		t.Errorf("got %d results, want %d (summary/qty must be filtered out)", len(res), 6*60)
	}
}

// TestEvalSubtreeProbesOncePerCandidate: re-evaluating a NodeID-filtering
// candidate costs the version read (versioned collections), one NodeID-index
// probe and one record fetch — the ancestor names come from the record the
// walk borrows, not from a second probe and a second, copied, record.
func TestEvalSubtreeProbesOncePerCandidate(t *testing.T) {
	bothModes(t, CollectionOptions{PackThreshold: 300}, func(t *testing.T, col *Collection) {
		db := col.db
		doc := mustInsert(t, col, bigOrderDoc(80))
		cands, _, err := col.QueryOpts("/order/items/item", QueryOptions{})
		if err != nil || len(cands) != 80 {
			t.Fatalf("%d candidates, %v", len(cands), err)
		}
		q, _ := xpath.Parse("/order/items/item[qty = 7]/sku")
		e, err := quickxscan.Compile(q, db.cat, nil, quickxscan.Options{NeedValues: true})
		if err != nil {
			t.Fatal(err)
		}
		matched := 0
		for _, cd := range cands {
			var r docReader
			version := pageAccesses(db, func() { r, err = col.reader(doc) })
			if err != nil {
				t.Fatal(err)
			}
			probe := pageAccesses(db, func() { _, err = r.lookup(cd.Node) })
			if err != nil {
				t.Fatal(err)
			}
			var ms []quickxscan.Match
			got := pageAccesses(db, func() { ms, err = col.evalSubtree(doc, cd.Node, e) })
			if err != nil {
				t.Fatal(err)
			}
			if want := version + probe + 1; got != want {
				t.Fatalf("candidate %s: %d page accesses, want %d (version read %d + one probe %d + one record)",
					cd.Node, got, want, version, probe)
			}
			matched += len(ms)
		}
		if matched != 9 { // qty cycles 1..9 over 80 items: items 6, 15, …, 78
			t.Errorf("%d matches, want 9", matched)
		}
	})
}

// TestFilteringLimitVisitsOneCandidate: a serial nodeid-filtering cursor with
// Limit 1 whose first candidate subtree matches reads the index and that one
// subtree — no record of any other candidate. Page accesses are counted as
// in TestSkippedDocumentFetchesOnlyItsRoot: the unlimited run minus every
// candidate's own evaluation is the index scan.
func TestFilteringLimitVisitsOneCandidate(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("orders", CollectionOptions{PackThreshold: 600})
	for d := 0; d < 4; d++ {
		mustInsert(t, col, bigOrderDoc(120))
	}
	if err := col.CreateValueIndex("ix_qty", "//qty", xml.TDouble); err != nil {
		t.Fatal(err)
	}
	const expr = "/order/items/item[qty = 7]/sku"
	// The candidate subtrees are the items the predicate holds on.
	items, _, err := col.QueryOpts("/order/items/item[qty = 7]", QueryOptions{ForceMethod: "scan"})
	if err != nil || len(items) < 40 {
		t.Fatalf("%d candidates, %v", len(items), err)
	}
	q, _ := xpath.Parse(expr)
	e, err := quickxscan.Compile(q, db.cat, nil, quickxscan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var first, all uint64
	for i, it := range items {
		n := pageAccesses(db, func() {
			if _, err := col.evalSubtree(it.Doc, it.Node, e); err != nil {
				t.Fatal(err)
			}
		})
		if i == 0 {
			first = n
		}
		all += n
	}
	run := func(limit int) (uint64, int) {
		opts := QueryOptions{ForceMethod: "nodeid-filtering", Parallelism: 1, Limit: limit}
		p, err := col.Plan(expr, opts)
		if err != nil {
			t.Fatal(err)
		}
		results := 0
		n := pageAccesses(db, func() {
			cur, err := col.CursorPlanned(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			for cur.Next() {
				results++
			}
			if err := cur.Err(); err != nil {
				t.Fatal(err)
			}
			cur.Close()
		})
		return n, results
	}
	unlimited, n := run(0)
	if n != len(items) {
		t.Fatalf("unlimited filtering: %d results, want %d", n, len(items))
	}
	index := unlimited - all
	limited, n := run(1)
	if n != 1 {
		t.Fatalf("Limit 1: %d results", n)
	}
	if limited != index+first {
		t.Errorf("Limit 1 cost %d page accesses, want %d (index scan %d + first candidate %d); all %d candidates cost %d",
			limited, index+first, index, first, len(items), all)
	}
}

func TestAncestorChain(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{PackThreshold: 300})
	id := mustInsert(t, col, bigOrderDoc(80))
	res, _, err := col.QueryOpts("//sku", QueryOptions{})
	if err != nil || len(res) == 0 {
		t.Fatalf("%v %v", res, err)
	}
	// sku's ancestors are order/items/item.
	r, err := col.reader(id)
	if err != nil {
		t.Fatal(err)
	}
	var names []xml.QName
	_, release, _, err := r.find(res[40].Node, &names)
	if err != nil {
		t.Fatal(err)
	}
	release()
	var rendered []string
	for _, q := range names {
		s, _ := db.Catalog().Lookup(q.Local)
		rendered = append(rendered, s)
	}
	want := "order/items/item"
	if strings.Join(rendered, "/") != want {
		t.Errorf("chain = %v, want %s", rendered, want)
	}
}
