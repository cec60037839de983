package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rx/internal/nodeid"
	"rx/internal/pack"
	"rx/internal/pagestore"
	"rx/internal/quickxscan"
	"rx/internal/tokens"
	"rx/internal/vsax"
	"rx/internal/xml"
	"rx/internal/xpath"
)

// plainEvalHandler drives an evaluator as a plain vsax.Handler: it does not
// implement vsax.SubtreeSkipper, so the walker shows it every stored node.
// This never-skipping route is the reference the skipping ones are compared
// against.
type plainEvalHandler struct {
	e       *quickxscan.Eval
	matches []quickxscan.Match
}

func (h *plainEvalHandler) StartDocument() error { h.e.Reset(); h.e.StartDocument(); return nil }
func (h *plainEvalHandler) EndDocument() (err error) {
	h.matches, err = h.e.EndDocument()
	return err
}
func (h *plainEvalHandler) StartElement(name xml.QName, id nodeid.ID) error {
	h.e.StartElement(name, id)
	return nil
}
func (h *plainEvalHandler) EndElement(id nodeid.ID) error { h.e.EndElement(id); return nil }
func (h *plainEvalHandler) NSDecl(xml.NameID, xml.NameID, nodeid.ID) error {
	return nil
}
func (h *plainEvalHandler) Attribute(name xml.QName, value []byte, _ xml.TypeID, id nodeid.ID) error {
	h.e.Attribute(name, value, id)
	return nil
}
func (h *plainEvalHandler) Text(value []byte, _ xml.TypeID, id nodeid.ID) error {
	h.e.Text(value, id)
	return nil
}
func (h *plainEvalHandler) Comment(value []byte, id nodeid.ID) error {
	h.e.Comment(value, id)
	return nil
}
func (h *plainEvalHandler) PI(xml.NameID, []byte, nodeid.ID) error { return nil }

// skippingEvalHandler adds the optional vsax hook, so WalkDoc skips on its
// behalf; skipped counts the subtrees it let go.
type skippingEvalHandler struct {
	plainEvalHandler
	skipped int
}

func (h *skippingEvalHandler) CanSkipSubtree() bool {
	if h.e.CanSkip() {
		h.skipped++
		return true
	}
	return false
}

func sameMatches(a, b []quickxscan.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].ID, b[i].ID) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// differentialQueries is the query set of the differential oracles over
// differentialDocs: child-only and mixed /–// spines, attributes, text(),
// element results whose string value is collected, and/or/not predicates.
var differentialQueries = []string{
	// child-only spines
	`/order/hdr/total`, `/order/items/item/sku`, `/Catalog/Categories/Product/ProductName`,
	`/arch/head/title`, `/arch/entries/entry/who`, `/a/a/b`, `/nosuch/x`,
	// mixed / and //
	`/order//qty`, `//items/item[qty > 5]/sku`, `/arch//entry/body`, `//a//a//b`, `/a/a//b`,
	`/Catalog//Note//b`, `//entry[qty = 3]/who`,
	// attributes
	`/Catalog/Categories/Product/@pid`, `/Catalog/Categories/Product[@cat = 'b']/ProductName`,
	`/arch/@year`, `//entry/@n`, `/arch/entries/entry[@n = '7']/who`, `//@n`, `//@*`, `/arch//@n`,
	// text() and other node tests
	`/order/hdr/cust/text()`, `//ProductName/text()`, `/Catalog/Categories/Product/Note/node()`,
	`/Catalog/Categories/Product/Note/comment()`, `/order/*/cust`,
	// element results whose string value spans a subtree
	`/order/hdr`, `/Catalog/Categories/Product/Note`, `/arch/head`, `/a/a`,
	// and / or / not predicates, at several spine levels
	`/order[hdr/cust = 'C03']/items/item/qty`, `/order/hdr[cust = 'C01' and total >= 200]`,
	`/order/hdr[cust = 'C05' or total > 900]/total`, `/order[not(hdr/total > 500)]/items/item[qty = 3]/sku`,
	`/Catalog/Categories/Product[Discount = 0.25]/ProductName`,
	`/Catalog/Categories/Product[RegPrice > 100 and not(Discount = 0)]/@pid`,
	`/arch[head/title = 'archive 1']/entries/entry[who = 'C02' or qty > 8]/body`,
	`/arch/entries[entry/qty = 9]/entry/who`, `/a[b]/a[not(b)]//b`, `/order/items[item]/item[. = 'x']`,
}

// TestSkipDifferential is the skip oracle: over the differential corpus
// (orders, catalogs, the recursive a/b shape, multi-record archives behind
// proxies) and a query set covering child-only and mixed /–// spines,
// attributes, text(), element results whose string value is collected, and
// and/or/not predicates, the subtree-skipping scan (evalStored, and WalkDoc
// for a handler with the vsax hook) returns byte-identical matches to the
// same evaluator shown every node.
func TestSkipDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{PackThreshold: 512})
	docs := differentialCorpus(t, rng, col)

	skipped := 0
	for _, expr := range differentialQueries {
		q, err := xpath.Parse(expr)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		for _, needValues := range []bool{false, true} {
			e, err := quickxscan.Compile(q, db.cat, nil, quickxscan.Options{NeedValues: needValues})
			if err != nil {
				t.Fatalf("%s: %v", expr, err)
			}
			for _, doc := range docs {
				ref := &plainEvalHandler{e: e}
				if err := col.WalkDoc(doc, ref); err != nil {
					t.Fatal(err)
				}
				got, err := col.evalStored(doc, e)
				if err != nil {
					t.Fatal(err)
				}
				if !sameMatches(got, ref.matches) {
					t.Fatalf("%s values=%v doc %d: evalStored (skipping) returned %d matches %v, the full walk %d %v",
						expr, needValues, doc, len(got), got, len(ref.matches), ref.matches)
				}
				hooked := &skippingEvalHandler{plainEvalHandler: plainEvalHandler{e: e}}
				if err := col.WalkDoc(doc, hooked); err != nil {
					t.Fatal(err)
				}
				if !sameMatches(hooked.matches, ref.matches) {
					t.Fatalf("%s values=%v doc %d: WalkDoc with the skip hook returned %v, the full walk %v",
						expr, needValues, doc, hooked.matches, ref.matches)
				}
				skipped += hooked.skipped
			}
		}
	}
	if skipped == 0 {
		t.Fatal("nothing was ever skipped: the oracle compared the full walk with itself")
	}
}

// TestWalkerIDLifetime is the ID-lifetime misuse test, the sibling of the pin
// misuse tests: with the walker scribbling over each node's ID as soon as the
// node's callbacks are done, every consumer of stored-document walks must
// still produce oracle-exact output — which it does only if none of them
// keeps an ID past its event without copying it.
func TestWalkerIDLifetime(t *testing.T) {
	store := pagestore.NewMemStore()
	db, err := Open(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	col, _ := db.CreateCollection("c", CollectionOptions{PackThreshold: 512})
	var docs []xml.DocID
	var texts []string
	for i := 0; i < 12; i++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, `<Order id="o%d"><Customer>c%d</Customer><Items>`, i, i%3)
		for j := 0; j < 30; j++ {
			fmt.Fprintf(&sb, `<Item n="%d"><Part>p%d</Part><Qty>%d</Qty><Desc>item %d of order %d</Desc></Item>`, j, j%7, j%10, j, i)
		}
		fmt.Fprintf(&sb, `</Items><Total>%d</Total></Order>`, 100+i)
		id := mustInsert(t, col, []byte(sb.String()))
		docs = append(docs, id)
		texts = append(texts, sb.String())
	}
	if err := col.CreateValueIndex("ix_qty", "//Qty", xml.TDouble); err != nil {
		t.Fatal(err)
	}
	if s := col.StatsSnapshot(); s.RecordCount <= int64(len(docs)) {
		t.Fatalf("documents are single-record (%d records): no proxy is crossed", s.RecordCount)
	}

	// The oracle: everything computed with honest IDs.
	type hit struct {
		doc   xml.DocID
		node  string
		value string
	}
	query := func() []hit {
		cur, err := col.Cursor(`//Item[Qty > 7]/Part`, QueryOptions{NeedValues: true, Parallelism: 1, ForceMethod: "scan"})
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		var retained []Result // Result.Node kept across Next: the misuse under test
		for cur.Next() {
			retained = append(retained, cur.Result())
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		var out []hit
		for _, r := range retained {
			out = append(out, hit{r.Doc, r.Node.String(), string(r.Value)})
		}
		return out
	}
	wantHits := query()
	if len(wantHits) == 0 {
		t.Fatal("oracle query matched nothing")
	}
	wantStream, err := col.DocStream(docs[0])
	if err != nil {
		t.Fatal(err)
	}
	var wantNode bytes.Buffer
	target, err := nodeid.Parse(wantHits[0].node)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.SerializeNode(wantHits[0].doc, target, &wantNode); err != nil {
		t.Fatal(err)
	}
	if err := col.RefreshStats(); err != nil {
		t.Fatal(err)
	}
	wantPaths := col.StatsSnapshot().PathCounts

	pack.PoisonIDs.Store(true)
	defer pack.PoisonIDs.Store(false)

	for i, doc := range docs {
		var buf bytes.Buffer
		if err := col.Serialize(doc, &buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != texts[i] {
			t.Fatalf("Serialize(doc %d) under ID poisoning:\n got  %.200s\n want %.200s", doc, buf.String(), texts[i])
		}
	}
	gotStream, err := col.DocStream(docs[0])
	if err != nil || !bytes.Equal(gotStream, wantStream) {
		t.Fatalf("DocStream under ID poisoning differs (err %v)", err)
	}
	// The snapshot entries ride the same borrowed walk (the version is unused
	// on a plain collection).
	for i, doc := range docs {
		var buf bytes.Buffer
		if err := col.SerializeAt(doc, 0, &buf); err != nil || buf.String() != texts[i] {
			t.Fatalf("SerializeAt(doc %d) under ID poisoning (err %v):\n got  %.200s\n want %.200s", doc, err, buf.String(), texts[i])
		}
	}
	w := tokens.NewWriter(4096)
	if err := col.WalkDocAt(docs[0], 0, &vsax.TokenSink{W: w}); err != nil || !bytes.Equal(w.Bytes(), wantStream) {
		t.Fatalf("WalkDocAt under ID poisoning differs from DocStream (err %v)", err)
	}
	if err := col.RefreshStats(); err != nil {
		t.Fatal(err)
	}
	gotPaths := col.StatsSnapshot().PathCounts
	if len(gotPaths) != len(wantPaths) {
		t.Fatalf("RefreshStats under ID poisoning: %d paths, want %d", len(gotPaths), len(wantPaths))
	}
	for p, n := range wantPaths {
		if gotPaths[p] != n {
			t.Fatalf("RefreshStats under ID poisoning: path %s = %d, want %d", p, gotPaths[p], n)
		}
	}
	// CheckConsistency re-derives every value-index key through evalStored
	// and compares (value, doc, node ID) against the index contents.
	if err := col.CheckConsistency(); err != nil {
		t.Fatalf("CheckConsistency under ID poisoning: %v", err)
	}
	var gotNode bytes.Buffer
	if err := col.SerializeNode(wantHits[0].doc, target, &gotNode); err != nil || gotNode.String() != wantNode.String() {
		t.Fatalf("SerializeNode under ID poisoning: %q (err %v), want %q", gotNode.String(), err, wantNode.String())
	}
	lost := 0
	salvaged, err := col.docStream(docs[0], &lost)
	if err != nil || lost != 0 || !bytes.Equal(salvaged, wantStream) {
		t.Fatalf("repair salvage under ID poisoning: lost %d, err %v, stream equal %v", lost, err, bytes.Equal(salvaged, wantStream))
	}
	gotHits := query()
	if len(gotHits) != len(wantHits) {
		t.Fatalf("cursor under ID poisoning: %d results, want %d", len(gotHits), len(wantHits))
	}
	for i := range gotHits {
		if gotHits[i] != wantHits[i] {
			t.Fatalf("cursor under ID poisoning: result %d = %+v, want %+v", i, gotHits[i], wantHits[i])
		}
	}
}

// commentGroups builds a document of the given number of <g> groups, each
// holding 99 empty comments: 100 nodes per group in about 300 bytes, so even
// 2,000 nodes pack into a single record.
func commentGroups(groups int) []byte {
	var sb strings.Builder
	sb.WriteString(`<r>`)
	for g := 0; g < groups; g++ {
		sb.WriteString(`<g>`)
		sb.WriteString(strings.Repeat(`<!---->`, 99))
		sb.WriteString(`</g>`)
	}
	sb.WriteString(`</r>`)
	return []byte(sb.String())
}

// TestEvalStoredAllocsIndependentOfDocumentSize is the scan kernel's
// allocation tripwire: evaluating a stored document that matches nothing
// costs the same small number of allocations (the per-document fetch and
// walk set-up) whether the document has 200 nodes or 2,000 — nothing is
// allocated per node, not by the walker, not by the ID synthesis, not by the
// evaluator.
func TestEvalStoredAllocsIndependentOfDocumentSize(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	small := mustInsert(t, col, commentGroups(2))
	large := mustInsert(t, col, commentGroups(20))
	if n := col.StatsSnapshot().RecordCount; n != 2 {
		t.Fatalf("%d records for 2 documents: the tripwire wants single-record documents", n)
	}
	for _, expr := range []string{
		`//g[x = 1]//comment()`, // descendant axes: nothing is skippable, every node is decoded and matched
		`/r/g/x`,                // child axes: each group's content is stepped over
	} {
		q, _ := xpath.Parse(expr)
		e, err := quickxscan.Compile(q, db.cat, nil, quickxscan.Options{NeedValues: true})
		if err != nil {
			t.Fatal(err)
		}
		measure := func(doc xml.DocID) float64 {
			return testing.AllocsPerRun(50, func() {
				ms, err := col.evalStored(doc, e)
				if err != nil || len(ms) != 0 {
					t.Fatalf("%s: %d matches, err %v", expr, len(ms), err)
				}
			})
		}
		a, b := measure(small), measure(large)
		t.Logf("%s: %v allocs/doc at 200 nodes, %v at 2,000", expr, a, b)
		// A per-node term would add hundreds; the slack of 2 is for the
		// walker pool, which a GC cycle empties and the race detector drops
		// from at random.
		if b > a+2 || b > 16 {
			t.Errorf("%s: %v allocs for 200 nodes, %v for 2,000; want the same constant of at most 16", expr, a, b)
		}
	}
}

// pageAccesses counts the buffer-pool page fetches fn makes — every B+tree
// node visited and every heap row read is one — so a test can state what an
// operation touched: an index probe costs the tree's height, a record one.
func pageAccesses(db *DB, fn func()) uint64 {
	before := db.pool.Stats()
	fn()
	after := db.pool.Stats()
	return after.Hits + after.Misses - before.Hits - before.Misses
}

// TestSkippedDocumentFetchesOnlyItsRoot: a rooted child-axis query over a
// multi-record document whose root element already rules it out reads the
// root record and nothing else — the skipped body costs neither decode nor
// page reads, because the proxies inside it are never resolved.
func TestSkippedDocumentFetchesOnlyItsRoot(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{PackThreshold: 512})
	var sb strings.Builder
	sb.WriteString(`<Order><Customer>c1</Customer><Items>`)
	for j := 0; j < 200; j++ {
		fmt.Fprintf(&sb, `<Item><Part>p%d</Part><Qty>%d</Qty><Desc>%s</Desc></Item>`, j, j%10, strings.Repeat("x", 40))
	}
	sb.WriteString(`</Items></Order>`)
	doc := mustInsert(t, col, []byte(sb.String()))
	records := col.StatsSnapshot().RecordCount
	if records < 10 {
		t.Fatalf("document packed into %d records; the test wants many", records)
	}
	accesses := func(fn func()) uint64 { return pageAccesses(db, fn) }
	eval := func(expr string) func() {
		q, _ := xpath.Parse(expr)
		e, err := quickxscan.Compile(q, db.cat, nil, quickxscan.Options{NeedValues: true})
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			if _, err := col.evalStored(doc, e); err != nil {
				t.Fatal(err)
			}
		}
	}
	rootOnly := accesses(func() {
		r, err := col.reader(doc)
		if err != nil {
			t.Fatal(err)
		}
		_, release, err := r.borrow(nodeid.Root)
		if err != nil {
			t.Fatal(err)
		}
		release()
	})
	skipping := accesses(eval(`/Catalog/Categories/Product[Discount = 0.25]/ProductName`))
	full := accesses(eval(`//Item[Qty > 8]/Part`))
	if skipping != rootOnly {
		t.Errorf("the ruled-out document cost %d page accesses, fetching its root record alone costs %d", skipping, rootOnly)
	}
	if full < rootOnly+uint64(records)-1 {
		t.Errorf("the full scan cost %d page accesses for %d records: the counter does not see record fetches", full, records)
	}
}
