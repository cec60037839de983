package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rx/internal/heap"
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
	// names some documents lack, required or not: under or and not they
	// must not rule a document out
	`//nosuch`, `//entry//qty`, `/order[hdr/nosuch or items]/hdr/cust`, `//item[not(nosuch)]/sku`,
	`//a[nosuch and b]`, `//*[b or nosuch]/@pid`,
}

// ruledOut reports whether eval rules doc out by its root signature.
func ruledOut(t *testing.T, r docReader, e *quickxscan.Eval) bool {
	t.Helper()
	root, release, err := r.borrow(nodeid.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	return e.Need()&^root.Sig != 0
}

// checkAgainstFullWalk evaluates e over doc with evalStored — skipping
// subtrees, and ruling the document out by its signature — and with WalkDoc
// for the same evaluator behind the skip hook, and holds both to the plain
// handler that is shown every node. It returns the matches.
func checkAgainstFullWalk(t *testing.T, col *Collection, doc xml.DocID, e *quickxscan.Eval, what string) (ms []quickxscan.Match, skipped int) {
	t.Helper()
	ref := &plainEvalHandler{e: e}
	if err := col.WalkDoc(doc, ref); err != nil {
		t.Fatal(err)
	}
	got, err := col.evalStored(doc, e)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMatches(got, ref.matches) {
		t.Fatalf("%s doc %d: evalStored (skipping) returned %d matches %v, the full walk %d %v",
			what, doc, len(got), got, len(ref.matches), ref.matches)
	}
	hooked := &skippingEvalHandler{plainEvalHandler: plainEvalHandler{e: e}}
	if err := col.WalkDoc(doc, hooked); err != nil {
		t.Fatal(err)
	}
	if !sameMatches(hooked.matches, ref.matches) {
		t.Fatalf("%s doc %d: WalkDoc with the skip hook returned %v, the full walk %v",
			what, doc, hooked.matches, ref.matches)
	}
	return got, hooked.skipped
}

// compileExpr compiles a query for stored evaluation, failing the test on
// error.
func compileExpr(t *testing.T, db *DB, expr string, needValues bool) *quickxscan.Eval {
	t.Helper()
	q, err := xpath.Parse(expr)
	if err != nil {
		t.Fatalf("%s: %v", expr, err)
	}
	e, err := quickxscan.Compile(q, db.cat, nil, quickxscan.Options{NeedValues: needValues})
	if err != nil {
		t.Fatalf("%s: %v", expr, err)
	}
	return e
}

// TestSkipDifferential is the skip oracle: over the differential corpus
// (orders, catalogs, the recursive a/b shape, multi-record archives behind
// proxies) and a query set covering child-only and mixed /–// spines,
// attributes, text(), element results whose string value is collected,
// and/or/not predicates and names absent from a document, the scan that
// skips subtrees and rules documents out by their root signature
// (evalStored, and WalkDoc for a handler with the vsax hook) returns
// byte-identical matches to the same evaluator shown every node — on plain
// and versioned collections, and after InsertFragment brings a name new to
// the document into a record other than the root record, and after that
// insert is rolled back.
func TestSkipDifferential(t *testing.T) {
	bothModes(t, CollectionOptions{PackThreshold: 512}, func(t *testing.T, col *Collection) {
		db := col.db
		rng := rand.New(rand.NewSource(41))
		docs := differentialCorpus(t, rng, col)
		skipped, ruled := 0, 0
		for _, expr := range differentialQueries {
			for _, needValues := range []bool{false, true} {
				e := compileExpr(t, db, expr, needValues)
				for _, doc := range docs {
					r, err := col.reader(doc)
					if err != nil {
						t.Fatal(err)
					}
					if ruledOut(t, r, e) {
						ruled++
					}
					_, n := checkAgainstFullWalk(t, col, doc, e, fmt.Sprintf("%s values=%v", expr, needValues))
					skipped += n
				}
			}
		}
		if skipped == 0 {
			t.Fatal("nothing was ever skipped: the oracle compared the full walk with itself")
		}
		if ruled == 0 {
			t.Fatal("no document was ever ruled out by its signature")
		}
		insertNewNamesThenRollBack(t, col)
	})
}

// archiveDoc is a document of n entries that packs into many records at
// PackThreshold 512: the root record holds arch, head and entries, and the
// entries sit in run records behind proxies.
func archiveDoc(n int) []byte {
	var sb strings.Builder
	sb.WriteString(`<arch><head><title>t</title></head><entries>`)
	for j := 0; j < n; j++ {
		fmt.Fprintf(&sb, `<entry n="%d"><who>C%02d</who><body>%s</body></entry>`, j, j%8, strings.Repeat("lorem ", 8))
	}
	sb.WriteString(`</entries></arch>`)
	return []byte(sb.String())
}

// inRunRecord returns a node selected by expr in doc that is stored in a
// record other than the root record.
func inRunRecord(t *testing.T, col *Collection, doc xml.DocID, expr string) nodeid.ID {
	t.Helper()
	r, err := col.reader(doc)
	if err != nil {
		t.Fatal(err)
	}
	rootRID, err := r.lookup(nodeid.Root)
	if err != nil {
		t.Fatal(err)
	}
	e := compileExpr(t, col.db, expr, false)
	ms, err := r.eval(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if rid, err := r.lookup(m.ID); err == nil && rid != rootRID {
			return nodeid.Clone(m.ID)
		}
	}
	t.Fatalf("doc %d: no %s outside the root record", doc, expr)
	return nil
}

// insertNewNamesThenRollBack inserts, in one transaction, elements of names
// the document has never held into run records — AsLastChild under an entry
// (the root record is widened by a rewrite of its own) and BeforeNode an
// entry at a run's top level (the root record holds the run's proxy, so it
// is widened first and rewritten again for the proxy) — and checks the scan
// against the full walk before and after the rollback.
func insertNewNamesThenRollBack(t *testing.T, col *Collection) {
	t.Helper()
	db := col.db
	doc := mustInsert(t, col, archiveDoc(60))
	exprs := []string{`//zz`, `//zz/yy`, `//entry[zz]/who`, `/arch/entries/xx`, `//xx/@k`, `//entry[who = 'C03']/body`}
	scan := func(when string, want []int) {
		t.Helper()
		for i, expr := range exprs {
			ms, _ := checkAgainstFullWalk(t, col, doc, compileExpr(t, db, expr, true), expr+" "+when)
			if len(ms) != want[i] {
				t.Fatalf("%s %s: %d matches, want %d", expr, when, len(ms), want[i])
			}
		}
	}
	r, err := col.reader(doc)
	if err != nil {
		t.Fatal(err)
	}
	root, release, err := r.borrow(nodeid.Root)
	if err != nil {
		t.Fatal(err)
	}
	sig := root.Sig
	release()
	for _, name := range []string{"zz", "yy", "xx"} {
		id, _ := db.cat.Intern(name)
		if sig&xml.SigBit(id) != 0 {
			t.Fatalf("the signature already has %s's bit: the test cannot see a widening", name)
		}
	}
	scan("before the insert", []int{0, 0, 0, 0, 0, 8})
	entry := inRunRecord(t, col, doc, `/arch/entries/entry`)
	tx := db.Begin()
	if _, err := tx.InsertFragment(col, doc, entry, AsLastChild, []byte(`<zz><yy>new</yy></zz>`)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.InsertFragment(col, doc, entry, BeforeNode, []byte(`<xx k="1"/>`)); err != nil {
		t.Fatal(err)
	}
	scan("after the insert", []int{1, 1, 1, 1, 1, 8})
	if err := col.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	scan("after the rollback", []int{0, 0, 0, 0, 0, 8})
	if err := col.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestVersionedRootSignature: an insert of a new element name into a run
// record of a versioned document widens the new version's root record only
// — the snapshot taken before it keeps the narrower signature and still
// rules the document out — and the new version is ruled in and matches. A
// second insert, whose edit rewrites the root record twice (widened, then
// its proxy updated), leaves the new version one root row: once the old
// versions are vacuumed, every row left is one the current version uses.
func TestVersionedRootSignature(t *testing.T) {
	db := newDB(t)
	col, err := db.CreateCollection("c", CollectionOptions{PackThreshold: 512, Versioned: true})
	if err != nil {
		t.Fatal(err)
	}
	doc := mustInsert(t, col, archiveDoc(60))
	old, err := col.SnapshotVersion(doc)
	if err != nil {
		t.Fatal(err)
	}
	entry := inRunRecord(t, col, doc, `/arch/entries/entry`)
	if err := db.RunTxn(func(tx *Txn) error {
		_, err := tx.InsertFragment(col, doc, entry, AsLastChild, []byte(`<zz>new</zz>`))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	cur, err := col.SnapshotVersion(doc)
	if err != nil || cur == old {
		t.Fatalf("no new version (%d → %d, err %v)", old, cur, err)
	}
	zz, _ := db.cat.Intern("zz")
	e := compileExpr(t, db, `//entry/zz`, true)
	for _, v := range []struct {
		ver     uint64
		has     bool
		matches int
	}{{old, false, 0}, {cur, true, 1}} {
		r := docReader{col, doc, v.ver}
		root, release, err := r.borrow(nodeid.Root)
		if err != nil {
			t.Fatal(err)
		}
		has := root.Sig&xml.SigBit(zz) != 0
		release()
		if has != v.has {
			t.Errorf("version %d: root signature has zz = %v, want %v", v.ver, has, v.has)
		}
		if ruledOut(t, r, e) == v.has {
			t.Errorf("version %d: ruled out = %v", v.ver, !v.has)
		}
		ms, err := r.eval(e)
		if err != nil || len(ms) != v.matches {
			t.Errorf("version %d: %d matches (err %v), want %d", v.ver, len(ms), err, v.matches)
		}
	}
	if err := db.RunTxn(func(tx *Txn) error {
		_, err := tx.InsertFragment(col, doc, entry, BeforeNode, []byte(`<xx/>`))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if ms, err := col.evalStored(doc, compileExpr(t, db, `//xx`, false)); err != nil || len(ms) != 1 {
		t.Fatalf("//xx: %d matches (err %v), want 1", len(ms), err)
	}
	if cur, err = col.SnapshotVersion(doc); err != nil {
		t.Fatal(err)
	}
	if err := col.Vacuum(doc, cur); err != nil {
		t.Fatal(err)
	}
	used := map[heap.RID]bool{}
	if err := (docReader{col, doc, cur}).entries(func(_ nodeid.ID, rid heap.RID) bool {
		used[rid] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n := col.xmlTbl.Count(); n != uint64(len(used)) {
		t.Errorf("%d XML rows after vacuum, the current version uses %d", n, len(used))
	}
	if err := col.CheckConsistency(); err != nil {
		t.Fatal(err)
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
// page reads, because the proxies inside it are never resolved. So does a
// descendant query naming an element the document lacks: its root record's
// signature rules it out before the walk.
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
	for _, expr := range []string{`//Product[Discount = 0.25]/ProductName`, `//a//a//b`, `//Item[Qty > 8]/Serial`} {
		if n := accesses(eval(expr)); n != rootOnly {
			t.Errorf("%s names an element the document lacks, yet cost %d page accesses; its root record alone costs %d", expr, n, rootOnly)
		}
	}
	if full < rootOnly+uint64(records)-1 {
		t.Errorf("the full scan cost %d page accesses for %d records: the counter does not see record fetches", full, records)
	}
}

// TestSignatureWideningBesideSnapshotReaders: readers borrow a versioned
// document's root record, at the snapshot they pinned, while a writer's
// inserts of new element names into run records widen the new versions'
// root signatures. Every snapshot evaluation equals the full walk of the
// same snapshot.
func TestSignatureWideningBesideSnapshotReaders(t *testing.T) {
	db := newDB(t)
	col, err := db.CreateCollection("c", CollectionOptions{PackThreshold: 512, Versioned: true})
	if err != nil {
		t.Fatal(err)
	}
	doc := mustInsert(t, col, archiveDoc(60))
	const names = 8
	entry := inRunRecord(t, col, doc, `/arch/entries/entry`)
	compileAll := func() []*quickxscan.Eval {
		evals := make([]*quickxscan.Eval, 0, names)
		for k := 0; k < names; k++ {
			evals = append(evals, compileExpr(t, db, fmt.Sprintf(`//entry/zz%d`, k), true))
		}
		return evals
	}
	evals := compileAll()
	done := make(chan struct{})
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		// Each reader owns its evaluators: an Eval is single-threaded.
		go func(g int, own []*quickxscan.Eval) {
			for i := 0; ; i++ {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				ver, err := col.SnapshotVersion(doc)
				if err != nil {
					errs <- err
					return
				}
				e := own[(g+i)%names]
				got, err := docReader{col, doc, ver}.eval(e)
				if err != nil {
					errs <- err
					return
				}
				ref := &plainEvalHandler{e: e}
				if err := col.WalkDocAt(doc, ver, ref); err != nil {
					errs <- err
					return
				}
				if !sameMatches(got, ref.matches) {
					errs <- fmt.Errorf("version %d: eval %v, full walk %v", ver, got, ref.matches)
					return
				}
			}
		}(g, compileAll())
	}
	var insertErr error
	for k := 0; k < names && insertErr == nil; k++ {
		insertErr = db.RunTxn(func(tx *Txn) error {
			_, err := tx.InsertFragment(col, doc, entry, AsLastChild, []byte(fmt.Sprintf(`<zz%d>v</zz%d>`, k, k)))
			return err
		})
	}
	close(done) // the readers stop, and report, whatever the writer met
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if insertErr != nil || t.Failed() {
		t.Fatalf("insert: %v", insertErr)
	}
	for k, e := range evals {
		if ms, err := col.evalStored(doc, e); err != nil || len(ms) != 1 {
			t.Fatalf("zz%d: %d matches (err %v) after the inserts, want 1", k, len(ms), err)
		}
	}
	if err := col.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
