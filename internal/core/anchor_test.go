package core

// Anchored candidates: a document-level candidate is read from the record its
// value-index entry named when that row is still the document's root record,
// and through the NodeID index otherwise. These tests hold both paths to the
// DOM evaluator, on the edit differential's fixtures, with the RIDs made
// stale by edits, by a delete and an insert that reuses the slot, by
// versioning and by hand.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"rx/internal/dom"
	"rx/internal/heap"
	"rx/internal/pagestore"
	"rx/internal/serialize"
	"rx/internal/vsax"
	"rx/internal/xml"
	"rx/internal/xmlparse"
	"rx/internal/xpath"
	"rx/internal/xpathdom"
)

// anchorQueries are the edit differential's index-served shapes: document-
// and subtree-level ranges and equalities, on elements and attributes. The
// last one's results are the items of the documents holding k3, so an
// insert elsewhere in such a document changes them while its k3 entry stays.
var anchorQueries = []string{
	`/r/item[price > 150]`,
	`/r[item/price = 30]`,
	`//sub[name = 's3']`,
	`/r/item[@k = 'k2']/name`,
	`/r[item/@k = 'k7']`,
	`/r[item/@k = 'k3']/item/name`,
}

// smallDoc is a one-item document: a single record under editThreshold.
func smallDoc(n int) string { return "<r>" + editItem(n, fmt.Sprint(10*n)) + "</r>" }

// domAnswer is the DOM evaluator's answer to q over the collection's current
// documents, skipping those in except: one line per result, its document and
// its serialized subtree. Edited documents carry node IDs a fresh parse does
// not reproduce, so results compare by text.
func domAnswer(t *testing.T, col *Collection, q string, except map[xml.DocID]bool) []string {
	t.Helper()
	pq, err := xpath.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := xpathdom.Compile(pq, col.db.cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := col.DocIDs()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, doc := range docs {
		if except[doc] {
			continue
		}
		var text bytes.Buffer
		if err := col.Serialize(doc, &text); err != nil {
			t.Fatal(err)
		}
		for _, n := range ce.Evaluate(parseDOM(t, col.db, text.String())) {
			var buf bytes.Buffer
			if err := vsax.FromDOM(n, serialize.New(&buf, col.db.cat)); err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%d:%s", doc, buf.String()))
		}
	}
	return out
}

// parseDOM builds the DOM of a document's text.
func parseDOM(t *testing.T, db *DB, text string) *dom.Node {
	t.Helper()
	stream, err := xmlparse.Parse([]byte(text), db.cat, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := dom.Build(stream)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// storedAnswer renders query results as domAnswer does.
func storedAnswer(t *testing.T, col *Collection, res []Result) []string {
	t.Helper()
	var out []string
	for _, r := range res {
		var buf bytes.Buffer
		if err := col.SerializeNode(r.Doc, r.Node, &buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%d:%s", r.Doc, buf.String()))
	}
	return out
}

// drain runs a cursor to its end.
func drain(t *testing.T, cur *Cursor) []Result {
	t.Helper()
	defer cur.Close()
	var res []Result
	for cur.Next() {
		res = append(res, cur.Result())
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return res
}

// queryMethods lists every access method the planner prices for q.
func queryMethods(t *testing.T, col *Collection, q string) []string {
	t.Helper()
	p, err := col.Plan(q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var ms []string
	for _, alt := range p.Alternatives {
		ms = append(ms, alt.Method)
	}
	return ms
}

// checkAgainstDOM holds every query under every priced method, serial and on
// two workers, to the DOM evaluator, and the pool to no pinned frame.
func checkAgainstDOM(t *testing.T, col *Collection, label string) {
	t.Helper()
	for _, q := range anchorQueries {
		want := fmt.Sprint(domAnswer(t, col, q, nil))
		for _, m := range queryMethods(t, col, q) {
			for _, par := range []int{1, 2} {
				res, _, err := col.QueryOpts(q, QueryOptions{ForceMethod: m, Parallelism: par})
				if err != nil {
					t.Fatalf("%s: %s via %s: %v", label, q, m, err)
				}
				if got := fmt.Sprint(storedAnswer(t, col, res)); got != want {
					t.Fatalf("%s: %s via %s/par=%d:\n got  %s\n want %s", label, q, m, par, got, want)
				}
			}
		}
	}
	if pinned := col.db.pool.Stats().Pinned; pinned != 0 {
		t.Fatalf("%s: %d frames left pinned", label, pinned)
	}
}

// TestAnchoredCandidateSkipsNodeIndex: visiting a single-record document
// whose entry names its root record costs that one heap page, and no
// NodeID-index page; a scan's candidates, which carry no RID, pay the
// NodeID-index descent on top.
func TestAnchoredCandidateSkipsNodeIndex(t *testing.T) {
	db := newDB(t)
	col := editCollection(t, db, "c", false)
	for i := 1; i <= 30; i++ {
		mustInsert(t, col, []byte(smallDoc(i%5+1)))
	}
	if n := col.StatsSnapshot().RecordCount; n != 30 {
		t.Fatalf("%d records for 30 documents, want single-record documents", n)
	}
	visitPages := func(method string) (pages uint64, candidates int) {
		p, err := col.Plan(`/r[item/price = 30]`, QueryOptions{ForceMethod: method, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		cur, err := col.CursorPlanned(p, QueryOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		var res []Result
		pages = pageAccesses(db, func() { res = drain(t, cur) })
		if len(res) != 6 {
			t.Fatalf("%s: %d results, want 6", method, len(res))
		}
		return pages, p.CandidateDocs
	}
	if pages, n := visitPages("docid-list"); n != 6 || pages != 6 {
		t.Errorf("docid-list: %d candidates visited with %d page accesses, want 6 and one heap page each", n, pages)
	}
	if pages, n := visitPages("scan"); pages <= uint64(n) {
		t.Errorf("scan: %d candidates visited with %d page accesses; without a RID each must also descend the NodeID index", n, pages)
	}
}

// TestAnchoredReadsAfterGrowth: InsertFragment grows the record it lands
// in — an edit re-encodes the record, it never splits one — so a
// single-record document that outgrows its page moves behind a forwarding
// stub, and its entries' RID names the stub. The anchored read follows it:
// two heap pages, still no NodeID-index page. In the multi-record edit
// document, entries name run records too, which are refused for the NodeID
// index's root. Every answer equals the DOM's under every access method.
func TestAnchoredReadsAfterGrowth(t *testing.T) {
	db := newDB(t)
	col := editCollection(t, db, "c", false)
	var docs []xml.DocID
	for i := 1; i <= 40; i++ {
		docs = append(docs, mustInsert(t, col, []byte(smallDoc(i%9+1))))
	}
	multi := mustInsert(t, col, []byte(editDoc()))
	checkAgainstDOM(t, col, "loaded")
	grow := func(doc xml.DocID, items int) {
		t.Helper()
		h := &idCollector{}
		if err := col.WalkDoc(doc, h); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < items; j++ {
			frag := editItem(200+j, fmt.Sprint(100*j))
			if err := db.RunTxn(func(tx *Txn) error {
				_, err := tx.InsertFragment(col, doc, h.ids[0], AsLastChild, []byte(frag))
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	grown := docs[3]
	grow(grown, 30)
	if n := len(docRIDs(t, col, grown)); n != 1 {
		t.Fatalf("the grown document is in %d records", n)
	}
	grow(multi, 4)
	checkAgainstDOM(t, col, "after growth")
	p, err := col.Plan(`/r[item/@k = 'k201']`, QueryOptions{ForceMethod: "docid-list", Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := col.CursorPlanned(p, QueryOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var res []Result
	// The grown document: its stub's page and the record's. The edit
	// document: the refused run record's page, then the read through the
	// NodeID index.
	want := 2 + 1 + nodeIxDescent(t, col, multi)
	if pages := pageAccesses(db, func() { res = drain(t, cur) }); len(res) != 2 || pages != want {
		t.Fatalf("%d results with %d page accesses, want 2 results and %d accesses", len(res), pages, want)
	}
}

// nodeIxDescent is the page accesses of a read of doc through the NodeID
// index: the descent plus the root record's page.
func nodeIxDescent(t *testing.T, col *Collection, doc xml.DocID) uint64 {
	t.Helper()
	r, err := col.reader(doc)
	if err != nil {
		t.Fatal(err)
	}
	e := compileExpr(t, col.db, `/r[item/@k = 'k201']`, false)
	var ms int
	pages := pageAccesses(col.db, func() {
		m, err := r.eval(e)
		if err != nil {
			t.Fatal(err)
		}
		ms = len(m)
	})
	if ms != 1 {
		t.Fatalf("the edit document has %d matches", ms)
	}
	return pages
}

// TestAnchoredReadsAfterSlotReuse: a cursor lists its candidates, then one
// of them is deleted and a new document's root record takes its slot, with
// another DocID. The stale RID is refused and the deleted candidate yields
// nothing (deletedUnder), under every access method.
func TestAnchoredReadsAfterSlotReuse(t *testing.T) {
	db := newDB(t)
	col := editCollection(t, db, "c", false)
	for i := 1; i <= 6; i++ {
		mustInsert(t, col, []byte(smallDoc(i)))
	}
	for _, q := range anchorQueries {
		for _, m := range queryMethods(t, col, q) {
			victim := mustInsert(t, col, []byte(smallDoc(2)))
			slot, err := col.nodeIx.RootRID(victim)
			if err != nil {
				t.Fatal(err)
			}
			cur, err := col.Cursor(q, QueryOptions{ForceMethod: m, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.RunTxn(func(tx *Txn) error { return tx.Delete(col, victim) }); err != nil {
				t.Fatal(err)
			}
			// The newcomer matches the same queries, so a read of its row
			// for the victim would show up as an extra result.
			newcomer := mustInsert(t, col, []byte(smallDoc(2)))
			if rid, err := col.nodeIx.RootRID(newcomer); err != nil || rid != slot {
				t.Fatalf("the new document's root record is at %v (%v), not in the victim's slot %v", rid, err, slot)
			}
			got := fmt.Sprint(storedAnswer(t, col, drain(t, cur)))
			if want := fmt.Sprint(domAnswer(t, col, q, map[xml.DocID]bool{newcomer: true})); got != want {
				t.Fatalf("%s via %s after the slot was reused:\n got  %s\n want %s", q, m, got, want)
			}
			if err := db.RunTxn(func(tx *Txn) error { return tx.Delete(col, newcomer) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	if pinned := db.pool.Stats().Pinned; pinned != 0 {
		t.Fatalf("%d frames left pinned", pinned)
	}
}

// TestAnchoredReadsVersioned: a versioned collection's entries keep the RIDs
// of the versions an edit replaced, so its candidates are never read from
// them; answers after edits equal the DOM's under every access method.
func TestAnchoredReadsVersioned(t *testing.T) {
	db := newDB(t)
	col := editCollection(t, db, "v", true)
	var docs []xml.DocID
	for i := 1; i <= 5; i++ {
		docs = append(docs, mustInsert(t, col, []byte(smallDoc(i))))
	}
	docs = append(docs, mustInsert(t, col, []byte(editDoc())))
	for _, doc := range docs {
		h := &idCollector{}
		if err := col.WalkDoc(doc, h); err != nil {
			t.Fatal(err)
		}
		// h.ids: r, item, @k, name, text, price, text, ...
		if err := db.RunTxn(func(tx *Txn) error { return tx.UpdateText(col, doc, h.ids[6], []byte("30")) }); err != nil {
			t.Fatal(err)
		}
		if err := db.RunTxn(func(tx *Txn) error {
			_, err := tx.InsertFragment(col, doc, h.ids[0], AsLastChild, []byte(editItem(90, "200")))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	checkAgainstDOM(t, col, "versioned after edits")
}

// forgeRID points doc's entries in the index name at rid, as a stale entry
// would.
func forgeRID(t *testing.T, col *Collection, name string, doc xml.DocID, rid heap.RID) {
	t.Helper()
	for _, ov := range col.indexSnapshot() {
		if ov.meta.Name != name {
			continue
		}
		r, err := col.reader(doc)
		if err != nil {
			t.Fatal(err)
		}
		keys, err := r.eval(ov.keygen)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range keys {
			if err := ov.ix.Delete(m.Value, doc, m.ID); err != nil {
				t.Fatal(err)
			}
			if err := ov.ix.Put(m.Value, doc, m.ID, rid); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	t.Fatalf("no index %q", name)
}

// TestAnchoredReadsForgedRIDs points entries at every kind of wrong row the
// checks refuse: another document's root record, a record of the same
// document that is not its root, a freed slot, a slot past the page's end
// and a page outside the table.
func TestAnchoredReadsForgedRIDs(t *testing.T) {
	db := newDB(t)
	col := editCollection(t, db, "c", false)
	big := mustInsert(t, col, []byte(editDoc()))
	var small []xml.DocID
	for i := 1; i <= 6; i++ {
		small = append(small, mustInsert(t, col, []byte(smallDoc(i))))
	}
	gone := mustInsert(t, col, []byte(smallDoc(9)))
	freed, err := col.nodeIx.RootRID(gone)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RunTxn(func(tx *Txn) error { return tx.Delete(col, gone) }); err != nil {
		t.Fatal(err)
	}
	bigRIDs := docRIDs(t, col, big)
	if len(bigRIDs) < 2 {
		t.Fatalf("the edit document is in %d record", len(bigRIDs))
	}
	otherRoot, err := col.nodeIx.RootRID(small[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		doc  xml.DocID
		rid  heap.RID
	}{
		{"another document's root", small[1], otherRoot},
		{"a non-root record of the document", big, bigRIDs[1]},
		{"a freed slot", small[2], freed},
		{"past the page's slots", small[3], heap.RID{Page: freed.Page, Slot: 4000}},
		{"a page outside the table", small[4], heap.RID{Page: pagestore.PageID(db.store.NumPages() + 10)}},
	} {
		for _, ix := range editIndexes {
			forgeRID(t, col, ix.name, tc.doc, tc.rid)
		}
		checkAgainstDOM(t, col, tc.name)
	}
}

// TestStaleRIDChecksumFailureDoesNotQuarantine: an entry whose RID names a
// page of another document that fails its checksum. The candidate is read
// through the NodeID index and answers; neither it nor the page's document,
// which the query never needed, is quarantined.
func TestStaleRIDChecksumFailureDoesNotQuarantine(t *testing.T) {
	mem := pagestore.NewMemStore()
	db, err := Open(pagestore.NewChecksumStore(mem), Options{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	col, err := db.CreateCollection("c", CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range editIndexes {
		if err := col.CreateValueIndex(ix.name, ix.path, ix.typ); err != nil {
			t.Fatal(err)
		}
	}
	var docs []xml.DocID
	for i := 1; i <= 4; i++ {
		// Each document fills most of a page, so their root records sit on
		// pages of their own.
		doc := "<r>" + editItem(i, fmt.Sprint(10*i)) + "<pad>" + strings.Repeat("p", 5000) + "</pad></r>"
		docs = append(docs, mustInsert(t, col, []byte(doc)))
	}
	cand, bystander := docs[1], docs[2]
	damaged, err := col.nodeIx.RootRID(bystander)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		if doc != bystander {
			if rid, _ := col.nodeIx.RootRID(doc); rid.Page == damaged.Page {
				t.Fatalf("doc %d shares page %d with the bystander", doc, damaged.Page)
			}
		}
	}
	for _, ix := range editIndexes {
		forgeRID(t, col, ix.name, cand, damaged)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	corruptPhysical(t, mem, damaged.Page, "bitflip")
	db, err = Open(pagestore.NewChecksumStore(mem), Options{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if col, err = db.Collection("c"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{`/r[item/price = 20]`, `/r[item/@k = 'k2']`} {
		for _, m := range queryMethods(t, col, q) {
			if m == "scan" {
				continue // reads the bystander itself
			}
			res, _, err := col.QueryOpts(q, QueryOptions{ForceMethod: m, Parallelism: 1})
			if err != nil {
				t.Fatalf("%s via %s: %v", q, m, err)
			}
			if len(res) != 1 || res[0].Doc != cand {
				t.Fatalf("%s via %s: %v, want the candidate's root", q, m, res)
			}
		}
	}
	if q := db.Quarantined(); len(q) != 0 {
		t.Fatalf("quarantined %v; the damaged page was only named by a stale entry", q)
	}
	var pe pagestore.ErrPageChecksum
	if err := col.Serialize(bystander, &bytes.Buffer{}); !errors.As(err, &pe) || pe.PageID != damaged.Page {
		t.Fatalf("reading the bystander: %v, want the checksum failure of page %d", err, damaged.Page)
	}
}
