package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rx/internal/heap"
	"rx/internal/pagestore"
	"rx/internal/valueindex"
	"rx/internal/xml"
)

func newDB(t testing.TB) *DB {
	t.Helper()
	db, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// mustInsert stores doc in a transaction of its own, failing the test on
// error.
func mustInsert(t testing.TB, col *Collection, doc []byte) xml.DocID {
	t.Helper()
	var id xml.DocID
	if err := col.db.RunTxn(func(tx *Txn) (err error) { id, err = tx.Insert(col, doc); return err }); err != nil {
		t.Fatal(err)
	}
	return id
}

func catalogDoc(id int, price, discount float64, name string) string {
	return fmt.Sprintf(
		`<Catalog><Categories><Product pid="%d"><ProductName>%s</ProductName>`+
			`<RegPrice>%.2f</RegPrice><Discount>%.2f</Discount></Product></Categories></Catalog>`,
		id, name, price, discount)
}

func TestInsertSerializeRoundTrip(t *testing.T) {
	db := newDB(t)
	col, err := db.CreateCollection("docs", CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	doc := `<a x="1"><b>hello <i>world</i></b><!--c--><c/></a>`
	id := mustInsert(t, col, []byte(doc))
	if !col.Has(id) {
		t.Fatal("document not found after insert")
	}
	var buf bytes.Buffer
	if err := col.Serialize(id, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != doc {
		t.Errorf("round trip:\n in:  %s\n out: %s", doc, buf.String())
	}
}

func TestMultiRecordDocument(t *testing.T) {
	db := newDB(t)
	col, err := db.CreateCollection("big", CollectionOptions{PackThreshold: 512})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "<item n=\"%d\">value number %d padded</item>", i, i)
	}
	sb.WriteString("</r>")
	id := mustInsert(t, col, []byte(sb.String()))
	pages, _ := col.XMLTable().Pages()
	if pages < 2 {
		t.Errorf("expected multiple XML pages, got %d", pages)
	}
	entries, _ := col.NodeIndex().Count()
	if entries < 3 {
		t.Errorf("expected multiple NodeID intervals, got %d", entries)
	}
	var buf bytes.Buffer
	if err := col.Serialize(id, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != sb.String() {
		t.Error("multi-record round trip mismatch")
	}
}

func TestQueryScan(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("cat", CollectionOptions{})
	for i := 0; i < 20; i++ {
		mustInsert(t, col, []byte(catalogDoc(i, float64(50+i*10), 0.05*float64(i%4), fmt.Sprintf("P%02d", i))))
	}
	results, plan, err := col.QueryOpts("/Catalog/Categories/Product[RegPrice > 100]", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != "scan" {
		t.Errorf("plan = %s, want scan (no indexes)", plan.Method)
	}
	if len(results) != 14 { // prices 60..240; >100 means 110..240 → ids 6..19
		t.Errorf("got %d results", len(results))
	}
}

func TestTable2AccessMethods(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("cat", CollectionOptions{})
	for i := 0; i < 30; i++ {
		doc := catalogDoc(i, float64(50+i*10), 0.05*float64(i%4), fmt.Sprintf("P%02d", i))
		mustInsert(t, col, []byte(doc))
	}
	// Table 2, index (1): exact path.
	if err := col.CreateValueIndex("ix_regprice", "/Catalog/Categories/Product/RegPrice", xml.TDouble); err != nil {
		t.Fatal(err)
	}
	// Table 2, index (2): containment path.
	if err := col.CreateValueIndex("ix_discount", "//Discount", xml.TDouble); err != nil {
		t.Fatal(err)
	}

	scanRes, _, err := col.QueryOpts("/Catalog/Categories/Product[RegPrice > 100]", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Case 1: exact match → NodeID list, no re-evaluation.
	res1, plan1, err := col.QueryOpts("/Catalog/Categories/Product[RegPrice > 100]", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan1.Method != "nodeid-list" || !plan1.Exact {
		t.Errorf("case 1 plan = %+v, want exact nodeid-list", plan1)
	}
	if len(res1) != len(scanRes) {
		t.Errorf("case 1: %d results vs scan %d", len(res1), len(scanRes))
	}
	for i := range res1 {
		if res1[i].Doc != scanRes[i].Doc || !bytes.Equal(res1[i].Node, scanRes[i].Node) {
			t.Errorf("case 1 result %d differs from scan", i)
		}
	}

	// Case 2: containment → filtering (DocID list + re-evaluation).
	res2, plan2, err := col.QueryOpts("/Catalog/Categories/Product[Discount > 0.1]", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Method != "docid-list" || plan2.Exact {
		t.Errorf("case 2 plan = %+v, want docid-list filtering", plan2)
	}
	wantDocs := 0
	for i := 0; i < 30; i++ {
		if 0.05*float64(i%4) > 0.1 {
			wantDocs++
		}
	}
	if len(res2) != wantDocs {
		t.Errorf("case 2: %d results, want %d", len(res2), wantDocs)
	}
	if plan2.CandidateDocs >= 30 {
		t.Errorf("case 2 did not narrow candidates: %d", plan2.CandidateDocs)
	}

	// Case 3: ANDing across both indexes. Both predicates are selective, so
	// the costed planner keeps both probes (an unselective predicate would be
	// pruned from the intersection — see TestPlannerCostChoices).
	res3, plan3, err := col.QueryOpts("/Catalog/Categories/Product[RegPrice > 250 and Discount > 0.1]", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan3.Method != "docid-anding" {
		t.Errorf("case 3 plan = %+v, want docid-anding", plan3)
	}
	if len(plan3.Indexes) != 2 {
		t.Errorf("case 3 should use both indexes: %v", plan3.Indexes)
	}
	// Verify against scan.
	sc3, _, _ := col.QueryOpts("//Product[RegPrice > 250 and Discount > 0.1]", QueryOptions{})
	if len(res3) != len(sc3) {
		t.Errorf("case 3: %d results vs scan %d", len(res3), len(sc3))
	}

	// ORing.
	res4, plan4, err := col.QueryOpts("/Catalog/Categories/Product[RegPrice > 250 or Discount > 0.1]", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan4.Method != "docid-oring" {
		t.Errorf("case 4 plan = %+v, want docid-oring", plan4)
	}
	plainScan := func(expr string) int {
		// evaluate with a collection scan by disabling index match via //
		results, plan, err := col.QueryOpts(expr, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_ = plan
		return len(results)
	}
	_ = plainScan
	sc4, _, _ := col.QueryOpts("//Product[RegPrice > 250 or Discount > 0.1]", QueryOptions{})
	if len(res4) != len(sc4) {
		t.Errorf("case 4: %d results vs scan %d", len(res4), len(sc4))
	}

	// NodeID ANDing: both predicates with exact indexes.
	if err := col.CreateValueIndex("ix_discount_exact", "/Catalog/Categories/Product/Discount", xml.TDouble); err != nil {
		t.Fatal(err)
	}
	res5, plan5, err := col.QueryOpts("/Catalog/Categories/Product[RegPrice > 250 and Discount > 0.1]", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan5.Method != "nodeid-anding" || !plan5.Exact {
		t.Errorf("case 5 plan = %+v, want exact nodeid-anding", plan5)
	}
	if len(res5) != len(sc3) {
		t.Errorf("case 5: %d results, want %d", len(res5), len(sc3))
	}
}

func TestQueryValues(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	mustInsert(t, col, []byte(`<r><p><name>anvil</name><price>10</price></p><p><name>rocket</name><price>99</price></p></r>`))
	res, _, err := col.QueryOpts("/r/p[price > 50]/name", QueryOptions{NeedValues: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || string(res[0].Value) != "rocket" {
		t.Errorf("got %+v", res)
	}
}

func TestNodeStringAndSerializeNode(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	doc := `<r xmlns:p="urn:x"><item id="7">hello <b>nested</b></item></r>`
	id := mustInsert(t, col, []byte(doc))
	res, _, err := col.QueryOpts("/r/item", QueryOptions{})
	if err != nil || len(res) != 1 {
		t.Fatalf("res=%v err=%v", res, err)
	}
	v, err := col.NodeString(id, res[0].Node)
	if err != nil || string(v) != "hello nested" {
		t.Errorf("NodeString = %q, %v", v, err)
	}
	kind, _, err := col.NodeKind(id, res[0].Node)
	if err != nil || kind != xml.Element {
		t.Errorf("NodeKind = %v, %v", kind, err)
	}
	var buf bytes.Buffer
	if err := col.SerializeNode(id, res[0].Node, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `<item`) || !strings.Contains(buf.String(), "<b>nested</b>") {
		t.Errorf("SerializeNode = %s", buf.String())
	}
}

func TestDelete(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	col.CreateValueIndex("ix", "//price", xml.TDouble)
	var ids []xml.DocID
	for i := 0; i < 10; i++ {
		id := mustInsert(t, col, []byte(fmt.Sprintf(`<r><price>%d</price></r>`, i*10)))
		ids = append(ids, id)
	}
	if err := db.RunTxn(func(tx *Txn) error { return tx.Delete(col, ids[3]) }); err != nil {
		t.Fatal(err)
	}
	if col.Has(ids[3]) {
		t.Error("deleted doc still present")
	}
	if err := db.RunTxn(func(tx *Txn) error { return tx.Delete(col, ids[3]) }); err == nil {
		t.Error("double delete should fail")
	}
	n, _ := col.Count()
	if n != 9 {
		t.Errorf("Count = %d", n)
	}
	// The deleted doc's index entries are gone: query must not return it.
	res, plan, err := col.QueryOpts("/r[price >= 0]", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = plan
	for _, r := range res {
		if r.Doc == ids[3] {
			t.Error("query returned deleted document")
		}
	}
	if len(res) != 9 {
		t.Errorf("got %d results", len(res))
	}
	vix := col.ValueIndex("ix")
	cnt, _ := vix.Count()
	if cnt != 9 {
		t.Errorf("value index entries = %d, want 9", cnt)
	}
}

func TestIndexBackfill(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	for i := 0; i < 5; i++ {
		mustInsert(t, col, []byte(fmt.Sprintf(`<r><v>%d</v></r>`, i)))
	}
	if err := col.CreateValueIndex("ix", "/r/v", xml.TDouble); err != nil {
		t.Fatal(err)
	}
	cnt, _ := col.ValueIndex("ix").Count()
	if cnt != 5 {
		t.Errorf("backfilled entries = %d", cnt)
	}
	res, plan, err := col.QueryOpts("/r[v >= 3]", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method == "scan" {
		t.Errorf("plan = %s, should use the index", plan.Method)
	}
	if len(res) != 2 {
		t.Errorf("got %d results", len(res))
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	store := pagestore.NewMemStore()
	db, err := Open(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	col, _ := db.CreateCollection("c", CollectionOptions{})
	col.CreateValueIndex("ix", "//price", xml.TDouble)
	id := mustInsert(t, col, []byte(`<r><price>42</price></r>`))
	// Enough other documents that the index beats a scan: one document
	// scans cheaper than an index probe.
	for i := 0; i < 20; i++ {
		mustInsert(t, col, []byte(fmt.Sprintf(`<r><price>%d</price></r>`, 100+i)))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	col2, err := db2.Collection("c")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col2.Serialize(id, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != `<r><price>42</price></r>` {
		t.Errorf("reopened doc = %s", buf.String())
	}
	res, plan, err := col2.QueryOpts("/r[price = 42]", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || plan.Method == "scan" {
		t.Errorf("reopened query: %d results, plan %s", len(res), plan.Method)
	}
	// New inserts keep working with fresh DocIDs.
	id2 := mustInsert(t, col2, []byte(`<r><price>1</price></r>`))
	if id2 == id {
		t.Error("DocID reused after reopen")
	}
}

func TestFileBackedDB(t *testing.T) {
	path := t.TempDir() + "/rx.db"
	fs, err := pagestore.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	col, _ := db.CreateCollection("c", CollectionOptions{})
	id := mustInsert(t, col, []byte(`<doc><x>1</x></doc>`))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := pagestore.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(fs2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	col2, err := db2.Collection("c")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col2.Serialize(id, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != `<doc><x>1</x></doc>` {
		t.Errorf("file round trip = %s", buf.String())
	}
}

func TestNamespacedDocuments(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	doc := `<p:r xmlns:p="urn:one"><p:x>7</p:x></p:r>`
	id := mustInsert(t, col, []byte(doc))
	var buf bytes.Buffer
	if err := col.Serialize(id, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != doc {
		t.Errorf("ns round trip = %s", buf.String())
	}
}

func TestManyDocuments(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	col.CreateValueIndex("ix", "//n", xml.TDouble)
	const N = 500
	for i := 0; i < N; i++ {
		mustInsert(t, col, []byte(fmt.Sprintf(`<d><n>%d</n><pad>%060d</pad></d>`, i, i)))
	}
	n, _ := col.Count()
	if n != N {
		t.Fatalf("Count = %d", n)
	}
	res, plan, err := col.QueryOpts(fmt.Sprintf("/d[n >= %d]", N-25), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 25 {
		t.Errorf("got %d results (plan %s)", len(res), plan.Method)
	}
}

// TestCreateValueIndexBackfillRIDs: every value-index entry carries the RID
// of the record that holds its node at the document's current version —
// reader.lookup's answer — whether CreateValueIndex backfilled it or ingest
// wrote it. Ingest takes the RID from its own shred pass rather than a
// NodeID-index probe, so the batch mixes small orders with a document large
// enough to pack into several records. (On a versioned collection a
// plain-layout NodeID lookup lands on the newest version's first entry, the
// root record.)
func TestCreateValueIndexBackfillRIDs(t *testing.T) {
	bothModes(t, CollectionOptions{PackThreshold: 400}, func(t *testing.T, col *Collection) {
		big := func(prefix string) []byte {
			var sb strings.Builder
			sb.WriteString("<r>")
			for i := 0; i < 60; i++ {
				fmt.Fprintf(&sb, "<item><sku>%s%03d</sku><note>%040d</note></item>", prefix, i, i)
			}
			sb.WriteString("</r>")
			return []byte(sb.String())
		}
		backfilled := mustInsert(t, col, big("S"))
		if err := col.CreateValueIndex("by_sku", "/r/item/sku", xml.TString); err != nil {
			t.Fatal(err)
		}
		batch := [][]byte{
			[]byte("<r><item><sku>A1</sku></item></r>"),
			big("B"),
			[]byte("<r><item><sku>C1</sku></item><item><sku>C2</sku></item></r>"),
			[]byte("<r><note>no sku</note></r>"),
		}
		ids, err := txnInsertBatch(col, batch)
		if err != nil {
			t.Fatal(err)
		}
		readers := map[xml.DocID]docReader{}
		rids := map[xml.DocID]map[heap.RID]bool{}
		entries := 0
		err = col.ValueIndex("by_sku").Scan(valueindex.Range{}, func(e valueindex.Entry) bool {
			entries++
			r, ok := readers[e.Doc]
			if !ok {
				var err error
				if r, err = col.reader(e.Doc); err != nil {
					t.Error(err)
					return false
				}
				readers[e.Doc], rids[e.Doc] = r, map[heap.RID]bool{}
			}
			rids[e.Doc][e.RID] = true
			want, err := r.lookup(e.Node)
			if err != nil {
				t.Error(err)
				return false
			}
			if e.RID != want {
				t.Errorf("doc %d: entry for node %s carries RID %s, its record is %s", e.Doc, e.Node, e.RID, want)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if entries != 60+1+60+2 {
			t.Fatalf("%d entries, want %d", entries, 60+1+60+2)
		}
		for _, doc := range []xml.DocID{backfilled, ids[1]} {
			if len(rids[doc]) < 2 {
				t.Fatalf("doc %d: entries over %d records: the document must span records", doc, len(rids[doc]))
			}
		}
	})
}
