package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"rx/internal/btree"
	"rx/internal/heap"
	"rx/internal/nodeid"
	"rx/internal/nodeindex"
	"rx/internal/xml"
)

// TestConsistencyAfterChurn runs the CHECK-INDEX-style verifier after a
// workload of inserts, updates, fragment insertions, subtree deletions and
// document deletions.
func TestConsistencyAfterChurn(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("churn", CollectionOptions{PackThreshold: 500})
	col.CreateValueIndex("ix_qty", "//qty", xml.TDouble)
	col.CreateValueIndex("ix_sku", "//sku", xml.TString)

	var ids []xml.DocID
	for d := 0; d < 12; d++ {
		var sb strings.Builder
		sb.WriteString("<order><items>")
		for i := 0; i < 40; i++ {
			fmt.Fprintf(&sb, `<item><sku>S%03d</sku><qty>%d</qty><pad>%030d</pad></item>`, i, i%9, i)
		}
		sb.WriteString("</items></order>")
		id := mustInsert(t, col, []byte(sb.String()))
		ids = append(ids, id)
	}
	if err := col.CheckConsistency(); err != nil {
		t.Fatalf("after load: %v", err)
	}

	// Updates on several docs.
	for _, id := range ids[:4] {
		res, _, _ := col.QueryOpts(`//item[sku = 'S005']/qty/text()`, QueryOptions{})
		for _, r := range res {
			if r.Doc == id {
				if err := db.RunTxn(func(tx *Txn) error { return tx.UpdateText(col, id, r.Node, []byte("99")) }); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Subtree deletions.
	for _, id := range ids[4:6] {
		res, _, _ := col.QueryOpts(`//item[sku = 'S010']`, QueryOptions{})
		for _, r := range res {
			if r.Doc == id {
				if err := db.RunTxn(func(tx *Txn) error { return tx.DeleteSubtree(col, id, r.Node) }); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Fragment insertions.
	for _, id := range ids[6:8] {
		root, _, _ := col.QueryOpts("/order/items", QueryOptions{})
		for _, r := range root {
			if r.Doc == id {
				err := db.RunTxn(func(tx *Txn) error {
					_, err := tx.InsertFragment(col, id, r.Node, AsLastChild, []byte(`<item><sku>SNEW</sku><qty>7</qty></item>`))
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Document deletions.
	for _, id := range ids[8:10] {
		if err := db.RunTxn(func(tx *Txn) error { return tx.Delete(col, id) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := col.CheckConsistency(); err != nil {
		t.Fatalf("after churn: %v", err)
	}
}

// TestConsistencyVersioned checks the versioned invariants after updates
// and vacuum.
func TestConsistencyVersioned(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("v", CollectionOptions{Versioned: true, PackThreshold: 400})
	col.CreateValueIndex("ix", "//v", xml.TDouble)
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&sb, "<e><v>%d</v><pad>%030d</pad></e>", i, i)
	}
	sb.WriteString("</r>")
	id := mustInsert(t, col, []byte(sb.String()))
	for round := 0; round < 4; round++ {
		res, _, _ := col.QueryOpts(`//e[v = 25]/v/text()`, QueryOptions{})
		if len(res) == 0 {
			res, _, _ = col.QueryOpts(`//e[v = 2525]/v/text()`, QueryOptions{})
		}
		if err := db.RunTxn(func(tx *Txn) error { return tx.UpdateText(col, id, res[0].Node, []byte("2525")) }); err != nil {
			t.Fatal(err)
		}
		if err := col.CheckConsistency(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	cur, _ := col.SnapshotVersion(id)
	if err := col.Vacuum(id, cur); err != nil {
		t.Fatal(err)
	}
	if err := col.CheckConsistency(); err != nil {
		t.Fatalf("after vacuum: %v", err)
	}
}

// versionedFixture is a versioned collection holding two multi-record
// documents, the first edited once (two versions), with a value index when
// indexed is set. It returns the collection, the edited document and its
// serialization.
func versionedFixture(t *testing.T, indexed bool) (*DB, *Collection, xml.DocID, string) {
	t.Helper()
	db := newDB(t)
	col, err := db.CreateCollection("v", CollectionOptions{Versioned: true, PackThreshold: 400})
	if err != nil {
		t.Fatal(err)
	}
	if indexed {
		if err := col.CreateValueIndex("ix", "//v", xml.TDouble); err != nil {
			t.Fatal(err)
		}
	}
	var ids []xml.DocID
	for d := 0; d < 2; d++ {
		var sb strings.Builder
		sb.WriteString("<r>")
		for i := 0; i < 40; i++ {
			fmt.Fprintf(&sb, "<e><v>%d</v><pad>%030d</pad></e>", d*100+i, i)
		}
		sb.WriteString("</r>")
		ids = append(ids, mustInsert(t, col, []byte(sb.String())))
	}
	id := ids[0]
	res, _, err := col.QueryOpts("//e[v = 7]/v/text()", QueryOptions{})
	if err != nil || len(res) != 1 {
		t.Fatalf("edit target: %v, %v", res, err)
	}
	if err := db.RunTxn(func(tx *Txn) error { return tx.UpdateText(col, id, res[0].Node, []byte("77")) }); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.Serialize(id, &buf); err != nil {
		t.Fatal(err)
	}
	return db, col, id, buf.String()
}

// nodeEntriesOf counts a document's NodeID-index entries, every version.
func nodeEntriesOf(t *testing.T, col *Collection, doc xml.DocID) int {
	t.Helper()
	n := 0
	err := col.nodeIx.Tree().Scan(nodeindex.Key(doc, nodeid.Root), nodeindex.Key(doc+1, nodeid.Root), func(btree.Entry) bool {
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestInsertCompensationVersionedHalfInserted: a crash after ingest's pass 2
// leaves a versioned document's rows and NodeID entries with no base row and
// no DocID entry. Compensating the insert must remove them; CheckConsistency
// (invariant 7) must see them until it does.
func TestInsertCompensationVersionedHalfInserted(t *testing.T) {
	db, col, id, _ := versionedFixture(t, false)
	rowsBefore := col.XMLTable().Count()
	var d [8]byte
	binary.BigEndian.PutUint64(d[:], uint64(id))
	baseRID, err := col.docIx.Get(d[:])
	if err != nil {
		t.Fatal(err)
	}
	if err := col.base.Delete(heap.RIDFromBytes(baseRID)); err != nil {
		t.Fatal(err)
	}
	if err := col.docIx.Delete(d[:]); err != nil {
		t.Fatal(err)
	}
	if err := col.CheckConsistency(); err == nil {
		t.Fatal("CheckConsistency passes with NodeID entries of a document the DocID index lacks")
	}
	if err := db.compensate(logicalOp{Kind: "insert", Col: col.Name(), Doc: id}); err != nil {
		t.Fatalf("insert compensation: %v", err)
	}
	if n := nodeEntriesOf(t, col, id); n != 0 {
		t.Errorf("%d NodeID entries survive the compensation", n)
	}
	other, err := col.DocIDs()
	if err != nil || len(other) != 1 {
		t.Fatalf("documents left: %v, %v", other, err)
	}
	if rows := col.XMLTable().Count(); rows >= rowsBefore || rows == 0 {
		t.Errorf("rows %d -> %d: the half-inserted document's rows survive", rowsBefore, rows)
	}
	if err := col.CheckConsistency(); err != nil {
		t.Fatalf("after compensation: %v", err)
	}
}

// TestRestoreVersionedHalfDeleted: a crash in the middle of removing an
// indexed versioned document leaves its value keys gone and one of its rows
// freed, so its tree no longer walks. Restoring it from its captured stream
// (delete compensation) must not need that walk.
func TestRestoreVersionedHalfDeleted(t *testing.T) {
	_, col, id, want := versionedFixture(t, true)
	stream, err := col.DocStream(id)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := col.evalStored(id, col.indexSnapshot()[0].keygen)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range keys {
		if err := col.indexSnapshot()[0].ix.Delete(m.Value, id, m.ID); err != nil {
			t.Fatal(err)
		}
	}
	r, err := col.reader(id)
	if err != nil {
		t.Fatal(err)
	}
	var last heap.RID
	if err := r.entries(func(_ nodeid.ID, rid heap.RID) bool { last = rid; return true }); err != nil {
		t.Fatal(err)
	}
	if err := col.xmlTbl.Delete(last); err != nil {
		t.Fatal(err)
	}
	if err := col.restoreDoc(id, stream); err != nil {
		t.Fatalf("restore of a half-deleted document: %v", err)
	}
	if err := col.CheckConsistency(); err != nil {
		t.Fatalf("after restore: %v", err)
	}
	var buf bytes.Buffer
	if err := col.Serialize(id, &buf); err != nil || buf.String() != want {
		t.Fatalf("restored document differs (%v)", err)
	}
}

// TestRemoveDocSkipsReusedRows: a crash inside a removal can free a
// document's rows and base row while its index entries survive, and a later
// insert can reuse those slots before compensation removes the document
// (recovery replays a rolled-back transaction's restores before its insert
// compensations). The removal must leave the new owner's rows alone.
func TestRemoveDocSkipsReusedRows(t *testing.T) {
	db, col, id, _ := versionedFixture(t, false)
	var d [8]byte
	binary.BigEndian.PutUint64(d[:], uint64(id))
	baseBytes, err := col.docIx.Get(d[:])
	if err != nil {
		t.Fatal(err)
	}
	baseRID := heap.RIDFromBytes(baseBytes)
	rows := map[heap.RID]bool{}
	err = col.nodeIx.Tree().Scan(nodeindex.Key(id, nodeid.Root), nodeindex.Key(id+1, nodeid.Root), func(e btree.Entry) bool {
		rows[heap.RIDFromBytes(e.Value)] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for rid := range rows {
		if err := col.xmlTbl.Delete(rid); err != nil {
			t.Fatal(err)
		}
	}
	if err := col.base.Delete(baseRID); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "<e><v>%d</v><pad>%030d</pad></e>", 500+i, i)
	}
	sb.WriteString("</r>")
	want := sb.String()
	other := mustInsert(t, col, []byte(want))
	binary.BigEndian.PutUint64(d[:], uint64(other))
	if b, err := col.docIx.Get(d[:]); err != nil || heap.RIDFromBytes(b) != baseRID {
		t.Fatalf("new document's base row is not in the freed slot %s (%x, %v)", baseRID, b, err)
	}
	if err := db.compensate(logicalOp{Kind: "insert", Col: col.Name(), Doc: id}); err != nil {
		t.Fatalf("insert compensation: %v", err)
	}
	var buf bytes.Buffer
	if err := col.Serialize(other, &buf); err != nil || buf.String() != want {
		t.Fatalf("document in the reused slots damaged by the removal (%v)", err)
	}
	if col.Has(id) {
		t.Error("removed document still present")
	}
	if err := col.CheckConsistency(); err != nil {
		t.Fatalf("after removal: %v", err)
	}
}

// TestConsistencyCatchesNarrowSignature: a root record whose signature
// misses an element the document holds fails invariant 8 — the one state
// in which ruling a document out would lose matches. A wider signature
// (the trace of a deleted element) passes.
func TestConsistencyCatchesNarrowSignature(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{PackThreshold: 512})
	doc := mustInsert(t, col, archiveDoc(40))
	setSig := func(sig func(uint64) uint64) {
		t.Helper()
		r, err := col.reader(doc)
		if err != nil {
			t.Fatal(err)
		}
		root, err := r.openRec(nodeid.Root)
		if err != nil {
			t.Fatal(err)
		}
		root.rec.Sig = sig(root.rec.Sig)
		if err := col.rewriteRecord(doc, root.rid, root.rec, root.tops); err != nil {
			t.Fatal(err)
		}
	}
	who, _ := db.cat.Intern("who")
	setSig(func(s uint64) uint64 { return s | 1<<63 })
	if err := col.CheckConsistency(); err != nil {
		t.Fatalf("a superset signature fails the check: %v", err)
	}
	setSig(func(s uint64) uint64 { return s &^ xml.SigBit(who) })
	if err := col.CheckConsistency(); err == nil || !strings.Contains(err.Error(), "signature") {
		t.Fatalf("a signature missing <who> (stored in run records) passes the check: %v", err)
	}
}

// TestConsistencyReportsEveryDamagedDocument: the check does not stop at the
// first violation — two damaged documents are both named.
func TestConsistencyReportsEveryDamagedDocument(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{PackThreshold: 512})
	var ids []xml.DocID
	for i := 0; i < 3; i++ {
		ids = append(ids, mustInsert(t, col, archiveDoc(40)))
	}
	who, _ := db.cat.Intern("who")
	for _, doc := range []xml.DocID{ids[0], ids[2]} {
		r, err := col.reader(doc)
		if err != nil {
			t.Fatal(err)
		}
		root, err := r.openRec(nodeid.Root)
		if err != nil {
			t.Fatal(err)
		}
		root.rec.Sig &^= xml.SigBit(who)
		if err := col.rewriteRecord(doc, root.rid, root.rec, root.tops); err != nil {
			t.Fatal(err)
		}
	}
	err := col.CheckConsistency()
	if err == nil {
		t.Fatal("two documents with narrowed signatures pass the check")
	}
	for _, doc := range []xml.DocID{ids[0], ids[2]} {
		if !strings.Contains(err.Error(), fmt.Sprintf("doc %d: ", doc)) {
			t.Errorf("the check's error does not name doc %d: %v", doc, err)
		}
	}
	if strings.Contains(err.Error(), fmt.Sprintf("doc %d: ", ids[1])) {
		t.Errorf("the check's error names the sound doc %d: %v", ids[1], err)
	}
}
