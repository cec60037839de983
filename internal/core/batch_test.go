package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rx/internal/btree"
	"rx/internal/pagestore"
	"rx/internal/wal"
	"rx/internal/xml"
)

func batchDoc(i int) []byte {
	return []byte(fmt.Sprintf(
		`<item><sku>SKU-%03d</sku><qty>%d</qty><note>doc number %d</note></item>`,
		i, i*3, i))
}

// dumpTree flattens a B+tree to its logical (key, value) entry list.
func dumpTree(t *testing.T, tr *btree.Tree) []btree.Entry {
	t.Helper()
	var out []btree.Entry
	err := tr.Scan(nil, nil, func(e btree.Entry) bool {
		out = append(out, btree.Entry{
			Key:   append([]byte(nil), e.Key...),
			Value: append([]byte(nil), e.Value...),
		})
		return true
	})
	if err != nil {
		t.Fatalf("tree scan: %v", err)
	}
	return out
}

func treesEqual(t *testing.T, name string, a, b []btree.Entry) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: entry count %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			t.Fatalf("%s: entry %d differs:\n  %x=%x\n  %x=%x",
				name, i, a[i].Key, a[i].Value, b[i].Key, b[i].Value)
		}
	}
}

// setupBatchCol builds the reference collection shape used by the
// equivalence tests: two typed value indexes over the batchDoc schema.
func setupBatchCol(t *testing.T, db *DB, versioned bool) *Collection {
	t.Helper()
	col, err := db.CreateCollection("c", CollectionOptions{Versioned: versioned, PackThreshold: 300})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.CreateValueIndex("ix_qty", "//qty", xml.TDouble); err != nil {
		t.Fatal(err)
	}
	if err := col.CreateValueIndex("ix_sku", "//sku", xml.TString); err != nil {
		t.Fatal(err)
	}
	return col
}

// ingestEntryPoints are the ways documents reach the one ingest pipeline: a
// transaction per document or one for the whole batch. The first is the
// reference the other is compared against.
var ingestEntryPoints = []struct {
	name   string
	insert func(db *DB, col *Collection, docs [][]byte) ([]xml.DocID, error)
}{
	{"Txn.Insert", func(db *DB, col *Collection, docs [][]byte) ([]xml.DocID, error) {
		ids := make([]xml.DocID, len(docs))
		for i, d := range docs {
			err := db.RunTxn(func(t *Txn) (err error) {
				ids[i], err = t.Insert(col, d)
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		return ids, nil
	}},
	{"Txn.InsertBatch", func(_ *DB, col *Collection, docs [][]byte) ([]xml.DocID, error) {
		return txnInsertBatch(col, docs)
	}},
}

// txnInsertBatch stores docs as one batch in a transaction of its own.
func txnInsertBatch(col *Collection, docs [][]byte) (ids []xml.DocID, err error) {
	err = col.db.RunTxn(func(t *Txn) (err error) {
		ids, err = t.InsertBatch(col, docs, BatchOptions{})
		return err
	})
	return ids, err
}

// TestInsertBatchMatchesSequentialInserts is the ingest correctness anchor:
// every entry point — one document at a time or a whole batch — must leave byte-identical logical index contents (DocID index,
// NodeID index, every value index) for the same documents, and each database
// must pass full physical and structural verification.
func TestInsertBatchMatchesSequentialInserts(t *testing.T) {
	const n = 40
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = batchDoc(i)
	}
	for _, versioned := range []bool{false, true} {
		var refCol *Collection
		var refIDs []xml.DocID
		for _, ep := range ingestEntryPoints {
			t.Run(fmt.Sprintf("versioned=%v/%s", versioned, ep.name), func(t *testing.T) {
				db := newDB(t)
				col := setupBatchCol(t, db, versioned)
				ids, err := ep.insert(db, col, docs)
				if err != nil {
					t.Fatalf("insert: %v", err)
				}
				if len(ids) != n {
					t.Fatalf("returned %d ids, want %d", len(ids), n)
				}

				// Documents round-trip.
				for i, id := range ids {
					var buf bytes.Buffer
					if err := col.Serialize(id, &buf); err != nil {
						t.Fatalf("serialize doc %d: %v", i, err)
					}
					if buf.String() != string(docs[i]) {
						t.Fatalf("doc %d round-trip:\n got %s\nwant %s", i, buf.String(), docs[i])
					}
				}
				// Queries resolve through the value indexes.
				hits, plan, err := col.QueryOpts("/item[qty = 21]", QueryOptions{})
				if err != nil || len(hits) != 1 || hits[0].Doc != ids[7] {
					t.Fatalf("indexed query: hits=%v plan=%v err=%v", hits, plan, err)
				}
				if got := col.StatsSnapshot(); got.DocCount != n {
					t.Fatalf("stats: %d docs, want %d", got.DocCount, n)
				}
				if got, err := col.ValueIndex("ix_qty").Count(); err != nil || got != n {
					t.Fatalf("ix_qty: %d entries, %v; want %d", got, err, n)
				}

				// Physical + structural cross-check.
				if err := col.CheckConsistency(); err != nil {
					t.Fatalf("CheckConsistency: %v", err)
				}
				if err := db.VerifyPages(); err != nil {
					t.Fatalf("VerifyPages: %v", err)
				}
				rep, err := db.ScrubPass(nil)
				if err != nil {
					t.Fatalf("ScrubPass: %v", err)
				}
				if !rep.Clean() {
					t.Fatalf("scrub found damage: %+v", rep)
				}

				if refCol == nil {
					refCol, refIDs = col, ids
					return
				}
				// Logical index contents must match the reference byte for
				// byte. (Physical page layouts may differ — sorted insertion
				// packs leaves differently — which is exactly why the
				// comparison is over entries, not pages.)
				for i := range refIDs {
					if refIDs[i] != ids[i] {
						t.Fatalf("DocID %d: reference %d vs %d", i, refIDs[i], ids[i])
					}
				}
				treesEqual(t, "docIx", dumpTree(t, refCol.docIx), dumpTree(t, col.docIx))
				treesEqual(t, "nodeIx", dumpTree(t, refCol.nodeIx.Tree()), dumpTree(t, col.nodeIx.Tree()))
				if len(refCol.valIxs) != 2 || len(col.valIxs) != 2 {
					t.Fatalf("value index count: %d vs %d", len(refCol.valIxs), len(col.valIxs))
				}
				for i := range refCol.valIxs {
					treesEqual(t, "valIx "+refCol.valIxs[i].meta.Name,
						dumpTree(t, refCol.valIxs[i].ix.Tree()),
						dumpTree(t, col.valIxs[i].ix.Tree()))
				}
			})
		}
	}
}

// TestInsertBatchSingleCommit verifies the WAL half of the bulk-load win:
// a 10-document batch costs exactly one transaction commit (and is durable).
func TestInsertBatchSingleCommit(t *testing.T) {
	store := pagestore.NewMemStore()
	log, err := wal.Open(&wal.MemDevice{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(store, Options{WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	col, _ := db.CreateCollection("c", CollectionOptions{})
	db.Checkpoint()

	docs := make([][]byte, 10)
	for i := range docs {
		docs[i] = batchDoc(i)
	}
	before := log.CommitCount()
	ids, err := txnInsertBatch(col, docs)
	if err != nil {
		t.Fatal(err)
	}
	if got := log.CommitCount() - before; got != 1 {
		t.Errorf("batch of %d docs issued %d commits, want 1", len(docs), got)
	}

	// Crash without flushing pages: recovery must redo the whole batch.
	log.FlushAll()
	db2, err := Recover(store, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	col2, err := db2.Collection("c")
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		var buf bytes.Buffer
		if err := col2.Serialize(id, &buf); err != nil {
			t.Fatalf("batch doc %d lost across recovery: %v", i, err)
		}
		if buf.String() != string(docs[i]) {
			t.Fatalf("batch doc %d after recovery = %s", i, buf.String())
		}
	}
}

// TestInsertBatchRejectsBadDocument verifies all-or-nothing parsing: a
// malformed document anywhere in the batch fails the whole batch before any
// mutation, and a later batch starts at an uncontaminated state.
func TestInsertBatchRejectsBadDocument(t *testing.T) {
	db := newDB(t)
	col := setupBatchCol(t, db, false)

	docs := [][]byte{batchDoc(0), []byte(`<broken><unclosed>`), batchDoc(2)}
	if _, err := txnInsertBatch(col, docs); err == nil {
		t.Fatal("batch with malformed document succeeded")
	} else if !strings.Contains(err.Error(), "batch document 1") {
		t.Errorf("error should name the offending document: %v", err)
	}
	if n, _ := col.Count(); n != 0 {
		t.Fatalf("failed batch left %d documents behind", n)
	}
	if cnt, _ := col.nodeIx.Count(); cnt != 0 {
		t.Fatalf("failed batch left %d node index entries", cnt)
	}

	ids, err := txnInsertBatch(col, [][]byte{batchDoc(0), batchDoc(1)})
	if err != nil {
		t.Fatalf("clean batch after failed batch: %v", err)
	}
	if len(ids) != 2 || !col.Has(ids[0]) || !col.Has(ids[1]) {
		t.Fatalf("clean batch not fully stored: %v", ids)
	}
	if err := db.VerifyPages(); err != nil {
		t.Fatalf("VerifyPages: %v", err)
	}
}

// TestInsertBatchEmpty: a zero-length batch is a no-op, not an error.
func TestInsertBatchEmpty(t *testing.T) {
	db := newDB(t)
	col := setupBatchCol(t, db, false)
	ids, err := txnInsertBatch(col, nil)
	if err != nil || ids != nil {
		t.Fatalf("empty batch: ids=%v err=%v", ids, err)
	}
}
