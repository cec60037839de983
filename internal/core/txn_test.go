package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"rx/internal/lock"
	"rx/internal/pagestore"
	"rx/internal/wal"
	"rx/internal/xml"
)

func newLoggedDB(t *testing.T) (*DB, pagestore.Store, *wal.Log) {
	t.Helper()
	store := pagestore.NewMemStore()
	log, err := wal.Open(&wal.MemDevice{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(store, Options{WAL: log, LockTimeoutMillis: 200})
	if err != nil {
		t.Fatal(err)
	}
	return db, store, log
}

func TestTxnCommit(t *testing.T) {
	db, _, _ := newLoggedDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	tx := db.Begin()
	id, err := tx.Insert(col, []byte(`<a>1</a>`))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !col.Has(id) {
		t.Error("committed doc missing")
	}
	if err := tx.Commit(); err == nil {
		t.Error("double commit should fail")
	}
}

func TestTxnRollbackInsert(t *testing.T) {
	db, _, _ := newLoggedDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	tx := db.Begin()
	id, _ := tx.Insert(col, []byte(`<a>1</a>`))
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if col.Has(id) {
		t.Error("rolled-back insert still present")
	}
}

func TestTxnRollbackDeleteAndUpdates(t *testing.T) {
	db, _, _ := newLoggedDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	col.CreateValueIndex("ix", "//v", xml.TDouble)
	id := mustInsert(t, col, []byte(`<r><p><v>1</v></p><q><v>2</v></q></r>`))

	tx := db.Begin()
	if err := tx.Delete(col, id); err != nil {
		t.Fatal(err)
	}
	if col.Has(id) {
		t.Fatal("delete did not take effect inside txn")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.Serialize(id, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != `<r><p><v>1</v></p><q><v>2</v></q></r>` {
		t.Errorf("after rollback: %s", buf.String())
	}
	// Indexes consistent after undo.
	hits, _, _ := col.QueryOpts("//p[v = 1]", QueryOptions{})
	if len(hits) != 1 {
		t.Errorf("index broken after rollback: %v", hits)
	}

	// Text update + subtree delete + fragment insert, all rolled back.
	tRes, _, _ := col.QueryOpts("//p/v/text()", QueryOptions{})
	qRes, _, _ := col.QueryOpts("/r/q", QueryOptions{})
	pRes, _, _ := col.QueryOpts("/r/p", QueryOptions{})
	tx2 := db.Begin()
	if err := tx2.UpdateText(col, id, tRes[0].Node, []byte("99")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.DeleteSubtree(col, id, qRes[0].Node); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.InsertFragment(col, id, pRes[0].Node, AfterNode, []byte(`<new/>`)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	col.Serialize(id, &buf)
	if buf.String() != `<r><p><v>1</v></p><q><v>2</v></q></r>` {
		t.Errorf("after complex rollback: %s", buf.String())
	}
}

func TestCrashRecoveryCommittedSurvives(t *testing.T) {
	store := pagestore.NewMemStore()
	log, _ := wal.Open(&wal.MemDevice{})
	db, err := Open(store, Options{WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	col, _ := db.CreateCollection("c", CollectionOptions{})
	col.CreateValueIndex("ix", "//v", xml.TDouble)
	db.Checkpoint()

	tx := db.Begin()
	id, _ := tx.Insert(col, []byte(`<r><v>42</v></r>`))
	tx.Commit()

	tx2 := db.Begin()
	id2, _ := tx2.Insert(col, []byte(`<r><v>666</v></r>`))
	// tx2 never commits: crash now. Pages were never flushed to the store.
	log.FlushAll()
	_ = id2

	db2, err := Recover(store, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	col2, err := db2.Collection("c")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col2.Serialize(id, &buf); err != nil {
		t.Fatalf("committed doc lost: %v", err)
	}
	if buf.String() != `<r><v>42</v></r>` {
		t.Errorf("committed doc = %s", buf.String())
	}
	if col2.Has(id2) {
		t.Error("uncommitted doc survived recovery")
	}
	// Query via index works post-recovery.
	hits, _, err := col2.QueryOpts("/r[v = 42]", QueryOptions{})
	if err != nil || len(hits) != 1 {
		t.Errorf("post-recovery query: %v, %v", hits, err)
	}
	hits, _, _ = col2.QueryOpts("/r[v = 666]", QueryOptions{})
	if len(hits) != 0 {
		t.Error("uncommitted data visible via index after recovery")
	}
}

func TestCrashRecoveryUncommittedUpdateUndone(t *testing.T) {
	store := pagestore.NewMemStore()
	log, _ := wal.Open(&wal.MemDevice{})
	db, _ := Open(store, Options{WAL: log})
	col, _ := db.CreateCollection("c", CollectionOptions{})
	id := mustInsert(t, col, []byte(`<r><v>old</v></r>`))
	db.Checkpoint()

	tRes, _, _ := col.QueryOpts("//v/text()", QueryOptions{})
	tx := db.Begin()
	if err := tx.UpdateText(col, id, tRes[0].Node, []byte("new")); err != nil {
		t.Fatal(err)
	}
	log.FlushAll() // crash before commit

	db2, err := Recover(store, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	col2, _ := db2.Collection("c")
	var buf bytes.Buffer
	col2.Serialize(id, &buf)
	if buf.String() != `<r><v>old</v></r>` {
		t.Errorf("uncommitted update not undone: %s", buf.String())
	}
}

// TestRecoverLosersDeterministic: recovery compensates its losers in a fixed
// order, so byte-identical copies of one crash image with several open
// transactions recover to byte-identical logs and pages.
func TestRecoverLosersDeterministic(t *testing.T) {
	store := pagestore.NewMemStore()
	dev := &wal.MemDevice{}
	log, _ := wal.Open(dev)
	db, err := Open(store, Options{WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	col, _ := db.CreateCollection("c", CollectionOptions{})
	col.CreateValueIndex("ix", "//v", xml.TDouble)
	keep := mustInsert(t, col, []byte(`<r><v>1</v></r>`))
	gone := mustInsert(t, col, []byte(`<r><v>2</v></r>`))
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	text, _, _ := col.QueryOpts("/r[v = 1]/v/text()", QueryOptions{})
	tx1, tx2, tx3, tx4 := db.Begin(), db.Begin(), db.Begin(), db.Begin()
	if _, err := tx1.Insert(col, []byte(`<r><v>3</v></r>`)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.UpdateText(col, keep, text[0].Node, []byte("4")); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Delete(col, gone); err != nil {
		t.Fatal(err)
	}
	if _, err := tx4.Insert(col, []byte(`<r><v>5</v><v>6</v></r>`)); err != nil {
		t.Fatal(err)
	}
	log.FlushAll() // crash with all four open

	var wantLog, wantPages []byte
	for i := 0; i < 6; i++ {
		store2, dev2 := pagestore.NewMemStore(), &wal.MemDevice{}
		dev2.WriteAt(deviceBytes(t, dev), 0)
		page := make([]byte, pagestore.PageSize)
		for id := pagestore.PageID(0); id < store.NumPages(); id++ {
			store.ReadPage(id, page)
			store2.Allocate()
			store2.WritePage(id, page)
		}
		log2, err := wal.Open(dev2)
		if err != nil {
			t.Fatal(err)
		}
		db2, err := Recover(store2, log2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
		var pages []byte
		for id := pagestore.PageID(0); id < store2.NumPages(); id++ {
			store2.ReadPage(id, page)
			pages = append(pages, page...)
		}
		if i == 0 {
			wantLog, wantPages = deviceBytes(t, dev2), pages
			continue
		}
		if !bytes.Equal(deviceBytes(t, dev2), wantLog) {
			t.Fatalf("recovery %d wrote a different log from recovery 0", i)
		}
		if !bytes.Equal(pages, wantPages) {
			t.Fatalf("recovery %d left different pages from recovery 0", i)
		}
	}
}

func deviceBytes(t *testing.T, dev *wal.MemDevice) []byte {
	t.Helper()
	size, _ := dev.Size()
	b := make([]byte, size)
	if _, err := dev.ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDocLockConflict(t *testing.T) {
	db, _, _ := newLoggedDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	id := mustInsert(t, col, []byte(`<a>1</a>`))

	tx1 := db.Begin()
	if err := tx1.UpdateText(col, id, mustTextNode(t, col, id), []byte("x")); err != nil {
		t.Fatal(err)
	}
	// A second writer times out on the X lock.
	tx2 := db.Begin()
	err := tx2.UpdateText(col, id, mustTextNode(t, col, id), []byte("y"))
	if !errors.Is(err, lock.ErrTimeout) {
		t.Errorf("expected lock timeout, got %v", err)
	}
	tx2.Rollback()
	tx1.Commit()
	// After release, a new writer proceeds.
	tx3 := db.Begin()
	if err := tx3.UpdateText(col, id, mustTextNode(t, col, id), []byte("z")); err != nil {
		t.Fatal(err)
	}
	tx3.Commit()
}

func mustTextNode(t *testing.T, col *Collection, id xml.DocID) []byte {
	t.Helper()
	res, _, err := col.QueryOpts("/a/text()", QueryOptions{})
	if err != nil || len(res) == 0 {
		t.Fatalf("text node: %v %v", res, err)
	}
	return res[0].Node
}

func TestConcurrentReaders(t *testing.T) {
	db, _, _ := newLoggedDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	id := mustInsert(t, col, []byte(`<a><b>x</b></a>`))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tx := db.Begin()
				var buf bytes.Buffer
				if err := tx.Serialize(col, id, &buf); err != nil {
					t.Error(err)
				}
				tx.Commit()
			}
		}()
	}
	wg.Wait()
}
