package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"rx/internal/core"
	"rx/internal/rxerr"
	"rx/internal/xml"
)

func newDB(t *testing.T) *core.DB {
	t.Helper()
	db, err := core.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestSessionCRUDAndQuery(t *testing.T) {
	db := newDB(t)
	s := New(db)
	ctx := context.Background()

	if err := s.CreateCollection(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	id, err := s.Insert(ctx, "c", []byte(`<p><price>9</price></p>`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertBatch(ctx, "c", [][]byte{
		[]byte(`<p><price>20</price></p>`),
		[]byte(`<p><price>30</price></p>`),
	}); err != nil {
		t.Fatal(err)
	}

	cur, err := s.Query(ctx, "c", "/p[price < 25]/price", NeedValues())
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var vals []string
	for cur.Next() {
		vals = append(vals, string(cur.Result().Value))
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 {
		t.Fatalf("vals = %v", vals)
	}

	doc, err := s.Get(ctx, "c", id)
	if err != nil {
		t.Fatal(err)
	}
	if string(doc) != `<p><price>9</price></p>` {
		t.Fatalf("get = %s", doc)
	}

	if err := s.Delete(ctx, "c", id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, "c", id); !errors.Is(err, rxerr.ErrNotFound) {
		t.Fatalf("get deleted = %v, want ErrNotFound", err)
	}
}

func TestSessionTransactionScope(t *testing.T) {
	db := newDB(t)
	s := New(db)
	ctx := context.Background()
	if err := s.CreateCollection(ctx, "c"); err != nil {
		t.Fatal(err)
	}

	if err := s.Commit(ctx); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("commit without txn = %v", err)
	}
	if err := s.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(ctx); !errors.Is(err, ErrTxnOpen) {
		t.Fatalf("double begin = %v", err)
	}
	id, err := s.Insert(ctx, "c", []byte(`<d/>`))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, "c", id); !errors.Is(err, rxerr.ErrNotFound) {
		t.Fatalf("rolled-back doc still readable: %v", err)
	}

	if err := s.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	id2, err := s.Insert(ctx, "c", []byte(`<d>kept</d>`))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, "c", id2); err != nil {
		t.Fatalf("committed doc unreadable: %v", err)
	}
}

// TestSessionCloseRollsBack is the disconnect path: closing a session with
// an open transaction must undo its effects and release its locks.
func TestSessionCloseRollsBack(t *testing.T) {
	db := newDB(t)
	ctx := context.Background()
	s := New(db)
	if err := s.CreateCollection(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	id, err := s.Insert(ctx, "c", []byte(`<d/>`))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(ctx, "c", []byte(`<d/>`)); !errors.Is(err, ErrClosed) {
		t.Fatalf("insert on closed session = %v", err)
	}

	// A fresh session sees neither the doc nor any lingering lock.
	s2 := New(db)
	defer s2.Close()
	if _, err := s2.Get(ctx, "c", id); !errors.Is(err, rxerr.ErrNotFound) {
		t.Fatalf("doc survived session close: %v", err)
	}
	if _, err := s2.Insert(ctx, "c", []byte(`<d>after</d>`)); err != nil {
		t.Fatalf("insert after close blocked (stranded lock?): %v", err)
	}
}

// TestSessionsIsolated runs concurrent sessions each with its own
// transaction; their effects must be isolated until commit.
func TestSessionsIsolated(t *testing.T) {
	db := newDB(t)
	ctx := context.Background()
	setup := New(db)
	if err := setup.CreateCollection(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := New(db)
			defer s.Close()
			errs[i] = func() error {
				if err := s.Begin(ctx); err != nil {
					return err
				}
				id, err := s.Insert(ctx, "c", []byte(`<d><v>x</v></d>`))
				if err != nil {
					return err
				}
				if _, err := s.Get(ctx, "c", id); err != nil {
					return err
				}
				if i%2 == 0 {
					return s.Commit(ctx)
				}
				return s.Rollback(ctx)
			}()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	final := New(db)
	defer final.Close()
	ids, err := final.DocIDs(ctx, "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != n/2 {
		t.Fatalf("%d docs survived, want %d (committed half)", len(ids), n/2)
	}
}

func TestSessionQueryCancel(t *testing.T) {
	db := newDB(t)
	ctx := context.Background()
	s := New(db)
	defer s.Close()
	if err := s.CreateCollection(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	var docs [][]byte
	for i := 0; i < 64; i++ {
		docs = append(docs, []byte(`<d><v>x</v></d>`))
	}
	if _, err := s.InsertBatch(ctx, "c", docs); err != nil {
		t.Fatal(err)
	}
	qctx, cancel := context.WithCancel(ctx)
	cancel()
	cur, err := s.Query(qctx, "c", "/d/v", Parallelism(1))
	if err == nil {
		defer cur.Close()
		for cur.Next() {
		}
		err = cur.Err()
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query = %v", err)
	}
}

// TestInTxnBatchIsAtomic: inside an open transaction a batch goes through the
// same ingest pipeline as outside one — every document is parsed before
// anything mutates, and Rollback takes the whole batch back out of the
// documents, the indexes and the statistics.
func TestInTxnBatchIsAtomic(t *testing.T) {
	db := newDB(t)
	s := New(db)
	defer s.Close()
	ctx := context.Background()
	if err := s.CreateCollection(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateValueIndex(ctx, "c", "ix", "/d/v", xml.TDouble); err != nil {
		t.Fatal(err)
	}
	col, err := db.Collection("c")
	if err != nil {
		t.Fatal(err)
	}
	assertEmpty := func(when string) {
		t.Helper()
		if ids, err := s.DocIDs(ctx, "c"); err != nil || len(ids) != 0 {
			t.Fatalf("%s: documents %v, err %v", when, ids, err)
		}
		if n, err := col.NodeIndex().Count(); err != nil || n != 0 {
			t.Fatalf("%s: %d NodeID index entries, err %v", when, n, err)
		}
		if n, err := col.ValueIndex("ix").Count(); err != nil || n != 0 {
			t.Fatalf("%s: %d value index entries, err %v", when, n, err)
		}
		if st := col.StatsSnapshot(); st.DocCount != 0 || st.RecordCount != 0 {
			t.Fatalf("%s: stats count %d docs, %d records", when, st.DocCount, st.RecordCount)
		}
	}

	docs := [][]byte{[]byte(`<d><v>1</v></d>`), []byte(`<d><v>2</v></d>`), []byte(`<d><v>3</v></d>`)}
	if err := s.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	ids, err := s.InsertBatch(ctx, "c", docs)
	if err != nil || len(ids) != len(docs) {
		t.Fatalf("in-txn batch: ids %v, err %v", ids, err)
	}
	if err := s.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
	assertEmpty("after rollback")

	// A malformed later document rejects the batch before the earlier ones
	// are stored or any DocID is allocated.
	if err := s.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertBatch(ctx, "c", [][]byte{docs[0], []byte(`<d><unclosed>`)}); err == nil {
		t.Fatal("batch with a malformed document succeeded")
	}
	assertEmpty("after rejected batch")
	if err := s.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	next, err := s.Insert(ctx, "c", docs[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := ids[len(ids)-1] + 1; next != want {
		t.Fatalf("DocID after rejected batch = %d, want %d (the rejected batch must not burn IDs)", next, want)
	}
}

// TestQuerySkipsDocumentsDeletedUnderIt: outside a transaction a cursor is
// read-committed at document granularity, so a candidate another session
// deletes before the cursor reaches it drops out of the result instead of
// failing the query — on every access method. The query asks for values, so
// the exact node-list plans read their result nodes too (without values
// they answer from the index alone, as of its scan).
func TestQuerySkipsDocumentsDeletedUnderIt(t *testing.T) {
	db := newDB(t)
	ctx := context.Background()
	reader, writer := New(db), New(db)
	defer reader.Close()
	defer writer.Close()
	const expr = `/d[v = 'x']`
	var docs [][]byte
	for i := 0; i < 8; i++ {
		docs = append(docs, []byte(`<d><v>x</v></d>`))
	}
	setup := func(col string) []xml.DocID {
		if err := writer.CreateCollection(ctx, col); err != nil {
			t.Fatal(err)
		}
		ids, err := writer.InsertBatch(ctx, col, docs)
		if err != nil {
			t.Fatal(err)
		}
		if err := writer.CreateValueIndex(ctx, col, "ix_v", "/d/v", xml.TString); err != nil {
			t.Fatal(err)
		}
		return ids
	}
	setup("plan")
	p, err := reader.Explain(ctx, "plan", expr)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Alternatives) < 4 {
		t.Fatalf("%s admits only %+v; the fixture should admit every method shape", expr, p.Alternatives)
	}
	for _, alt := range p.Alternatives {
		col := "c-" + alt.Method
		ids := setup(col)
		// Serial cursors evaluate one candidate per step, lazily.
		cur, err := reader.Query(ctx, col, expr, Parallelism(1), NeedValues(), ForceMethod(alt.Method))
		if err != nil {
			t.Fatal(err)
		}
		if !cur.Next() {
			t.Fatalf("%s: first result: %v", alt.Method, cur.Err())
		}
		for _, id := range ids[2:5] {
			if err := writer.Delete(ctx, col, id); err != nil {
				t.Fatal(err)
			}
		}
		got := []xml.DocID{cur.Result().Doc}
		for cur.Next() {
			got = append(got, cur.Result().Doc)
		}
		if err := cur.Err(); err != nil {
			t.Fatalf("%s: cursor failed over deleted candidates: %v", alt.Method, err)
		}
		cur.Close()
		want := append(append([]xml.DocID(nil), ids[:2]...), ids[5:]...)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: results from docs %v, want %v", alt.Method, got, want)
		}
	}
}

// TestSessionInsertAllocs is the allocation tripwire on the path real
// traffic takes: a session insert is the engine's RunTxn(Txn.Insert) plus
// the session's own bookkeeping. The bound is 20 allocations over the bare
// document insert, of which the transaction (locks, undo record) takes 13
// on this document, leaving 7 for the session.
func TestSessionInsertAllocs(t *testing.T) {
	db := newDB(t)
	s := New(db)
	defer s.Close()
	ctx := context.Background()
	if err := s.CreateCollection(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	col, err := db.Collection("c")
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte(`<order id="7"><cust>C01</cust><items><item><sku>S1</sku><qty>3</qty></item></items></order>`)
	engine := testing.AllocsPerRun(200, func() {
		if err := db.RunTxn(func(tx *core.Txn) error { _, err := tx.Insert(col, doc); return err }); err != nil {
			t.Fatal(err)
		}
	})
	session := testing.AllocsPerRun(200, func() {
		if _, err := s.Insert(ctx, "c", doc); err != nil {
			t.Fatal(err)
		}
	})
	if session > engine+7 {
		t.Fatalf("Session.Insert %.0f allocs/op vs RunTxn(Txn.Insert) %.0f: more than 7 apart", session, engine)
	}
	t.Logf("allocs/op: Session.Insert %.0f, RunTxn(Txn.Insert) %.0f", session, engine)
}
