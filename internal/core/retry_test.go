package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rx/internal/lock"
	"rx/internal/xml"
)

func TestRunTxnCommits(t *testing.T) {
	db, _, _ := newLoggedDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	var id xml.DocID
	err := db.RunTxn(func(tx *Txn) error {
		var err error
		id, err = tx.Insert(col, []byte(`<a>1</a>`))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !col.Has(id) {
		t.Error("RunTxn commit lost")
	}
}

func TestRunTxnRollsBackOnError(t *testing.T) {
	db, _, _ := newLoggedDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	boom := errors.New("boom")
	var id xml.DocID
	err := db.RunTxn(func(tx *Txn) error {
		id, _ = tx.Insert(col, []byte(`<a>1</a>`))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if col.Has(id) {
		t.Error("failed RunTxn left its insert behind")
	}
}

func TestRunTxnDeadlockRetryBothCommit(t *testing.T) {
	// Two writers update two documents in opposite order: without retries
	// one would fail as a deadlock victim; with WithDeadlockRetry both must
	// eventually commit.
	db, _, _ := newLoggedDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	idA := mustInsert(t, col, []byte(`<a>0</a>`))
	idB := mustInsert(t, col, []byte(`<a>0</a>`))
	nodeA := mustTextNode2(t, col, idA)
	nodeB := mustTextNode2(t, col, idB)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	run := func(i int, first, second xml.DocID, firstNode, secondNode []byte) {
		defer wg.Done()
		errs[i] = db.RunTxn(func(tx *Txn) error {
			if err := tx.UpdateText(col, first, firstNode, []byte(fmt.Sprint(i))); err != nil {
				return err
			}
			time.Sleep(30 * time.Millisecond) // let the other writer grab its first lock
			return tx.UpdateText(col, second, secondNode, []byte(fmt.Sprint(i)))
		}, WithDeadlockRetry(5), withRetryBackoff(5*time.Millisecond))
	}
	wg.Add(2)
	go run(0, idA, idB, nodeA, nodeB)
	go run(1, idB, idA, nodeB, nodeA)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d failed despite deadlock retry: %v", i, err)
		}
	}
	// Both documents carry one writer's value (the last committer's).
	var buf bytes.Buffer
	if err := col.Serialize(idA, &buf); err != nil {
		t.Fatal(err)
	}
}

func TestRunTxnNoRetryWithoutOption(t *testing.T) {
	db, _, _ := newLoggedDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	id := mustInsert(t, col, []byte(`<a>0</a>`))
	node := mustTextNode2(t, col, id)

	// A holds the X lock; RunTxn without the retry option fails fast.
	blocker := db.Begin()
	if err := blocker.UpdateText(col, id, node, []byte("x")); err != nil {
		t.Fatal(err)
	}
	attempts := 0
	err := db.RunTxn(func(tx *Txn) error {
		attempts++
		return tx.UpdateText(col, id, node, []byte("y"))
	})
	if !errors.Is(err, lock.ErrTimeout) {
		t.Fatalf("err = %v, want lock.ErrTimeout", err)
	}
	if attempts != 1 {
		t.Errorf("fn ran %d times without WithDeadlockRetry", attempts)
	}
	blocker.Commit()
}

func mustTextNode2(t *testing.T, col *Collection, id xml.DocID) []byte {
	t.Helper()
	res, _, err := col.QueryOpts("/a/text()", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Doc == id {
			return r.Node
		}
	}
	t.Fatalf("no text node for doc %d", id)
	return nil
}
