package experiments

// E11, E11b: §5 concurrency — document-level locking against document-level
// multiversioning under a read-mostly workload, and the subdocument
// NodeID-prefix locking protocol.

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"rx/internal/core"
	"rx/internal/lock"
	"rx/internal/nodeid"
	"rx/internal/pagestore"
	"rx/internal/wal"
	"rx/internal/xml"
)

// pageStore is one concurrency scheme over the same one-page document: how a
// reader serializes it and how the writer rewrites its body text.
type pageStore struct {
	name        string
	read, write func(i int) error
}

// oneNode returns the single node expr selects in the collection.
func oneNode(col *core.Collection, expr string) (nodeid.ID, error) {
	rs, _, err := col.QueryOpts(expr, core.QueryOptions{})
	if err != nil || len(rs) != 1 {
		return nil, fmt.Errorf("%s: %d nodes, %v", expr, len(rs), err)
	}
	return rs[0].Node, nil
}

// pageStores builds E11's two fixtures.
func pageStores() ([]pageStore, error) {
	doc := []byte(`<page><title>T</title><body>content content content</body></page>`)
	body := func(i int) []byte { return []byte(fmt.Sprintf("content v%d", i)) }
	load := func(db *core.DB, opts core.CollectionOptions) (*core.Collection, xml.DocID, nodeid.ID, error) {
		col, err := db.CreateCollection("c", opts)
		if err != nil {
			return nil, 0, nil, err
		}
		var id xml.DocID
		if err := db.RunTxn(func(t *core.Txn) (err error) { id, err = t.Insert(col, doc); return err }); err != nil {
			return nil, 0, nil, err
		}
		text, err := oneNode(col, "/page/body/text()")
		return col, id, text, err
	}

	log, err := wal.Open(&wal.MemDevice{})
	if err != nil {
		return nil, err
	}
	ldb, err := core.Open(pagestore.NewMemStore(), core.Options{WAL: log, LockTimeoutMillis: 50})
	if err != nil {
		return nil, err
	}
	lcol, lid, ltext, err := load(ldb, core.CollectionOptions{})
	if err != nil {
		return nil, err
	}
	locking := pageStore{
		name: "DocID S/X locking",
		read: func(int) error {
			tx := ldb.Begin()
			var buf bytes.Buffer
			if err := tx.Serialize(lcol, lid, &buf); err != nil {
				tx.Rollback()
				return err
			}
			return tx.Commit()
		},
		write: func(i int) error {
			return ldb.RunTxn(func(t *core.Txn) error { return t.UpdateText(lcol, lid, ltext, body(i)) })
		},
	}

	vdb, err := core.OpenMemory()
	if err != nil {
		return nil, err
	}
	vcol, vid, vtext, err := load(vdb, core.CollectionOptions{Versioned: true})
	if err != nil {
		return nil, err
	}
	mvcc := pageStore{
		name: "document MVCC (snapshots)",
		read: func(int) error {
			ver, err := vcol.SnapshotVersion(vid)
			if err != nil {
				return err
			}
			return vcol.SerializeAt(vid, ver, io.Discard)
		},
		// No Vacuum inside the window: a reader may still hold any
		// version it took, and the window's few hundred versions are small.
		write: func(i int) error {
			return vdb.RunTxn(func(t *core.Txn) error { return t.UpdateText(vcol, vid, vtext, body(i)) })
		},
	}
	return []pageStore{locking, mvcc}, nil
}

// contend runs readers looping read beside one throttled writer (the
// read-mostly mix) for the window and counts what each side completed and
// how many reads failed.
func contend(s pageStore, readers int, window time.Duration) (reads, writes, readErrs int64) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(do func(i int) error, done, failed *int64, pause time.Duration) {
		defer wg.Done()
		for i := 0; ; {
			select {
			case <-stop:
				return
			default:
			}
			if err := do(i); err != nil {
				atomic.AddInt64(failed, 1)
				continue
			}
			atomic.AddInt64(done, 1)
			i++
			time.Sleep(pause)
		}
	}
	var writeErrs int64
	wg.Add(readers + 1)
	for g := 0; g < readers; g++ {
		go loop(s.read, &reads, &readErrs, 0)
	}
	go loop(s.write, &writes, &writeErrs, time.Millisecond)
	time.Sleep(window)
	close(stop)
	wg.Wait()
	return reads, writes, readErrs
}

// e11 reproduces the §5.1 concurrency comparison: document-level locking vs
// multiversioning under a read-mostly workload. The metered operation is one
// whole contention window; what the table reports is the throughput inside.
func e11(m *Meter) (*Table, error) {
	readers, window := 4, time.Duration(m.pick(1000, 300))*time.Millisecond
	t := &Table{
		ID:      "E11",
		Title:   fmt.Sprintf("document concurrency: locking vs MVCC (%d readers + 1 writer, %v window)", readers, window),
		Claim:   "multiversioning avoids locking by readers, 'more efficient for mostly read workload' (§5.1)",
		Headers: []string{"scheme", "reads", "writes", "reads/s", "read errors (lock timeouts)"},
	}
	stores, err := pageStores()
	if err != nil {
		return nil, err
	}
	for _, s := range stores {
		var r, w, e int64
		if _, err := m.time(s.name, 1, func() error { r, w, e = contend(s, readers, window); return nil }); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{s.name, fmt.Sprint(r), fmt.Sprint(w), f1(float64(r) / window.Seconds()), fmt.Sprint(e)})
	}
	t.Notes = append(t.Notes,
		"under locking, readers and the writer serialize on the document lock (either side can starve or time out);",
		"under MVCC, readers pin snapshots and never interact with the writer — both make progress and reads are faster")
	return t, nil
}

// e11b demonstrates the §5.2 subdocument multigranularity protocol:
// disjoint-subtree writers proceed concurrently; ancestor/descendant
// conflicts block.
func e11b(m *Meter) (*Table, error) {
	t := &Table{
		ID:      "E11b",
		Title:   "subdocument NodeID-prefix locking (§5.2)",
		Claim:   "prefix-encoded node IDs make multigranularity locking efficient: ancestor/descendant conflicts are prefix tests",
		Headers: []string{"scenario", "txn A holds", "txn B requests", "grantable"},
	}
	db, col, err := memCollection(core.CollectionOptions{})
	if err != nil {
		return nil, err
	}
	var id xml.DocID
	err = db.RunTxn(func(t *core.Txn) (err error) {
		id, err = t.Insert(col, []byte(`<r><left><x/></left><right><y/></right></r>`))
		return err
	})
	if err != nil {
		return nil, err
	}
	var nodes [3]nodeid.ID // left, left/x, right
	for i, expr := range []string{"/r/left", "/r/left/x", "/r/right"} {
		if nodes[i], err = oneNode(col, expr); err != nil {
			return nil, err
		}
	}
	mgr := db.Locks()
	for _, sc := range []struct {
		name         string
		aNode, bNode nodeid.ID
	}{
		{"disjoint subtrees", nodes[0], nodes[2]},
		{"descendant of held subtree", nodes[0], nodes[1]},
		{"ancestor of held subtree", nodes[1], nodes[0]},
	} {
		var granted bool
		_, err := m.time(sc.name, 1, func() error {
			a, b := mgr.Begin(), mgr.Begin()
			defer a.ReleaseAll()
			defer b.ReleaseAll()
			if err := a.LockNode("c", id, sc.aNode, lock.X); err != nil {
				return err
			}
			granted = b.TryLockNodeX("c", id, sc.bNode)
			return nil
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{sc.name, "X " + sc.aNode.String(), "X " + sc.bNode.String(), fmt.Sprint(granted)})
	}
	return t, nil
}
