package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rx/internal/nodeid"
	"rx/internal/pagestore"
	"rx/internal/xml"
)

// scrubberDB opens a checksummed in-memory database with one indexed
// collection of ndocs padded documents.
func scrubberDB(t testing.TB, ndocs int, opts Options) (*DB, *Collection) {
	t.Helper()
	opts.PoolPages = 256
	db, err := Open(pagestore.NewChecksumStore(pagestore.NewMemStore()), opts)
	if err != nil {
		t.Fatal(err)
	}
	col, err := db.CreateCollection("c", CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.CreateValueIndex("kix", "/doc/k", xml.TString); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 2000)
	for i := 0; i < ndocs; i++ {
		mustInsert(t, col, []byte(fmt.Sprintf("<doc><k>k%d</k><body>%s</body></doc>", i, pad)))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	return db, col
}

func TestRunPassCleanDB(t *testing.T) {
	db, _ := scrubberDB(t, 4, Options{})
	defer db.Close()
	s := NewScrubber(db, ScrubOptions{})
	rep, err := s.RunPass()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean database failed scrub: %+v", rep)
	}
	if rep.PagesScanned == 0 {
		t.Fatal("pass scanned no pages")
	}
}

// TestBackgroundScrubConcurrentWithCursors runs the maintenance loop's scrub
// duty at a tight interval while parallel cursors stream results and a
// writer keeps inserting, editing and deleting — the race detector
// referees, and the scrub, which checks each document under its S lock,
// must never take a write in flight for damage.
func TestBackgroundScrubConcurrentWithCursors(t *testing.T) {
	db, col := scrubberDB(t, 8, Options{ScrubInterval: time.Millisecond})

	deadline := time.Now().Add(300 * time.Millisecond)
	errCh := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				cur, err := col.Cursor("/doc/k", QueryOptions{Parallelism: 2, Degraded: true})
				if err != nil {
					errCh <- err
					return
				}
				for cur.Next() {
				}
				err = cur.Err()
				cur.Close()
				if err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Each cycle of five steps inserts a document, edits it three ways
		// and deletes it.
		var doc xml.DocID
		var body nodeid.ID
		node := func(expr string) (nodeid.ID, error) {
			res, _, err := col.QueryOpts(expr, QueryOptions{})
			for _, r := range res {
				if r.Doc == doc {
					return r.Node, err
				}
			}
			return nil, fmt.Errorf("%s: no node in doc %d (%v)", expr, doc, err)
		}
		for i := 0; time.Now().Before(deadline); i++ {
			err := db.RunTxn(func(tx *Txn) (err error) {
				switch i % 5 {
				case 0:
					doc, err = tx.Insert(col, []byte(fmt.Sprintf("<doc><k>w%d</k></doc>", i)))
				case 1:
					var k nodeid.ID
					if k, err = node("/doc/k/text()"); err == nil {
						err = tx.UpdateText(col, doc, k, []byte(fmt.Sprintf("u%d", i)))
					}
				case 2:
					var root nodeid.ID
					if root, err = node("/doc"); err == nil {
						body, err = tx.InsertFragment(col, doc, root, AsLastChild,
							[]byte("<body>"+strings.Repeat("y", 3000)+"</body>"))
					}
				case 3:
					err = tx.DeleteSubtree(col, doc, body)
				case 4:
					err = tx.Delete(col, doc)
				}
				return err
			})
			if err != nil {
				errCh <- err
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	close(errCh)
	for err := range errCh {
		t.Errorf("concurrent workload: %v", err)
	}
	if q := db.Quarantined(); len(q) != 0 {
		t.Fatalf("scrub quarantined healthy documents under concurrency: %v", q)
	}
	if db.Stats().ScrubPasses == 0 {
		t.Fatal("scrub duty never completed a pass")
	}
}

// TestRateLimiterHonored bounds a throttled pass from below: at rate r the
// pass must take at least about ops/r seconds (half, to stay robust against
// scheduler jitter in the other direction there is no upper assertion).
func TestRateLimiterHonored(t *testing.T) {
	db, _ := scrubberDB(t, 4, Options{})
	defer db.Close()

	fast := NewScrubber(db, ScrubOptions{})
	rep, err := fast.RunPass()
	if err != nil {
		t.Fatal(err)
	}
	ops := rep.PagesScanned // throttle fires at least once per page scanned

	const rate = 1000
	slow := NewScrubber(db, ScrubOptions{Rate: rate})
	start := time.Now()
	if _, err := slow.RunPass(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	min := time.Duration(ops) * time.Second / rate / 2
	if elapsed < min {
		t.Fatalf("throttled pass over %d ops at %d ops/s took %v, want >= %v", ops, rate, elapsed, min)
	}
}
