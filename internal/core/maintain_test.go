package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

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
// writer keeps inserting — the race detector referees.
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
		for i := 0; time.Now().Before(deadline); i++ {
			doc := []byte(fmt.Sprintf("<doc><k>w%d</k></doc>", i))
			if err := db.RunTxn(func(tx *Txn) error { _, err := tx.Insert(col, doc); return err }); err != nil {
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
