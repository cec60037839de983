package heap

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"rx/internal/buffer"
	"rx/internal/pagestore"
)

func newTable(t testing.TB, capacity int) *Table {
	t.Helper()
	pool := buffer.New(pagestore.NewMemStore(), capacity)
	tbl, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestInsertFetch(t *testing.T) {
	tbl := newTable(t, 16)
	data := []byte("hello, world")
	rid, err := tbl.Insert(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Fetch(rid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("Fetch = %q, want %q", got, data)
	}
}

func TestFetchMissing(t *testing.T) {
	tbl := newTable(t, 16)
	if _, err := tbl.Fetch(RID{Page: tbl.FirstPage(), Slot: 9}); err == nil {
		t.Error("expected error for missing record")
	}
}

func TestManyRecordsSpanPages(t *testing.T) {
	tbl := newTable(t, 64)
	type kv struct {
		rid  RID
		data []byte
	}
	var recs []kv
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		data := make([]byte, 20+rng.Intn(400))
		rng.Read(data)
		rid, err := tbl.Insert(data)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, kv{rid, data})
	}
	pages, err := tbl.Pages()
	if err != nil {
		t.Fatal(err)
	}
	if pages < 2 {
		t.Errorf("expected multiple pages, got %d", pages)
	}
	for i, r := range recs {
		got, err := tbl.Fetch(r.rid)
		if err != nil {
			t.Fatalf("rec %d: %v", i, err)
		}
		if !bytes.Equal(got, r.data) {
			t.Fatalf("rec %d mismatch", i)
		}
	}
}

func TestDeleteAndReuse(t *testing.T) {
	tbl := newTable(t, 16)
	rid, err := tbl.Insert([]byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Fetch(rid); err == nil {
		t.Error("fetch after delete should fail")
	}
	if err := tbl.Delete(rid); err == nil {
		t.Error("double delete should fail")
	}
	// Slot is reused by a later insert.
	rid2, err := tbl.Insert([]byte("def"))
	if err != nil {
		t.Fatal(err)
	}
	if rid2 != rid {
		t.Logf("slot not reused (%v vs %v) — acceptable but unexpected", rid2, rid)
	}
}

func TestUpdateInPlace(t *testing.T) {
	tbl := newTable(t, 16)
	rid, _ := tbl.Insert([]byte("aaaa"))
	if err := tbl.Update(rid, []byte("bb")); err != nil {
		t.Fatal(err)
	}
	got, _ := tbl.Fetch(rid)
	if string(got) != "bb" {
		t.Errorf("got %q", got)
	}
	if err := tbl.Update(rid, []byte("cccccccc")); err != nil {
		t.Fatal(err)
	}
	got, _ = tbl.Fetch(rid)
	if string(got) != "cccccccc" {
		t.Errorf("got %q", got)
	}
}

func TestUpdateForwarding(t *testing.T) {
	tbl := newTable(t, 64)
	// Fill a page almost completely, then grow one record so it must move.
	big := make([]byte, 2500)
	var rids []RID
	for i := 0; i < 3; i++ {
		for j := range big {
			big[j] = byte('a' + i)
		}
		rid, err := tbl.Insert(big)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	grown := make([]byte, 5000)
	for j := range grown {
		grown[j] = 'Z'
	}
	if err := tbl.Update(rids[1], grown); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Fetch(rids[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, grown) {
		t.Error("grown record mismatch after forwarding")
	}
	// Other records untouched.
	got0, _ := tbl.Fetch(rids[0])
	if got0[0] != 'a' || len(got0) != 2500 {
		t.Error("record 0 damaged")
	}
	// Update the forwarded record again, growing more.
	grown2 := make([]byte, 7000)
	for j := range grown2 {
		grown2[j] = 'Y'
	}
	if err := tbl.Update(rids[1], grown2); err != nil {
		t.Fatal(err)
	}
	got, _ = tbl.Fetch(rids[1])
	if !bytes.Equal(got, grown2) {
		t.Error("twice-grown record mismatch")
	}
	// Shrink it back; still reachable via the same RID.
	if err := tbl.Update(rids[1], []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	got, _ = tbl.Fetch(rids[1])
	if string(got) != "tiny" {
		t.Errorf("got %q", got)
	}
	// Delete through the forwarding stub.
	if err := tbl.Delete(rids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Fetch(rids[1]); err == nil {
		t.Error("fetch after forwarded delete should fail")
	}
}

// TestExactCounts holds Count and Bytes to a Scan recount after every kind
// of slot mutation — insert, an in-place update, an update that moves the
// record behind a forwarding stub, updates of the moved record, a delete
// through the stub — and after reopening the table, which counts the chain
// afresh and must skip dead slots and stubs.
func TestExactCounts(t *testing.T) {
	pool := buffer.New(pagestore.NewMemStore(), 64)
	tbl, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, tbl *Table) {
		t.Helper()
		var n, b uint64
		if err := tbl.Scan(func(_ RID, payload []byte) error {
			n++
			b += uint64(len(payload))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if tbl.Count() != n || tbl.Bytes() != b {
			t.Fatalf("%s: Count %d Bytes %d, Scan recounts %d records of %d bytes", step, tbl.Count(), tbl.Bytes(), n, b)
		}
	}
	var rids []RID
	for i := 0; i < 3; i++ {
		rid, err := tbl.Insert(bytes.Repeat([]byte{byte('a' + i)}, 2500))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	check("insert", tbl)
	if err := tbl.Update(rids[0], []byte("shrunk in place")); err != nil {
		t.Fatal(err)
	}
	check("in-place update", tbl)
	if err := tbl.Update(rids[1], make([]byte, 7000)); err != nil {
		t.Fatal(err)
	}
	if fwd, err := tbl.ForwardTargets(); err != nil || len(fwd) != 1 {
		t.Fatalf("update did not forward: targets %v, %v", fwd, err)
	}
	check("forwarding update", tbl)
	if err := tbl.Update(rids[1], []byte("moved, then shrunk")); err != nil {
		t.Fatal(err)
	}
	check("update of the moved record", tbl)
	if err := tbl.Update(rids[1], make([]byte, 8000)); err != nil {
		t.Fatal(err)
	}
	check("update that moves the moved record again", tbl)
	if err := tbl.Delete(rids[2]); err != nil {
		t.Fatal(err)
	}
	check("delete", tbl)
	if err := tbl.Delete(rids[1]); err != nil {
		t.Fatal(err)
	}
	check("delete through a forwarding stub", tbl)
	reopened, err := Open(pool, tbl.FirstPage())
	if err != nil {
		t.Fatal(err)
	}
	check("reopen", reopened)
	if reopened.Count() != 1 {
		t.Fatalf("reopened Count = %d, want 1", reopened.Count())
	}
	if err := reopened.Reattach(); err != nil {
		t.Fatal(err)
	}
	check("reattach", reopened)
}

// failReads fails the next n reads of one page with errUnreadable, then
// reads it normally.
type failReads struct {
	pagestore.Store
	page pagestore.PageID
	n    int
}

var errUnreadable = errors.New("unreadable page")

func (s *failReads) ReadPage(id pagestore.PageID, buf []byte) error {
	if id == s.page && s.n > 0 {
		s.n--
		return errUnreadable
	}
	return s.Store.ReadPage(id, buf)
}

// TestShortOpenWalkKeepsChain: a tolerant open whose chain walk stops at a
// page that fails to load must not cut the chain there once the page reads
// again. Twelve records fill a four-page chain; the open's read of its
// second page fails once; six more inserts extend the chain past its old
// end, and the chain, Scan and Count hold all eighteen. While the page keeps
// failing, an insert that would reach the last page fails with its error and
// leaves the chain as it was.
func TestShortOpenWalkKeepsChain(t *testing.T) {
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, pagestore.PageSize/3-40) }
	mem := pagestore.NewMemStore()
	insert := func(tbl *Table, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := tbl.Insert(payload(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tbl.pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	// check holds the chain, as a fresh pool over the store reads it, to
	// start with prefix and have n pages, and the table to count records.
	check := func(step string, tbl *Table, prefix []pagestore.PageID, n, records int) []pagestore.PageID {
		t.Helper()
		chain, err := OpenTolerant(buffer.New(mem, 16), tbl.FirstPage()).ChainPages()
		if err != nil || len(chain) != n || !slices.Equal(chain[:len(prefix)], prefix) {
			t.Fatalf("%s: chain %v (%v), want %d pages starting %v", step, chain, err, n, prefix)
		}
		scanned := 0
		if err := tbl.Scan(func(RID, []byte) error { scanned++; return nil }); err != nil {
			t.Fatal(err)
		}
		if scanned != records || tbl.Count() != uint64(records) {
			t.Fatalf("%s: Scan finds %d records, Count %d, want %d", step, scanned, tbl.Count(), records)
		}
		return chain
	}
	tbl, err := Create(buffer.New(mem, 16))
	if err != nil {
		t.Fatal(err)
	}
	insert(tbl, 0, 12)
	chain := check("load", tbl, nil, 4, 12)

	transient := OpenTolerant(buffer.New(&failReads{Store: mem, page: chain[1], n: 1}, 16), tbl.FirstPage())
	if transient.Count() != 3 {
		t.Fatalf("short open counts %d records, want the first page's 3", transient.Count())
	}
	insert(transient, 12, 18)
	chain = check("after a transient read error", transient, chain, 6, 18)

	failing := &failReads{Store: mem, page: chain[1], n: 1 << 30}
	damaged := OpenTolerant(buffer.New(failing, 16), tbl.FirstPage())
	if _, err := damaged.Insert(payload(18)); !errors.Is(err, errUnreadable) {
		t.Fatalf("insert past a page that keeps failing: %v, want its error", err)
	}
	if err := damaged.Rewalk(); !errors.Is(err, errUnreadable) {
		t.Fatalf("Rewalk past a page that keeps failing: %v, want its error", err)
	}
	failing.n = 0
	insert(damaged, 18, 19)
	check("after the page reads again", damaged, chain, 7, 19)
}

func TestScan(t *testing.T) {
	tbl := newTable(t, 64)
	want := map[string]bool{}
	for i := 0; i < 500; i++ {
		s := fmt.Sprintf("record-%04d", i)
		if _, err := tbl.Insert([]byte(s)); err != nil {
			t.Fatal(err)
		}
		want[s] = true
	}
	got := map[string]bool{}
	err := tbl.Scan(func(rid RID, payload []byte) error {
		got[string(payload)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan saw %d records, want %d", len(got), len(want))
	}
}

func TestScanSkipsForwardStubs(t *testing.T) {
	tbl := newTable(t, 64)
	var rids []RID
	for i := 0; i < 3; i++ {
		data := bytes.Repeat([]byte{byte('a' + i)}, 2500)
		rid, _ := tbl.Insert(data)
		rids = append(rids, rid)
	}
	grown := bytes.Repeat([]byte{'Z'}, 6000)
	if err := tbl.Update(rids[1], grown); err != nil {
		t.Fatal(err)
	}
	n := 0
	err := tbl.Scan(func(rid RID, payload []byte) error {
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("scan saw %d logical records, want 3", n)
	}
}

func TestTooLarge(t *testing.T) {
	tbl := newTable(t, 16)
	if _, err := tbl.Insert(make([]byte, MaxRecord+1)); err == nil {
		t.Error("oversized insert should fail")
	}
	rid, _ := tbl.Insert([]byte("x"))
	if err := tbl.Update(rid, make([]byte, MaxRecord+1)); err == nil {
		t.Error("oversized update should fail")
	}
}

func TestOpenExisting(t *testing.T) {
	pool := buffer.New(pagestore.NewMemStore(), 64)
	tbl, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 300; i++ {
		rid, err := tbl.Insert([]byte(fmt.Sprintf("row %d padded to some length %d", i, i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	reopened, err := Open(pool, tbl.FirstPage())
	if err != nil {
		t.Fatal(err)
	}
	got, err := reopened.Fetch(rids[137])
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != fmt.Sprintf("row %d padded to some length %d", 137, 137) {
		t.Errorf("reopened fetch = %q", got)
	}
	// Inserts continue to work after reopen.
	if _, err := reopened.Insert([]byte("after reopen")); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionPersistence(t *testing.T) {
	// Tiny pool forces eviction; records must survive write-back.
	pool := buffer.New(pagestore.NewMemStore(), 3)
	tbl, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 200; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 500)
		rid, err := tbl.Insert(data)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for i, rid := range rids {
		got, err := tbl.Fetch(rid)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 500 || got[0] != byte(i) {
			t.Fatalf("record %d corrupted after eviction", i)
		}
	}
}

func TestFetchBorrowed(t *testing.T) {
	pool := buffer.New(pagestore.NewMemStore(), 16)
	tbl, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := tbl.Insert([]byte("hello borrowed world"))
	if err != nil {
		t.Fatal(err)
	}
	payload, release, err := tbl.FetchBorrowed(rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "hello borrowed world" {
		t.Fatalf("payload = %q", payload)
	}
	release()
	// After release the record is still fetchable the ordinary way.
	got, err := tbl.Fetch(rid)
	if err != nil || string(got) != "hello borrowed world" {
		t.Fatalf("Fetch after release = %q, %v", got, err)
	}
}

// TestBorrowerLendsOnePageWithoutAllocating: the borrow slot's fetch and
// release allocate nothing, a second fetch while a page is out is refused
// (the single-borrow rule), and a released page is writable again.
func TestBorrowerLendsOnePageWithoutAllocating(t *testing.T) {
	tbl := newTable(t, 16)
	a, err := tbl.Insert([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := tbl.Insert([]byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	br := tbl.NewBorrower()
	payload, release, err := br.Fetch(a)
	if err != nil || string(payload) != "first" {
		t.Fatalf("Fetch = %q, %v", payload, err)
	}
	if _, _, err := br.Fetch(b); err == nil {
		t.Fatal("second fetch while a page is lent succeeded")
	}
	release()
	if _, _, err := br.Fetch(InvalidRID); err == nil {
		t.Fatal("fetch of an invalid RID succeeded")
	}
	if _, _, err := br.Fetch(RID{Page: a.Page, Slot: 999}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("fetch of a missing slot: %v, want ErrNotFound", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		payload, release, err := br.Fetch(b)
		if err != nil || string(payload) != "second" {
			t.Fatalf("Fetch = %q, %v", payload, err)
		}
		release()
	})
	if allocs != 0 {
		t.Errorf("Borrower.Fetch+release: %v allocs, want 0", allocs)
	}
	if err := tbl.Update(a, []byte("rewritten")); err != nil {
		t.Fatalf("update after the borrow was released: %v", err)
	}
}

func TestFetchBorrowedFollowsForwarding(t *testing.T) {
	pool := buffer.New(pagestore.NewMemStore(), 32)
	tbl, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the first page so the grown record must move off-page.
	rid, err := tbl.Insert(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, _, err := tbl.tryInsert(rid.Page, recNormal, make([]byte, 512)); err != nil {
			t.Fatal(err)
		} else {
			f, _ := pool.Fetch(rid.Page)
			f.RLock()
			free := pageFree(f.Data)
			f.RUnlock()
			pool.Unpin(f, false)
			if free < 600 {
				break
			}
		}
	}
	big := make([]byte, 4096)
	for i := range big {
		big[i] = byte(i)
	}
	if err := tbl.Update(rid, big); err != nil {
		t.Fatal(err)
	}
	payload, release, err := tbl.FetchBorrowed(rid)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != len(big) {
		t.Fatalf("len = %d, want %d", len(payload), len(big))
	}
	for i := range big {
		if payload[i] != big[i] {
			t.Fatalf("byte %d = %d, want %d", i, payload[i], big[i])
		}
	}
	release()
	payload, release, err = tbl.NewBorrower().Fetch(rid)
	if err != nil || !bytes.Equal(payload, big) {
		t.Fatalf("Borrower.Fetch through the stub: %d bytes, %v", len(payload), err)
	}
	release()
}

func TestFetchBorrowedBlocksWriters(t *testing.T) {
	pool := buffer.New(pagestore.NewMemStore(), 16)
	tbl, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := tbl.Insert([]byte("stable"))
	if err != nil {
		t.Fatal(err)
	}
	payload, release, err := tbl.FetchBorrowed(rid)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Update on the same page must block until release.
		done <- tbl.Update(rid, []byte("mutated"))
	}()
	select {
	case <-done:
		t.Fatal("update completed while page was borrowed")
	case <-time.After(50 * time.Millisecond):
	}
	if string(payload) != "stable" {
		t.Fatalf("payload changed under borrow: %q", payload)
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Fetch(rid)
	if err != nil || string(got) != "mutated" {
		t.Fatalf("after release: %q, %v", got, err)
	}
}
