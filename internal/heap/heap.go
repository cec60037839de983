// Package heap implements slotted-page heap tables over the buffer pool —
// the "regular table space" of the paper's Figure 2. Both the base tables
// (with DocID and XML columns) and the internal XML tables (DocID, minNodeID,
// XMLData) are heap tables of variable-length VARBINARY rows addressed by
// record IDs (RIDs). To this layer, packed XML data looks exactly like
// relational rows, which is the central reuse claim of the paper (§2).
//
// Page layout:
//
//	[0:8)   pageLSN (maintained by buffer.Pool.Modify)
//	[8:10)  slot count
//	[10:12) free-space pointer (offset of the byte after the last record,
//	        records grow downward from the end of the page)
//	[12:16) next page in the table's chain (InvalidPage if last)
//	[16:..) slot array, 4 bytes per slot: offset uint16, length uint16;
//	        offset 0 marks a dead slot
//
// Updates that no longer fit on the home page leave a forwarding stub so RIDs
// stay stable — the NodeID and XPath value indexes store RIDs and must not be
// invalidated by record growth (§3.1: "maximum flexibility of record
// placement").
//
// A table counts its live records and their payload bytes exactly —
// forwarding stubs excluded, so the counts are what Scan visits. Every slot
// mutation moves them by what it did to the slot, and opening a table counts
// them in the chain walk it already makes. Count and Bytes read them without
// the table lock, which insert holds across page fetches: the planner, which
// prices plans with them, never queues behind a writer's I/O.
//
// All page mutations go through buffer.Pool.Modify, which feeds the WAL when
// one is attached; the heap itself contains no logging code, mirroring how
// the paper's XML storage inherits logging from the relational data manager.
package heap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"rx/internal/buffer"
	"rx/internal/pagestore"
)

// RID is a record identifier: physical page plus slot number.
type RID struct {
	Page pagestore.PageID
	Slot uint16
}

// InvalidRID never addresses a record.
var InvalidRID = RID{Page: pagestore.InvalidPage}

// String renders the RID as page:slot.
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// Bytes encodes the RID into 6 bytes.
func (r RID) Bytes() []byte { return r.Append(make([]byte, 0, 6)) }

// Append appends the RID's 6-byte encoding to dst.
func (r RID) Append(dst []byte) []byte {
	return binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint32(dst, uint32(r.Page)), r.Slot)
}

// RIDFromBytes decodes a RID encoded by Bytes.
func RIDFromBytes(b []byte) RID {
	return RID{
		Page: pagestore.PageID(binary.BigEndian.Uint32(b[0:4])),
		Slot: binary.BigEndian.Uint16(b[4:6]),
	}
}

const (
	hdrSlots    = 8
	hdrFreePtr  = 10
	hdrNextPage = 12
	hdrSize     = 16
	slotSize    = 4

	recNormal  = 0 // flag byte: ordinary record
	recForward = 1 // flag byte: 6-byte forwarding RID follows
	recHome    = 2 // flag byte: record moved here from another home page
)

// MaxRecord is the largest record payload a single page can hold.
const MaxRecord = pagestore.PageSize - hdrSize - slotSize - 8

// ErrNotFound reports a missing record.
var ErrNotFound = errors.New("heap: record not found")

// ErrTooLarge reports a record payload exceeding MaxRecord.
var ErrTooLarge = errors.New("heap: record too large")

// Table is a heap table: an unordered collection of variable-length records.
type Table struct {
	pool *buffer.Pool

	// count and bytes are the live records and their payload bytes,
	// forwarding stubs excluded (liveLen).
	count, bytes atomic.Int64

	mu        sync.Mutex
	firstPage pagestore.PageID
	lastPage  pagestore.PageID
	// short records that the last chain walk stopped at a page that failed
	// to load: lastPage is that page and the counts cover the prefix before
	// it, so neither is trusted until a walk reaches the chain's end.
	short bool
	// freeCache maps pages believed to have free space to the free byte
	// count observed; consulted before extending the table.
	freeCache map[pagestore.PageID]int
}

// Create allocates a new empty table and returns it. The table is identified
// durably by its first page ID (store it in a catalog).
func Create(pool *buffer.Pool) (*Table, error) {
	f, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	err = pool.Modify(f, func(d []byte) error {
		initPage(d)
		return nil
	})
	id := f.ID()
	pool.Unpin(f, false)
	if err != nil {
		return nil, err
	}
	return &Table{
		pool:      pool,
		firstPage: id,
		lastPage:  id,
		freeCache: make(map[pagestore.PageID]int),
	}, nil
}

// Open attaches to an existing table by its first page ID, walking the chain
// to find the last page and count the live records.
func Open(pool *buffer.Pool, first pagestore.PageID) (*Table, error) {
	t := &Table{pool: pool, firstPage: first}
	if err := t.attach(); err != nil {
		return nil, err
	}
	return t, nil
}

// attach derives the table's in-memory state — last page, free cache, live
// counts — from its page chain. A page that fails to load ends the walk with
// its error, lastPage at that page and the table marked short. Caller holds
// t.mu or owns t.
func (t *Table) attach() error {
	t.freeCache = make(map[pagestore.PageID]int)
	t.lastPage = t.firstPage
	var count, bytes int64
	bad, err := t.chain(func(pg pagestore.PageID, d []byte) {
		if free := pageFree(d); free > 64 {
			t.freeCache[pg] = free
		}
		n, b := pageLive(d)
		count += n
		bytes += b
		t.lastPage = pg
	}, nil)
	if err != nil {
		t.lastPage = bad
	}
	t.short = err != nil
	t.count.Store(count)
	t.bytes.Store(bytes)
	return err
}

// chain is the one walk along the table's page chain. For each page it
// calls read (if set) with the page's ID and image under the page's read
// latch, then, with the latch released, then (if set), whose error ends the
// walk. It also ends at the chain's end and at a page already visited (a
// cycle, which only corrupt next pointers make). A page that fails to load
// ends it with its ID and the error.
func (t *Table) chain(read func(pg pagestore.PageID, d []byte), then func(pg pagestore.PageID) error) (pagestore.PageID, error) {
	seen := map[pagestore.PageID]bool{}
	for pg := t.firstPage; pg != pagestore.InvalidPage && !seen[pg]; {
		seen[pg] = true
		f, err := t.pool.Fetch(pg)
		if err != nil {
			return pg, err
		}
		f.RLock()
		if read != nil {
			read(pg, f.Data)
		}
		next := pageNext(f.Data)
		f.RUnlock()
		t.pool.Unpin(f, false)
		if then != nil {
			if err := then(pg); err != nil {
				return pagestore.InvalidPage, err
			}
		}
		pg = next
	}
	return pagestore.InvalidPage, nil
}

// FirstPage returns the table's identifying first page.
func (t *Table) FirstPage() pagestore.PageID { return t.firstPage }

// Count returns the number of live records, forwarding stubs excluded.
func (t *Table) Count() uint64 { return uint64(t.count.Load()) }

// Bytes returns the live records' payload bytes, forwarding stubs excluded.
func (t *Table) Bytes() uint64 { return uint64(t.bytes.Load()) }

// liveLen returns the payload length of the record in slot i, or -1 when the
// slot is dead or holds a forwarding stub: what Count and Bytes count.
func liveLen(d []byte, i int) int {
	off, length := slotAt(d, i)
	if off == 0 || d[off] == recForward {
		return -1
	}
	return length - 1
}

// pageLive counts a page image's live records and payload bytes. Slots are
// bounds-checked, so a garbage page counts what it can and never panics.
func pageLive(d []byte) (n, bytes int64) {
	slots := int(binary.BigEndian.Uint16(d[hdrSlots:]))
	for i := 0; i < min(slots, (pagestore.PageSize-hdrSize)/slotSize); i++ {
		off, length := slotAt(d, i)
		if off < hdrSize || length < 1 || off+length > pagestore.PageSize || d[off] == recForward {
			continue
		}
		n++
		bytes += int64(length - 1)
	}
	return n, bytes
}

// account moves the live counts from a slot's state before a mutation to its
// state after, both as liveLen reports them.
func (t *Table) account(before, after int) {
	if before >= 0 {
		t.count.Add(-1)
		t.bytes.Add(int64(-before))
	}
	if after >= 0 {
		t.count.Add(1)
		t.bytes.Add(int64(after))
	}
}

func initPage(d []byte) {
	for i := 8; i < len(d); i++ {
		d[i] = 0
	}
	binary.BigEndian.PutUint16(d[hdrSlots:], 0)
	binary.BigEndian.PutUint16(d[hdrFreePtr:], pagestore.PageSize)
	binary.BigEndian.PutUint32(d[hdrNextPage:], uint32(pagestore.InvalidPage))
}

func pageNext(d []byte) pagestore.PageID {
	return pagestore.PageID(binary.BigEndian.Uint32(d[hdrNextPage:]))
}

func setPageNext(d []byte, id pagestore.PageID) {
	binary.BigEndian.PutUint32(d[hdrNextPage:], uint32(id))
}

// pageFree returns the contiguous free bytes available for one more record
// (including its slot).
func pageFree(d []byte) int {
	slots := int(binary.BigEndian.Uint16(d[hdrSlots:]))
	freePtr := int(binary.BigEndian.Uint16(d[hdrFreePtr:]))
	if freePtr == 0 {
		freePtr = pagestore.PageSize
	}
	used := hdrSize + slots*slotSize
	return freePtr - used - slotSize
}

func slotAt(d []byte, i int) (off, length int) {
	base := hdrSize + i*slotSize
	return int(binary.BigEndian.Uint16(d[base:])), int(binary.BigEndian.Uint16(d[base+2:]))
}

func setSlot(d []byte, i, off, length int) {
	base := hdrSize + i*slotSize
	binary.BigEndian.PutUint16(d[base:], uint16(off))
	binary.BigEndian.PutUint16(d[base+2:], uint16(length))
}

// insertInPage places payload (with flag prefix) in the page if it fits,
// returning the slot, or -1 if there is no room. Reuses dead slots.
func insertInPage(d []byte, flag byte, payload []byte) int {
	need := len(payload) + 1
	slots := int(binary.BigEndian.Uint16(d[hdrSlots:]))
	// Find a dead slot to reuse (doesn't need a new slot entry).
	slot := -1
	for i := 0; i < slots; i++ {
		if off, _ := slotAt(d, i); off == 0 {
			slot = i
			break
		}
	}
	freePtr := int(binary.BigEndian.Uint16(d[hdrFreePtr:]))
	if freePtr == 0 {
		freePtr = pagestore.PageSize
	}
	used := hdrSize + slots*slotSize
	avail := freePtr - used
	if slot == -1 {
		avail -= slotSize
	}
	if avail < need {
		// Try compaction: dead slots may have left holes.
		if compact(d) {
			return insertInPage(d, flag, payload)
		}
		return -1
	}
	off := freePtr - need
	d[off] = flag
	copy(d[off+1:], payload)
	binary.BigEndian.PutUint16(d[hdrFreePtr:], uint16(off))
	if slot == -1 {
		slot = slots
		binary.BigEndian.PutUint16(d[hdrSlots:], uint16(slots+1))
	}
	setSlot(d, slot, off, need)
	return slot
}

// compactScratch recycles the page-sized scratch buffer compaction packs
// live records into, so page defragmentation does not allocate.
var compactScratch = sync.Pool{New: func() any {
	b := make([]byte, pagestore.PageSize)
	return &b
}}

// compact squeezes out holes left by deleted or shrunk records. Returns true
// if any space was reclaimed.
func compact(d []byte) bool {
	slots := int(binary.BigEndian.Uint16(d[hdrSlots:]))
	type live struct{ slot, off, length int }
	var recs []live
	for i := 0; i < slots; i++ {
		if off, l := slotAt(d, i); off != 0 {
			recs = append(recs, live{i, off, l})
		}
	}
	// Sort by offset descending and re-pack from the page end.
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j-1].off < recs[j].off; j-- {
			recs[j-1], recs[j] = recs[j], recs[j-1]
		}
	}
	oldFree := int(binary.BigEndian.Uint16(d[hdrFreePtr:]))
	if oldFree == 0 {
		oldFree = pagestore.PageSize
	}
	tb := compactScratch.Get().(*[]byte)
	tmp := *tb
	defer compactScratch.Put(tb)
	w := pagestore.PageSize
	for _, r := range recs {
		w -= r.length
		copy(tmp[w:], d[r.off:r.off+r.length])
	}
	if w == oldFree {
		return false // nothing to reclaim
	}
	w = pagestore.PageSize
	for _, r := range recs {
		w -= r.length
		copy(d[w:], tmp[w:w+r.length])
		setSlot(d, r.slot, w, r.length)
	}
	binary.BigEndian.PutUint16(d[hdrFreePtr:], uint16(w))
	return true
}

// Insert appends a record and returns its RID.
func (t *Table) Insert(payload []byte) (RID, error) {
	return t.insert(recNormal, payload)
}

func (t *Table) insert(flag byte, payload []byte) (RID, error) {
	if len(payload) > MaxRecord {
		return InvalidRID, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// A short walk's lastPage is not the chain's end, and extending from it
	// would cut the chain there: walk again first. A page that still fails
	// fails the append with its error once it would reach the last page.
	var shortErr error
	if t.short {
		shortErr = t.attach()
	}
	// First try pages known to have space, then the last page, then extend.
	// Candidates are visited in page order: record placement must be a pure
	// function of the operation history so that crash-recovery torture runs
	// replay the exact I/O sequence profiled for a given seed.
	var cands []pagestore.PageID
	for pg, free := range t.freeCache {
		if free >= len(payload)+1+slotSize {
			cands = append(cands, pg)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	for _, pg := range cands {
		if rid, ok, err := t.tryInsert(pg, flag, payload); err != nil {
			return InvalidRID, err
		} else if ok {
			return rid, nil
		}
		delete(t.freeCache, pg)
	}
	if shortErr != nil {
		return InvalidRID, shortErr
	}
	if rid, ok, err := t.tryInsert(t.lastPage, flag, payload); err != nil {
		return InvalidRID, err
	} else if ok {
		return rid, nil
	}
	// Extend the chain. Allocation is where a full device bites the heap:
	// keep the typed error (%w) so errors.Is(err, rxerr.ErrNoSpace)
	// classification survives to the transaction layer, with the table
	// context attached.
	nf, err := t.pool.NewPage()
	if err != nil {
		return InvalidRID, fmt.Errorf("heap: extend table %d: %w", t.firstPage, err)
	}
	slot := -1
	err = t.pool.Modify(nf, func(d []byte) error {
		initPage(d)
		if slot = insertInPage(d, flag, payload); slot >= 0 {
			t.account(-1, liveLen(d, slot))
		}
		return nil
	})
	newID := nf.ID()
	t.pool.Unpin(nf, false)
	if err != nil {
		return InvalidRID, err
	}
	if slot < 0 {
		return InvalidRID, fmt.Errorf("heap: record does not fit an empty page (%d bytes)", len(payload))
	}

	lf, err := t.pool.Fetch(t.lastPage)
	if err != nil {
		return InvalidRID, err
	}
	err = t.pool.Modify(lf, func(d []byte) error {
		setPageNext(d, newID)
		return nil
	})
	t.pool.Unpin(lf, false)
	if err != nil {
		return InvalidRID, err
	}
	t.lastPage = newID
	return RID{Page: newID, Slot: uint16(slot)}, nil
}

// tryInsert attempts an insert into page pg, updating the free cache.
// Called with t.mu held.
func (t *Table) tryInsert(pg pagestore.PageID, flag byte, payload []byte) (RID, bool, error) {
	f, err := t.pool.Fetch(pg)
	if err != nil {
		return InvalidRID, false, err
	}
	slot, free := -1, 0
	err = t.pool.Modify(f, func(d []byte) error {
		if slot = insertInPage(d, flag, payload); slot >= 0 {
			t.account(-1, liveLen(d, slot))
		}
		free = pageFree(d)
		return nil
	})
	t.pool.Unpin(f, false)
	if err != nil {
		return InvalidRID, false, err
	}
	if slot < 0 {
		delete(t.freeCache, pg)
		return InvalidRID, false, nil
	}
	if free > 64 {
		t.freeCache[pg] = free
	} else {
		delete(t.freeCache, pg)
	}
	return RID{Page: pg, Slot: uint16(slot)}, true, nil
}

// Fetch returns a copy of the record's payload, following forwarding stubs:
// a borrow, copied out and released.
func (t *Table) Fetch(rid RID) ([]byte, error) {
	payload, release, err := t.FetchBorrowed(rid)
	if err != nil {
		return nil, err
	}
	defer release()
	return bytes.Clone(payload), nil
}

// FetchBorrowed returns the record's payload as a slice aliasing the
// buffer-pool frame itself — no copy — plus a release function. Until
// release is called the page stays pinned (immune to eviction) and
// share-latched (writers to the page block), so the payload bytes are
// stable. Forwarding stubs are followed; the borrow is always on the page
// that holds the record body.
//
// Lifetime rules (see DESIGN.md "The byte path"):
//   - release must be called exactly once, and the payload must not be read
//     after it.
//   - a goroutine holds at most ONE heap borrow at a time. Borrows nest with
//     B+tree reads (heap → index order) but never with another heap borrow:
//     two goroutines borrowing overlapping page sets in opposite orders,
//     with writers queued between them, can deadlock.
//   - the caller must not write through the payload slice.
func (t *Table) FetchBorrowed(rid RID) ([]byte, func(), error) {
	payload, f, err := t.borrow(rid)
	if err != nil {
		return nil, nil, err
	}
	return payload, func() { t.unlatch(f) }, nil
}

// Borrower is one goroutine's reusable borrow slot: FetchBorrowed whose
// release function is made once, with the slot, instead of once per fetch. It
// lends at most one page at a time — the single-borrow rule FetchBorrowed
// states — and refuses a fetch while a page is still out. A Borrower is not
// safe for concurrent use.
type Borrower struct {
	t       *Table
	f       *buffer.Frame // the page lent out; nil when none is
	release func()        // b.drop, bound once
}

// NewBorrower returns a borrow slot on t.
func (t *Table) NewBorrower() *Borrower {
	b := &Borrower{t: t}
	b.release = b.drop
	return b
}

func (b *Borrower) drop() {
	f := b.f
	b.f = nil
	b.t.unlatch(f)
}

// Fetch is FetchBorrowed through the slot, with the same lifetime rules; the
// release function it returns is the slot's own.
func (b *Borrower) Fetch(rid RID) ([]byte, func(), error) {
	if b.f != nil {
		return nil, nil, fmt.Errorf("heap: fetch of %s while the borrower still lends a page", rid)
	}
	payload, f, err := b.t.borrow(rid)
	if err != nil {
		return nil, nil, err
	}
	b.f = f
	return payload, b.release, nil
}

// borrow is the one borrowing read: the record's payload, one forwarding
// stub followed, aliasing the frame returned pinned and share-latched.
func (t *Table) borrow(rid RID) ([]byte, *buffer.Frame, error) {
	payload, f, fwd, err := t.readSlot(rid)
	if err != nil || fwd == InvalidRID {
		return payload, f, err
	}
	payload, f, fwd2, err := t.readSlot(fwd)
	if err != nil {
		return nil, nil, err
	}
	if fwd2 != InvalidRID {
		return nil, nil, fmt.Errorf("heap: forwarding chain longer than one hop at %s", rid)
	}
	return payload, f, nil
}

// unlatch ends a borrow of f.
func (t *Table) unlatch(f *buffer.Frame) {
	f.RUnlock()
	t.pool.Unpin(f, false)
}

// readSlot is the one slot reader: on success the returned payload aliases
// the frame, which stays pinned and share-latched until unlatch. A
// forwarding stub releases the page at once and returns the target RID
// instead, with no frame (stub bytes are decoded before the release).
func (t *Table) readSlot(rid RID) ([]byte, *buffer.Frame, RID, error) {
	f, err := t.pool.Fetch(rid.Page)
	if err != nil {
		return nil, nil, InvalidRID, err
	}
	f.RLock()
	slots := int(binary.BigEndian.Uint16(f.Data[hdrSlots:]))
	if int(rid.Slot) >= slots {
		t.unlatch(f)
		return nil, nil, InvalidRID, fmt.Errorf("%w: %s", ErrNotFound, rid)
	}
	off, length := slotAt(f.Data, int(rid.Slot))
	if off == 0 {
		t.unlatch(f)
		return nil, nil, InvalidRID, fmt.Errorf("%w: %s", ErrNotFound, rid)
	}
	flag := f.Data[off]
	body := f.Data[off+1 : off+length : off+length]
	if flag == recForward {
		fwd := RIDFromBytes(body)
		t.unlatch(f)
		return nil, nil, fwd, nil
	}
	return body, f, InvalidRID, nil
}

// Delete removes the record, following and removing a forwarding stub.
func (t *Table) Delete(rid RID) error {
	fwd, err := t.deleteAt(rid)
	if err != nil {
		return err
	}
	if fwd != InvalidRID {
		if _, err := t.deleteAt(fwd); err != nil {
			return err
		}
	}
	return nil
}

// deleteAt kills the slot at rid; returns the forward target if the record
// was a stub.
func (t *Table) deleteAt(rid RID) (RID, error) {
	f, err := t.pool.Fetch(rid.Page)
	if err != nil {
		return InvalidRID, err
	}
	fwd := InvalidRID
	notFound := false
	err = t.pool.Modify(f, func(d []byte) error {
		slots := int(binary.BigEndian.Uint16(d[hdrSlots:]))
		if int(rid.Slot) >= slots {
			notFound = true
			return nil
		}
		off, length := slotAt(d, int(rid.Slot))
		if off == 0 {
			notFound = true
			return nil
		}
		if d[off] == recForward {
			fwd = RIDFromBytes(d[off+1 : off+length])
		}
		t.account(liveLen(d, int(rid.Slot)), -1)
		setSlot(d, int(rid.Slot), 0, 0)
		return nil
	})
	t.pool.Unpin(f, false)
	if err != nil {
		return InvalidRID, err
	}
	if notFound {
		return InvalidRID, fmt.Errorf("%w: %s", ErrNotFound, rid)
	}
	t.mu.Lock()
	t.freeCache[rid.Page] = 1 << 12 // rough hint; refreshed on next tryInsert
	t.mu.Unlock()
	return fwd, nil
}

// Update replaces the record's payload in place when possible; otherwise it
// moves the record and leaves a forwarding stub so rid stays valid.
func (t *Table) Update(rid RID, payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	f, err := t.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	const (
		outcomeDone = iota
		outcomeNotFound
		outcomeForward
		outcomeMove
	)
	outcome := outcomeDone
	target := InvalidRID
	err = t.pool.Modify(f, func(d []byte) error {
		slots := int(binary.BigEndian.Uint16(d[hdrSlots:]))
		if int(rid.Slot) >= slots {
			outcome = outcomeNotFound
			return nil
		}
		off, length := slotAt(d, int(rid.Slot))
		if off == 0 {
			outcome = outcomeNotFound
			return nil
		}
		flag := d[off]
		if flag == recForward {
			outcome = outcomeForward
			target = RIDFromBytes(d[off+1 : off+length])
			return nil
		}
		// In place if the new payload fits the current slot, or on the home
		// page if it has room once the old copy is freed.
		if len(payload)+1 > length && pageFree(d)+length < len(payload)+1 {
			outcome = outcomeMove
			return nil
		}
		return t.rewriteSlot(d, rid, flag, payload)
	})
	t.pool.Unpin(f, false)
	if err != nil {
		return err
	}
	switch outcome {
	case outcomeDone:
		return nil
	case outcomeNotFound:
		return fmt.Errorf("%w: %s", ErrNotFound, rid)
	case outcomeForward:
		// Update the moved copy; if it no longer fits there either, relocate
		// again and rewrite the home stub.
		if err := t.updateDirect(target, recHome, payload); err == nil {
			return nil
		}
		if _, err := t.deleteAt(target); err != nil {
			return err
		}
		newRID, err := t.insert(recHome, payload)
		if err != nil {
			return err
		}
		return t.updateDirect(rid, recForward, newRID.Bytes())
	default: // outcomeMove
		// Move the record elsewhere and leave a stub at home. The stub (7
		// bytes) replaces the old record, which is at least as large in all
		// but degenerate cases; updateDirect compacts if needed.
		newRID, err := t.insert(recHome, payload)
		if err != nil {
			return err
		}
		return t.updateDirect(rid, recForward, newRID.Bytes())
	}
}

// updateDirect rewrites the record at rid with the given flag and payload,
// in place or via page-local relocation only (no forwarding). Used to
// rewrite stubs and moved copies.
func (t *Table) updateDirect(rid RID, flag byte, payload []byte) error {
	f, err := t.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	var opErr error
	err = t.pool.Modify(f, func(d []byte) error {
		off, length := slotAt(d, int(rid.Slot))
		if off == 0 {
			opErr = fmt.Errorf("%w: %s", ErrNotFound, rid)
			return nil
		}
		if len(payload)+1 > length && pageFree(d)+length < len(payload)+1 {
			opErr = fmt.Errorf("heap: no room for direct update at %s", rid)
			return nil
		}
		return t.rewriteSlot(d, rid, flag, payload)
	})
	t.pool.Unpin(f, false)
	if err != nil {
		return err
	}
	return opErr
}

// rewriteSlot replaces the live record at rid on page image d: in place when
// the payload fits its slot, otherwise elsewhere on the page, which the
// caller has checked has room once the old copy is freed (compaction
// reclaims holes). The slot number is kept, so the RID is unchanged.
func (t *Table) rewriteSlot(d []byte, rid RID, flag byte, payload []byte) error {
	slot := int(rid.Slot)
	before := liveLen(d, slot)
	if off, length := slotAt(d, slot); len(payload)+1 <= length {
		d[off] = flag
		copy(d[off+1:], payload)
		setSlot(d, slot, off, len(payload)+1)
	} else {
		setSlot(d, slot, 0, 0)
		s := insertInPage(d, flag, payload)
		if s < 0 {
			return fmt.Errorf("heap: free-space accounting error at %s", rid)
		}
		if s != slot {
			o2, l2 := slotAt(d, s)
			setSlot(d, slot, o2, l2)
			setSlot(d, s, 0, 0)
		}
	}
	t.account(before, liveLen(d, slot))
	return nil
}

// Scan calls fn for every live record in the table, in physical order,
// skipping forwarding stubs (each logical record is visited exactly once, at
// its moved location if it has one). Scanning stops early if fn returns an
// error, which is then returned. Each page's records are copied out before
// fn sees them, so fn runs with no heap latch held and may keep its payload.
func (t *Table) Scan(fn func(rid RID, payload []byte) error) error {
	type rec struct {
		slot    uint16
		payload []byte
	}
	var recs []rec
	_, err := t.chain(func(_ pagestore.PageID, d []byte) {
		recs = recs[:0]
		for i := 0; i < int(binary.BigEndian.Uint16(d[hdrSlots:])); i++ {
			off, length := slotAt(d, i)
			if off == 0 || d[off] == recForward {
				continue
			}
			recs = append(recs, rec{uint16(i), bytes.Clone(d[off+1 : off+length])})
		}
	}, func(pg pagestore.PageID) error {
		for _, r := range recs {
			if err := fn(RID{Page: pg, Slot: r.slot}, r.payload); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// Pages returns the number of pages in the table's chain.
func (t *Table) Pages() (int, error) {
	n := 0
	if _, err := t.chain(func(pagestore.PageID, []byte) { n++ }, nil); err != nil {
		return 0, err
	}
	return n, nil
}
