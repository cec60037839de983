package pagestore

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"sync/atomic"

	"rx/internal/rxerr"
)

// Torn-page detection: ChecksumStore wraps any Store and maintains a CRC32
// plus a "written" bit per data page in sidecar checksum pages, verified on
// every read. The sidecar layout (rather than a per-page trailer) keeps the
// full PageSize usable by upper layers: the underlying store interleaves one
// checksum page before every run of crcPerPage data pages and the wrapper
// remaps logical page IDs over the gaps, so the engine never sees the
// sidecars.
//
// Crash consistency: checksum entries are buffered in memory and written to
// their sidecar pages during Sync, immediately before the inner sync. Under
// the engine's WAL discipline every durability boundary is a Sync, so a
// data page and its checksum entry always persist in the same sync epoch; a
// mismatch on read therefore means real corruption (a torn page write, bit
// rot, or a checksum page lost to a partial sync) — never a benign ordering
// artifact.
//
// The written bit distinguishes a never-written page (which legitimately
// reads as zeros) from a written page torn back to zeros: once a page's
// first write is durable its bit stays set, so an all-zero read of that
// page — or a corruption that zeroes its CRC entry — fails verification
// instead of masquerading as a fresh page.

// crcPerPage is the number of data pages a sidecar page covers. Each entry
// needs 4 CRC bytes plus one bit in the written bitmap, so the count is the
// largest multiple of 8 with 4*n + n/8 <= PageSize.
const crcPerPage = 1984

// crcBytes is the size of the CRC entry array; the written bitmap follows.
const crcBytes = 4 * crcPerPage

// verOff is the offset of the sidecar version byte, in the spare bytes after
// the written bitmap.
const verOff = crcBytes + crcPerPage/8

// sidecarVersion 1 marks sidecars whose entries use the Castagnoli
// polynomial. Version 0 (the zero value) was written by builds whose files
// also hold whole-key B+trees, which are refused anyway; CheckVersion lets an
// opener refuse such a file before anything is written.
const sidecarVersion = 1

// ErrSidecarVersion reports a first sidecar checksum page that holds
// version-0 entries: a file written by an older build (or a damaged sidecar,
// which RederiveChecksums rewrites).
var ErrSidecarVersion = errors.New("pagestore: sidecar checksum page is not version 1")

// ErrPageChecksum reports a page whose contents do not match its stored
// CRC32 — a torn write or silent media corruption. Retrieve the page with
// errors.As; it matches rxerr.ErrChecksum under errors.Is.
type ErrPageChecksum struct {
	PageID PageID
}

func (e ErrPageChecksum) Error() string {
	return fmt.Sprintf("pagestore: checksum mismatch on page %d (torn write or corruption)", e.PageID)
}

func (e ErrPageChecksum) Is(target error) bool { return target == rxerr.ErrChecksum }

// ChecksumStore is a Store wrapper that checksums every page. It must own
// the inner store exclusively (all reads and writes go through it).
//
// Reads take mu only shared: verification reads the cached group image, which
// writers mutate exclusively, so concurrent reads proceed in parallel and the
// read path never re-derives the page count from the inner store (pages is
// authoritative because the store is owned exclusively).
type ChecksumStore struct {
	mu     sync.RWMutex
	inner  Store
	pages  PageID               // cached logical page count
	groups map[PageID]*crcGroup // group index → cached checksum page image

	// writeGen is bumped (under mu, before the inner write) by every data-page
	// write. The optimistic read path uses it to tell a benign race from real
	// corruption: a verification failure with writeGen unchanged across the
	// unlocked window cannot be a concurrent writer's doing and is reported
	// immediately, without a re-read that could mask transient corruption.
	writeGen atomic.Uint64
}

type crcGroup struct {
	data  []byte // PageSize bytes: crcPerPage uint32 CRCs, then the written bitmap
	dirty bool
}

// NewChecksumStore wraps inner. An empty inner store is formatted lazily;
// a non-empty one must have been written through a ChecksumStore (the
// sidecar layout is not self-identifying — opening a raw store with
// checksums, or vice versa, fails on first read).
func NewChecksumStore(inner Store) *ChecksumStore {
	return &ChecksumStore{
		inner:  inner,
		pages:  logicalPages(inner.NumPages()),
		groups: map[PageID]*crcGroup{},
	}
}

// groupOf maps a logical page to its checksum group.
func groupOf(id PageID) PageID { return id / crcPerPage }

// physOf maps a logical page ID to its physical ID in the inner store.
func physOf(id PageID) PageID {
	g := id / crcPerPage
	return g*(crcPerPage+1) + 1 + id%crcPerPage
}

// crcPhys is the physical ID of group g's checksum page.
func crcPhys(g PageID) PageID { return g * (crcPerPage + 1) }

// PhysicalPage maps a logical page ID to its physical ID in the inner
// store. Exported for fault-injection adversaries and scrub tooling that
// corrupt or inspect the raw store underneath the wrapper.
func PhysicalPage(id PageID) PageID { return physOf(id) }

// SidecarPage returns the physical inner-store ID of the sidecar checksum
// page covering the given logical page.
func SidecarPage(id PageID) PageID { return crcPhys(groupOf(id)) }

// logicalPages converts an inner page count to the logical count.
func logicalPages(phys PageID) PageID {
	q := phys / (crcPerPage + 1)
	r := phys % (crcPerPage + 1)
	n := q * crcPerPage
	if r > 0 {
		n += r - 1
	}
	return n
}

// castagnoli is the CRC32-C table; hash/crc32 dispatches to the SSE4.2 /
// ARMv8 CRC instructions for it, making verification several times faster
// than the software IEEE computation.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// pageCRC is the stored checksum of a page image: CRC32-C (Castagnoli),
// remapped away from 0 so a stored entry of 0 (zero-filled sidecar region,
// or a corruption that zeroed the entry) can never verify a written page.
func pageCRC(buf []byte) uint32 {
	c := crc32.Checksum(buf[:PageSize], castagnoli)
	if c == 0 {
		c = 1
	}
	return c
}

// newGroup returns a fresh (never-persisted) group image, already stamped
// with the current sidecar version.
func newGroup(dirty bool) *crcGroup {
	g := &crcGroup{data: make([]byte, PageSize), dirty: dirty}
	g.data[verOff] = sidecarVersion
	return g
}

// groupLocked returns group g's cached checksum page, loading it from the
// inner store on first touch.
func (c *ChecksumStore) groupLocked(g PageID) (*crcGroup, error) {
	if grp, ok := c.groups[g]; ok {
		return grp, nil
	}
	var grp *crcGroup
	if crcPhys(g) < c.inner.NumPages() {
		grp = &crcGroup{data: make([]byte, PageSize)}
		if err := c.inner.ReadPage(crcPhys(g), grp.data); err != nil {
			return nil, err
		}
		// A never-synced page reads as zeros; stamp it so its first flush
		// writes a current page. (An old group 0 was refused by CheckVersion.)
		grp.data[verOff] = sidecarVersion
	} else {
		grp = newGroup(false)
	}
	c.groups[g] = grp
	return grp, nil
}

func (g *crcGroup) get(idx PageID) uint32 {
	d := g.data[idx*4:]
	return uint32(d[0])<<24 | uint32(d[1])<<16 | uint32(d[2])<<8 | uint32(d[3])
}

func (g *crcGroup) set(idx PageID, crc uint32) {
	d := g.data[idx*4:]
	d[0], d[1], d[2], d[3] = byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc)
	g.dirty = true
}

// written reports the page's written bit from the bitmap after the CRC array.
func (g *crcGroup) written(idx PageID) bool {
	return g.data[crcBytes+idx/8]&(1<<(idx%8)) != 0
}

func (g *crcGroup) setWritten(idx PageID, w bool) {
	if w {
		g.data[crcBytes+idx/8] |= 1 << (idx % 8)
	} else {
		g.data[crcBytes+idx/8] &^= 1 << (idx % 8)
	}
	g.dirty = true
}

// ReadPage implements Store, verifying the page against its stored CRC.
//
// Fast path: the expected CRC and written bit are snapshotted under the
// shared lock, then the inner read and the CRC computation run with no lock
// held at all, so verification never serializes against sidecar updates. A
// mismatch with writeGen unchanged across the unlocked window is real
// corruption (no writer could have raced) and fails immediately; only when a
// write did run concurrently does the slow path re-read and re-verify under
// the exclusive lock, where the store is quiescent.
func (c *ChecksumStore) ReadPage(id PageID, buf []byte) error {
	c.mu.RLock()
	if id >= c.pages {
		n := c.pages
		c.mu.RUnlock()
		return fmt.Errorf("%w: read page %d of %d", ErrPageRange, id, n)
	}
	grp, ok := c.groups[groupOf(id)]
	if !ok {
		// First touch of this group: load its sidecar page exclusively.
		// Groups are never evicted, so the reload can't miss.
		c.mu.RUnlock()
		c.mu.Lock()
		_, err := c.groupLocked(groupOf(id))
		c.mu.Unlock()
		if err != nil {
			return err
		}
		c.mu.RLock()
		grp = c.groups[groupOf(id)]
	}
	idx := id % crcPerPage
	want := grp.get(idx)
	written := grp.written(idx)
	gen := c.writeGen.Load()
	c.mu.RUnlock()
	if err := c.inner.ReadPage(physOf(id), buf); err != nil {
		return err
	}
	if written {
		if pageCRC(buf) == want {
			return nil
		}
	} else if allZero(buf[:PageSize]) {
		// Never durably written: only an untouched (all-zero) page is
		// acceptable. Anything else is a write that escaped its sync epoch.
		return nil
	}
	if c.writeGen.Load() == gen {
		// No write ran during the unlocked window, so the mismatch cannot be
		// a racing writer. Report the bytes the device actually returned —
		// re-reading here would mask transient read corruption.
		return fmt.Errorf("%w", ErrPageChecksum{PageID: id})
	}
	return c.readPageSlow(id, buf)
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// readPageSlow re-reads and re-verifies a page under the exclusive lock,
// after an optimistic verification failed. With the lock held no writer can
// be between its inner write and its sidecar update, so a mismatch here is
// a torn write or media corruption, never a benign race.
func (c *ChecksumStore) readPageSlow(id PageID, buf []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	grp, err := c.groupLocked(groupOf(id))
	if err != nil {
		return err
	}
	if err := c.inner.ReadPage(physOf(id), buf); err != nil {
		return err
	}
	idx := id % crcPerPage
	if !grp.written(idx) {
		if allZero(buf[:PageSize]) {
			return nil
		}
		return fmt.Errorf("%w", ErrPageChecksum{PageID: id})
	}
	if pageCRC(buf) != grp.get(idx) {
		return fmt.Errorf("%w", ErrPageChecksum{PageID: id})
	}
	return nil
}

// WritePage implements Store, updating the page's CRC entry and written bit
// (made durable at the next Sync, in the same epoch as the data page).
func (c *ChecksumStore) WritePage(id PageID, buf []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id >= c.pages {
		return fmt.Errorf("%w: write page %d of %d", ErrPageRange, id, c.pages)
	}
	// Bumped before the inner write: a reader whose inner read observed this
	// write's bytes is then guaranteed to observe the new generation too.
	c.writeGen.Add(1)
	if err := c.inner.WritePage(physOf(id), buf); err != nil {
		return err
	}
	grp, err := c.groupLocked(groupOf(id))
	if err != nil {
		return err
	}
	grp.set(id%crcPerPage, pageCRC(buf))
	grp.setWritten(id%crcPerPage, true)
	return nil
}

// Allocate implements Store, interposing a checksum page at the start of
// each new group.
func (c *ChecksumStore) Allocate() (PageID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.pages
	if id%crcPerPage == 0 {
		// First page of a new group: allocate its checksum page.
		cp, err := c.inner.Allocate()
		if err != nil {
			return InvalidPage, err
		}
		if cp != crcPhys(groupOf(id)) {
			return InvalidPage, fmt.Errorf("pagestore: checksum layout broken: sidecar at %d, want %d", cp, crcPhys(groupOf(id)))
		}
		c.groups[groupOf(id)] = newGroup(true)
	}
	dp, err := c.inner.Allocate()
	if err != nil {
		return InvalidPage, err
	}
	if dp != physOf(id) {
		return InvalidPage, fmt.Errorf("pagestore: checksum layout broken: data page at %d, want %d", dp, physOf(id))
	}
	grp, err := c.groupLocked(groupOf(id))
	if err != nil {
		return InvalidPage, err
	}
	grp.set(id%crcPerPage, 0)
	grp.setWritten(id%crcPerPage, false)
	c.pages++
	return id, nil
}

// NumPages implements Store (logical pages, sidecars excluded).
func (c *ChecksumStore) NumPages() PageID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.pages
}

// CheckVersion reports ErrSidecarVersion when the first sidecar page holds
// version-0 entries: a version byte of 0 on a page with any entry or written
// bit set. Builds before version 1 always synced group 0, so that page alone
// tells an old file. An all-zero page is one that was allocated but never
// synced (Allocate extends the inner store at once, the sidecar reaches it
// only at Sync), and passes. It reads the raw page and writes nothing, so an
// opener can refuse a file before the first write.
func (c *ChecksumStore) CheckVersion() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.inner.NumPages() == 0 {
		return nil
	}
	buf := make([]byte, PageSize)
	if err := c.inner.ReadPage(crcPhys(0), buf); err != nil {
		return err
	}
	if buf[verOff] == 0 && !allZero(buf[:PageSize]) {
		return fmt.Errorf("%w: page %d holds version 0", ErrSidecarVersion, crcPhys(0))
	}
	return nil
}

// Rederive rebuilds every sidecar page from the current contents of the
// inner store: each data page's CRC is recomputed from its on-disk image,
// with an all-zero page marked unwritten. This is the repair path for a
// lost or corrupted sidecar page. It blesses whatever the data pages
// currently hold — torn-write history in the rederived groups is gone — so
// a structural consistency check must follow.
func (c *ChecksumStore) Rederive() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.pages
	buf := make([]byte, PageSize)
	for id := PageID(0); id < n; id++ {
		if id%crcPerPage == 0 {
			c.groups[groupOf(id)] = newGroup(true)
		}
		if err := c.inner.ReadPage(physOf(id), buf); err != nil {
			return err
		}
		grp := c.groups[groupOf(id)]
		idx := id % crcPerPage
		zero := true
		for _, b := range buf[:PageSize] {
			if b != 0 {
				zero = false
				break
			}
		}
		if zero {
			grp.set(idx, 0)
			grp.setWritten(idx, false)
		} else {
			grp.set(idx, pageCRC(buf))
			grp.setWritten(idx, true)
		}
	}
	if err := c.flushGroupsLocked(); err != nil {
		return err
	}
	return c.inner.Sync()
}

// flushGroupsLocked writes every dirty checksum page to the inner store in
// group order.
func (c *ChecksumStore) flushGroupsLocked() error {
	gs := make([]PageID, 0, len(c.groups))
	for g, grp := range c.groups {
		if grp.dirty {
			gs = append(gs, g)
		}
	}
	sort.Slice(gs, func(a, b int) bool { return gs[a] < gs[b] })
	for _, g := range gs {
		if err := c.inner.WritePage(crcPhys(g), c.groups[g].data); err != nil {
			return err
		}
		c.groups[g].dirty = false
	}
	return nil
}

// Sync implements Store: dirty checksum pages are written first so data and
// checksums persist in the same sync epoch.
func (c *ChecksumStore) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.flushGroupsLocked(); err != nil {
		return err
	}
	return c.inner.Sync()
}

// Close implements Store, flushing checksum pages first.
func (c *ChecksumStore) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.flushGroupsLocked(); err != nil {
		return err
	}
	return c.inner.Close()
}

// Inner returns the wrapped store.
func (c *ChecksumStore) Inner() Store { return c.inner }
