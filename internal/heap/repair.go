package heap

// Repair support: the scrub/repair subsystem (internal/core)
// reformats heap pages that failed checksum verification and relinks the
// page chain around them. The helpers here expose just enough of the page
// format for that, without letting repair code re-implement the layout.

import (
	"encoding/binary"
	"fmt"

	"rx/internal/buffer"
	"rx/internal/pagestore"
)

// InitPageImage formats d (PageSize bytes) as an empty heap page with no next
// pointer. Used by repair to reformat a page whose contents were lost; call
// it inside buffer.Pool.Modify so the change is logged and checksummed.
func InitPageImage(d []byte) { initPage(d) }

// ForwardTargetsInPage returns the targets of every forwarding stub on a heap
// page image. Slot bounds are validated so a garbage page yields an empty
// list rather than a panic.
func ForwardTargetsInPage(d []byte) []RID {
	slots := int(binary.BigEndian.Uint16(d[hdrSlots:]))
	if slots > (pagestore.PageSize-hdrSize)/slotSize {
		return nil
	}
	var out []RID
	for i := 0; i < slots; i++ {
		off, length := slotAt(d, i)
		if off < hdrSize || off+length > pagestore.PageSize || length < 7 {
			continue
		}
		if d[off] == recForward {
			out = append(out, RIDFromBytes(d[off+1:off+7]))
		}
	}
	return out
}

// OpenTolerant opens a table whose chain may contain unreadable pages.
// The walk stops at the first page that fails to load and marks the table
// short: reads of intact pages work normally, and each insert walks the
// chain again before it trusts the last page. While the page still fails,
// inserts into the prefix's free space succeed, one that would reach the
// last page fails with the page's error, and the chain is left as it is
// for repair, which relinks it and calls Reattach.
func OpenTolerant(pool *buffer.Pool, first pagestore.PageID) *Table {
	t := &Table{pool: pool, firstPage: first}
	_ = t.attach() // tolerant: a short walk is recorded, not returned
	return t
}

// ChainPages walks the table's page chain and returns every page it reaches.
// The walk is fault-tolerant: a page that cannot be read is still included
// (it belongs to the table) but ends the walk with the error, so the caller
// sees both the readable prefix and where the chain broke. A cycle (possible
// only with corrupt next pointers) also ends the walk.
func (t *Table) ChainPages() ([]pagestore.PageID, error) {
	var pages []pagestore.PageID
	bad, err := t.chain(func(pg pagestore.PageID, _ []byte) { pages = append(pages, pg) }, nil)
	if err != nil {
		pages = append(pages, bad)
	}
	return pages, err
}

// ForwardTargets collects the targets of all forwarding stubs reachable on
// the chain. Like ChainPages, the walk stops at the first unreadable page and
// returns the targets found so far along with the error.
func (t *Table) ForwardTargets() ([]RID, error) {
	var out []RID
	_, err := t.chain(func(_ pagestore.PageID, d []byte) { out = append(out, ForwardTargetsInPage(d)...) }, nil)
	return out, err
}

// Relink rewrites the table's chain to consist of exactly the given pages in
// the given order. The first element must be the table's identifying first
// page and every page must be readable (repair reformats damaged members
// before calling this). The in-memory insertion state is refreshed from the
// new chain afterwards.
func (t *Table) Relink(pages []pagestore.PageID) error {
	if len(pages) == 0 || pages[0] != t.firstPage {
		return fmt.Errorf("heap: relink must start at first page %d", t.firstPage)
	}
	for i, pg := range pages {
		next := pagestore.InvalidPage
		if i+1 < len(pages) {
			next = pages[i+1]
		}
		f, err := t.pool.Fetch(pg)
		if err != nil {
			return err
		}
		err = t.pool.Modify(f, func(d []byte) error {
			setPageNext(d, next)
			return nil
		})
		t.pool.Unpin(f, false)
		if err != nil {
			return err
		}
	}
	return t.Reattach()
}

// Reattach re-derives the table's in-memory state (last page, free cache,
// live counts) by re-walking the chain, exactly as Open does. Called after
// repair has changed the chain underneath an open Table.
func (t *Table) Reattach() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attach()
}

// Rewalk re-derives the in-memory state as Reattach does, but only when the
// last walk stopped short; it returns the error of a page that still fails.
// Callers that trust the live counts (consistency checks) run it first.
func (t *Table) Rewalk() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.short {
		return nil
	}
	return t.attach()
}
