package btree

// Repair support for the scrub subsystem: enumerate the pages a tree owns
// (so corruption can be attributed to a specific index) and reset a tree to
// empty in place (so a corrupt index can be rebuilt from its base data
// without changing the tree's durable identity, its meta page — no catalog
// update and no unsynchronized pointer swap in open handles).

import (
	"encoding/binary"

	"rx/internal/pagestore"
)

// nodeChildren extracts the child pointers of an internal node image with
// bounds validation: on a checksummed store a readable page is exactly what
// was written, but without checksums a garbage page must yield a short list,
// not a panic.
func nodeChildren(d []byte) []pagestore.PageID {
	if isLeaf(d) {
		return nil
	}
	kids := []pagestore.PageID{link(d)}
	n := nKeys(d)
	if n > (pagestore.PageSize-hdrSize)/slotSize {
		return kids
	}
	for i := 0; i < n; i++ {
		off := cellOff(d, i)
		if off < hdrSize || off+2 > pagestore.PageSize {
			continue
		}
		kl := int(binary.BigEndian.Uint16(d[off:]))
		if off+2+kl+4 > pagestore.PageSize {
			continue
		}
		kids = append(kids, pagestore.PageID(binary.BigEndian.Uint32(d[off+2+kl:])))
	}
	return kids
}

// Pages enumerates every page the tree owns: the meta page, the root, and
// all descendants. The walk is fault-tolerant: an unreadable page is still
// listed (it belongs to the tree) but its children cannot be discovered, so
// pages below it leak out of the enumeration; the first read error is
// returned alongside the partial list. Children pointing outside the store
// (possible only with corruption on a non-checksummed stack) are dropped.
func (t *Tree) Pages() ([]pagestore.PageID, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	limit := t.pool.Store().NumPages()
	pages := []pagestore.PageID{t.meta}
	var firstErr error
	seen := map[pagestore.PageID]bool{t.meta: true, t.root: true}
	queue := []pagestore.PageID{t.root}
	for len(queue) > 0 {
		pg := queue[0]
		queue = queue[1:]
		pages = append(pages, pg)
		f, err := t.pool.Fetch(pg)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		f.RLock()
		kids := nodeChildren(f.Data)
		f.RUnlock()
		t.pool.Unpin(f, false)
		for _, k := range kids {
			if k == pagestore.InvalidPage || k >= limit || seen[k] {
				continue
			}
			seen[k] = true
			queue = append(queue, k)
		}
	}
	return pages, firstErr
}

// Reset reinitializes the tree to empty with a fresh leaf root, abandoning
// all existing nodes. The meta page is rewritten even if its current
// contents are unreadable (repair of a corrupt meta page). Abandoned pages
// are not reclaimed; repair zero-reformats the ones that fail verification.
func (t *Tree) Reset() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	rf, err := t.pool.NewPage()
	if err != nil {
		return err
	}
	err = t.pool.Modify(rf, func(d []byte) error {
		initNode(d, true)
		return nil
	})
	rootID := rf.ID()
	t.pool.Unpin(rf, false)
	if err != nil {
		return err
	}
	mf, err := t.pool.Fetch(t.meta)
	if err != nil {
		mf, err = t.pool.FetchZeroed(t.meta)
		if err != nil {
			return err
		}
	}
	err = t.pool.Modify(mf, func(d []byte) error {
		for i := 8; i < len(d); i++ {
			d[i] = 0
		}
		setMeta(d, rootID)
		return nil
	})
	t.pool.Unpin(mf, false)
	if err != nil {
		return err
	}
	t.root = rootID
	return nil
}
