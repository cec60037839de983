package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"rx/internal/btree"
	"rx/internal/heap"
	"rx/internal/nodeid"
	"rx/internal/nodeindex"
	"rx/internal/pack"
	"rx/internal/serialize"
	"rx/internal/vsax"
	"rx/internal/xml"
)

// Document-level multiversioning (§5.1): versioned collections keep the
// most up-to-date data in the XPath value indexes but versions for the XML
// data and the NodeID index. Updates are copy-on-write at record
// granularity — edited records become new rows, untouched records are
// shared — and each new version writes a complete NodeID-index entry set,
// so a reader pinned to a snapshot version never blocks and never misses
// (the paper's "reader's deferred access is guaranteed to be successful").

// Versioned reports whether the collection is multiversioned.
func (c *Collection) Versioned() bool { return c.meta.Versioned }

// baseRow encodes the base table row: DocID plus, for versioned
// collections, the current version.
func (c *Collection) baseRow(doc xml.DocID, ver uint64) []byte {
	var d [16]byte
	binary.BigEndian.PutUint64(d[:8], uint64(doc))
	if !c.meta.Versioned {
		return d[:8]
	}
	binary.BigEndian.PutUint64(d[8:], ver)
	return d[:]
}

// currentVersion reads a versioned document's newest version number.
func (c *Collection) currentVersion(doc xml.DocID) (uint64, error) {
	if !c.meta.Versioned {
		return 0, nil
	}
	var d [8]byte
	binary.BigEndian.PutUint64(d[:], uint64(doc))
	ridBytes, err := c.docIx.Get(d[:])
	if err != nil {
		return 0, lookupErr(err, fmt.Sprintf("document %d", doc))
	}
	row, err := c.base.Fetch(heap.RIDFromBytes(ridBytes))
	if err != nil {
		return 0, err
	}
	if len(row) < 16 {
		return 0, errors.New("core: short versioned base row")
	}
	return binary.BigEndian.Uint64(row[8:16]), nil
}

// setVersion bumps a versioned document's current version.
func (c *Collection) setVersion(doc xml.DocID, ver uint64) error {
	var d [8]byte
	binary.BigEndian.PutUint64(d[:], uint64(doc))
	ridBytes, err := c.docIx.Get(d[:])
	if err != nil {
		return lookupErr(err, fmt.Sprintf("document %d", doc))
	}
	return c.base.Update(heap.RIDFromBytes(ridBytes), c.baseRow(doc, ver))
}

// SnapshotVersion returns the document's current version for use as a
// reader snapshot. The returned version remains readable until vacuumed.
func (c *Collection) SnapshotVersion(doc xml.DocID) (uint64, error) {
	if !c.meta.Versioned {
		return 0, errors.New("core: collection is not versioned")
	}
	return c.currentVersion(doc)
}

// lookupCur resolves (doc, id) to a record at the document's current
// version (or plainly, for unversioned collections).
func (c *Collection) lookupCur(doc xml.DocID, id nodeid.ID) (heap.RID, error) {
	if !c.meta.Versioned {
		return c.nodeIx.Lookup(doc, id)
	}
	ver, err := c.currentVersion(doc)
	if err != nil {
		return heap.InvalidRID, err
	}
	return c.nodeIx.LookupV(doc, ver, id)
}

// lookupAt resolves (doc, id) at a snapshot version.
func (c *Collection) lookupAt(doc xml.DocID, ver uint64, id nodeid.ID) (heap.RID, error) {
	if !c.meta.Versioned {
		return c.nodeIx.Lookup(doc, id)
	}
	return c.nodeIx.LookupV(doc, ver, id)
}

// fetcherAt returns a proxy resolver pinned to a snapshot version.
func (c *Collection) fetcherAt(doc xml.DocID, ver uint64) pack.Fetch {
	return func(first nodeid.ID) (*pack.Record, error) {
		rid, err := c.lookupAt(doc, ver, first)
		if err != nil {
			return nil, err
		}
		return c.fetchRecord(rid)
	}
}

// WalkDocAt drives a handler with a snapshot version's events.
func (c *Collection) WalkDocAt(doc xml.DocID, ver uint64, h vsax.Handler) error {
	rid, err := c.lookupAt(doc, ver, nodeid.Root)
	if err != nil {
		return err
	}
	root, err := c.fetchRecord(rid)
	if err != nil {
		return err
	}
	if err := h.StartDocument(); err != nil {
		return err
	}
	if err := pack.Walk(root, c.fetcherAt(doc, ver), visitorFor(h)); err != nil {
		return err
	}
	return h.EndDocument()
}

// SerializeAt writes a snapshot version of the document as XML text — a
// reader that never blocks behind writers (§5.1).
func (c *Collection) SerializeAt(doc xml.DocID, ver uint64, w io.Writer) error {
	s := serialize.New(w, c.db.cat)
	if err := c.WalkDocAt(doc, ver, s); err != nil {
		return err
	}
	return s.Err()
}

// verEdit accumulates one versioned update's copy-on-write effects.
type verEdit struct {
	doc xml.DocID
	cur uint64
	// edited maps replaced records (old RID) to their new row and interval
	// uppers.
	edited map[heap.RID]verNewRec
	// dropped marks records whose content leaves the new version entirely.
	dropped map[heap.RID]bool
}

type verNewRec struct {
	rid    heap.RID
	uppers []nodeid.ID
}

func (c *Collection) beginVerEdit(doc xml.DocID) (*verEdit, error) {
	cur, err := c.currentVersion(doc)
	if err != nil {
		return nil, err
	}
	return &verEdit{doc: doc, cur: cur, edited: map[heap.RID]verNewRec{}, dropped: map[heap.RID]bool{}}, nil
}

// rewriteCOW re-encodes an edited record as a new row and registers it.
func (c *Collection) rewriteCOW(ve *verEdit, oldRID heap.RID, rec *pack.Record, tops []*pack.MutNode) error {
	payload := rec.Encode(tops)
	newRec, err := pack.Decode(payload)
	if err != nil {
		return err
	}
	uppers, minID, err := newRec.Intervals()
	if err != nil {
		return err
	}
	rid, err := c.xmlTbl.Insert(xmlRow(ve.doc, minID, payload))
	if err != nil {
		return err
	}
	ve.edited[oldRID] = verNewRec{rid: rid, uppers: uppers}
	return nil
}

// commitVerEdit writes the new version's complete entry set and bumps the
// document's current version.
func (c *Collection) commitVerEdit(ve *verEdit) error {
	newVer := ve.cur + 1
	// Collect the carried-over entries first: inserting while scanning
	// would self-deadlock on the index tree's latch.
	type carry struct {
		upper nodeid.ID
		rid   heap.RID
	}
	var carried []carry
	err := c.nodeIx.ScanVersion(ve.doc, ve.cur, func(upper nodeid.ID, rid heap.RID) bool {
		if ve.dropped[rid] {
			return true
		}
		if _, ok := ve.edited[rid]; ok {
			return true
		}
		carried = append(carried, carry{upper: nodeid.Clone(upper), rid: rid})
		return true
	})
	if err != nil {
		return err
	}
	for _, e := range carried {
		if err := c.nodeIx.PutV(ve.doc, newVer, e.upper, e.rid); err != nil {
			return err
		}
	}
	for _, nr := range ve.edited {
		for _, u := range nr.uppers {
			if err := c.nodeIx.PutV(ve.doc, newVer, u, nr.rid); err != nil {
				return err
			}
		}
	}
	return c.setVersion(ve.doc, newVer)
}

// updateTextVersioned is the copy-on-write UpdateText.
func (c *Collection) updateTextVersioned(doc xml.DocID, id nodeid.ID, newValue []byte) error {
	ve, err := c.beginVerEdit(doc)
	if err != nil {
		return err
	}
	rid, err := c.nodeIx.LookupV(doc, ve.cur, id)
	if err != nil {
		return fmt.Errorf("%w: doc %d node %s", ErrNotFound, doc, id)
	}
	rec, err := c.fetchRecord(rid)
	if err != nil {
		return err
	}
	tops, err := rec.Mutable()
	if err != nil {
		return err
	}
	_, _, node, err := pack.FindMut(tops, rec.ContextID, id)
	if err != nil {
		return fmt.Errorf("%w: doc %d node %s", ErrNotFound, doc, id)
	}
	if node.Kind != xml.Text && node.Kind != xml.Attribute {
		return fmt.Errorf("core: UpdateText target %s is a %v", id, node.Kind)
	}
	node.Value = append([]byte(nil), newValue...)
	if err := c.rewriteCOW(ve, rid, rec, tops); err != nil {
		return err
	}
	return c.commitVerEdit(ve)
}

// insertFragmentVersioned is the copy-on-write InsertFragment record edit:
// the caller (InsertFragment) has already decided the target record, the
// parent and the new subtree.
func (c *Collection) insertFragmentVersioned(doc xml.DocID, rid heap.RID, rec *pack.Record, tops []*pack.MutNode) error {
	ve, err := c.beginVerEdit(doc)
	if err != nil {
		return err
	}
	if err := c.rewriteCOW(ve, rid, rec, tops); err != nil {
		return err
	}
	return c.commitVerEdit(ve)
}

// deleteSubtreeVersioned is the copy-on-write DeleteSubtree.
func (c *Collection) deleteSubtreeVersioned(doc xml.DocID, id nodeid.ID) error {
	ve, err := c.beginVerEdit(doc)
	if err != nil {
		return err
	}
	rid0, err := c.nodeIx.LookupV(doc, ve.cur, id)
	if err != nil {
		return fmt.Errorf("%w: doc %d node %s", ErrNotFound, doc, id)
	}
	rec0, err := c.fetchRecord(rid0)
	if err != nil {
		return err
	}
	tops, err := rec0.Mutable()
	if err != nil {
		return err
	}
	parent, idx, _, err := pack.FindMut(tops, rec0.ContextID, id)
	if err != nil {
		return fmt.Errorf("%w: doc %d node %s", ErrNotFound, doc, id)
	}
	// Records fully inside the subtree leave the new version (their rows
	// stay for older snapshots until vacuum).
	err = c.nodeIx.ScanVersion(doc, ve.cur, func(upper nodeid.ID, rid heap.RID) bool {
		if rid != rid0 && nodeid.IsAncestorOrSelf(id, upper) {
			ve.dropped[rid] = true
		}
		return true
	})
	if err != nil {
		return err
	}
	if parent == nil {
		tops = append(tops[:idx], tops[idx+1:]...)
	} else {
		parent.Children = append(parent.Children[:idx], parent.Children[idx+1:]...)
	}
	if len(tops) == 0 {
		// The record emptied: drop it from the new version and shrink the
		// proxy in the (copy-on-write edited) parent record.
		ve.dropped[rid0] = true
		if err := c.dropProxyVersioned(ve, id); err != nil {
			return err
		}
	} else {
		if err := c.rewriteCOW(ve, rid0, rec0, tops); err != nil {
			return err
		}
	}
	return c.commitVerEdit(ve)
}

// dropProxyVersioned removes/shrinks the covering proxy via copy-on-write.
func (c *Collection) dropProxyVersioned(ve *verEdit, id nodeid.ID) error {
	parentID, err := nodeid.Parent(id)
	if err != nil {
		return err
	}
	rid, err := c.nodeIx.LookupV(ve.doc, ve.cur, parentID)
	if err != nil {
		return nil
	}
	rec, err := c.fetchRecord(rid)
	if err != nil {
		return err
	}
	tops, err := rec.Mutable()
	if err != nil {
		return err
	}
	rel, err := nodeid.LastRel(id)
	if err != nil {
		return err
	}
	removeProxy := func(list []*pack.MutNode) ([]*pack.MutNode, bool) {
		best := -1
		for i, m := range list {
			if m.Kind == xml.Proxy && bytes.Compare(m.Rel, rel) <= 0 {
				best = i
			}
		}
		if best < 0 {
			return list, false
		}
		if list[best].ProxyCount > 1 {
			list[best].ProxyCount--
			return list, true
		}
		return append(list[:best], list[best+1:]...), true
	}
	changed := false
	if nodeid.Equal(rec.ContextID, parentID) {
		tops, changed = removeProxy(tops)
	} else {
		_, _, parent, err := pack.FindMut(tops, rec.ContextID, parentID)
		if err == nil && parent != nil {
			parent.Children, changed = removeProxy(parent.Children)
		}
	}
	if !changed {
		return nil
	}
	return c.rewriteCOW(ve, rid, rec, tops)
}

// deleteVersionedDoc removes every version of a document.
func (c *Collection) deleteVersionedDoc(doc xml.DocID) error {
	var d [8]byte
	binary.BigEndian.PutUint64(d[:], uint64(doc))
	baseRIDBytes, err := c.docIx.Get(d[:])
	if err != nil {
		return lookupErr(err, fmt.Sprintf("document %d", doc))
	}
	ixEntries := map[string]int64{}
	for _, ov := range c.valIxs {
		n, err := c.dropValueKeys(ov, doc)
		if err != nil {
			return err
		}
		ixEntries[ov.meta.Name] += int64(n)
	}
	// All entries across all versions.
	rids := map[heap.RID]bool{}
	var keys [][]byte
	lo := nodeindex.VKey(doc, ^uint64(0), nodeid.Root)
	hi := nodeindex.VKey(doc+1, ^uint64(0), nodeid.Root)
	err = c.nodeIx.Tree().Scan(lo, hi, func(e btree.Entry) bool {
		rids[heap.RIDFromBytes(e.Value)] = true
		keys = append(keys, e.Key)
		return true
	})
	if err != nil {
		return err
	}
	for rid := range rids {
		if err := c.xmlTbl.Delete(rid); err != nil && !errors.Is(err, heap.ErrNotFound) {
			return err
		}
	}
	for _, k := range keys {
		if err := c.nodeIx.Tree().Delete(k); err != nil {
			return err
		}
	}
	if err := c.base.Delete(heap.RIDFromBytes(baseRIDBytes)); err != nil {
		return err
	}
	if err := c.docIx.Delete(d[:]); err != nil {
		return err
	}
	c.noteDelete(int64(len(rids)), ixEntries)
	return nil
}

// Vacuum discards versions older than keep, reclaiming rows no remaining
// version references. Callers must ensure no reader still uses versions
// below keep.
func (c *Collection) Vacuum(doc xml.DocID, keep uint64) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if !c.meta.Versioned {
		return errors.New("core: collection is not versioned")
	}
	_, released, err := c.nodeIx.DropVersionsBefore(doc, keep)
	if err != nil {
		return err
	}
	// Delete in RID order so Vacuum's I/O sequence is deterministic for a
	// given history (fault schedules are replayed by operation index).
	rids := make([]heap.RID, 0, len(released))
	for rid := range released {
		rids = append(rids, rid)
	}
	sort.Slice(rids, func(i, j int) bool {
		if rids[i].Page != rids[j].Page {
			return rids[i].Page < rids[j].Page
		}
		return rids[i].Slot < rids[j].Slot
	})
	for _, rid := range rids {
		if err := c.xmlTbl.Delete(rid); err != nil && !errors.Is(err, heap.ErrNotFound) {
			return err
		}
	}
	return nil
}
