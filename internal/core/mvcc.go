package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"rx/internal/heap"
	"rx/internal/nodeid"
	"rx/internal/vsax"
	"rx/internal/xml"
)

// Document-level multiversioning (§5.1): versioned collections keep the
// most up-to-date data in the XPath value indexes but versions for the XML
// data and the NodeID index. Updates (the edit pipeline's verEdit sink) are
// copy-on-write at record granularity — edited records become new rows,
// untouched records are shared — and each new version writes a complete
// NodeID-index entry set, so a reader pinned to a snapshot version never
// blocks and never misses (the paper's "reader's deferred access is
// guaranteed to be successful"). Every read, snapshot or not, resolves its
// version once — when its docReader is made — and looks every record up at
// that version: one read, one version.

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

// WalkDocAt drives a handler with a snapshot version's events.
func (c *Collection) WalkDocAt(doc xml.DocID, ver uint64, h vsax.Handler) error {
	return docReader{c, doc, ver}.walkDoc(h, nil)
}

// SerializeAt writes a snapshot version of the document as XML text — a
// reader that never blocks behind writers (§5.1).
func (c *Collection) SerializeAt(doc xml.DocID, ver uint64, w io.Writer) error {
	return docReader{c, doc, ver}.serialize(w)
}

// verEdit is the copy-on-write record sink (edit.go): one versioned edit's
// record effects, installed as version cur+1 by commit. Edited records become
// new rows, untouched records are carried over.
type verEdit struct {
	c   *Collection
	doc xml.DocID
	cur uint64
	// gone holds the records absent from the new version: dropped ones, and
	// replaced ones whose new rows are in added.
	gone  map[heap.RID]bool
	added []verNewRec
}

type verNewRec struct {
	from   *openRec
	rid    heap.RID
	uppers []nodeid.ID
}

// rewrite stores the edited record as a new row. A record rewritten a second
// time in the same edit overwrites the row its first rewrite made: that row
// belongs to the new version alone.
func (ve *verEdit) rewrite(r *openRec) error {
	row, uppers, err := encodeRecord(ve.doc, r.rec, r.tops)
	if err != nil {
		return err
	}
	for i := range ve.added {
		if nr := &ve.added[i]; nr.from == r {
			nr.uppers = uppers
			return ve.c.xmlTbl.Update(nr.rid, row)
		}
	}
	rid, err := ve.c.xmlTbl.Insert(row)
	if err != nil {
		return err
	}
	ve.gone[r.rid] = true
	ve.added = append(ve.added, verNewRec{from: r, rid: rid, uppers: uppers})
	return nil
}

// drop leaves the record out of the new version; like dropInside's records,
// its row stays for older snapshots until vacuum.
func (ve *verEdit) drop(r *openRec) error {
	ve.gone[r.rid] = true
	return nil
}

func (ve *verEdit) dropInside(id nodeid.ID, keep heap.RID) error {
	return ve.c.nodeIx.ScanVersion(ve.doc, ve.cur, func(upper nodeid.ID, rid heap.RID) bool {
		if rid != keep && nodeid.IsAncestorOrSelf(id, upper) {
			ve.gone[rid] = true
		}
		return true
	})
}

// commit writes the new version's complete entry set and bumps the
// document's current version.
func (ve *verEdit) commit() error {
	c, newVer := ve.c, ve.cur+1
	// Collect the carried-over entries first: inserting while scanning
	// would self-deadlock on the index tree's latch.
	type carry struct {
		upper nodeid.ID
		rid   heap.RID
	}
	var carried []carry
	err := c.nodeIx.ScanVersion(ve.doc, ve.cur, func(upper nodeid.ID, rid heap.RID) bool {
		if !ve.gone[rid] {
			carried = append(carried, carry{upper: nodeid.Clone(upper), rid: rid})
		}
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
	for _, nr := range ve.added {
		for _, u := range nr.uppers {
			if err := c.nodeIx.PutV(ve.doc, newVer, u, nr.rid); err != nil {
				return err
			}
		}
	}
	return c.setVersion(ve.doc, newVer)
}

// Vacuum discards versions older than keep, reclaiming rows no remaining
// version references. Callers must ensure no reader still uses versions
// below keep.
func (c *Collection) Vacuum(doc xml.DocID, keep uint64) (err error) {
	defer func() { c.db.noteWriteErr(err) }()
	if err := c.db.checkWritable(); err != nil {
		return err
	}
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
