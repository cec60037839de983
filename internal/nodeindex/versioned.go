package nodeindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"rx/internal/btree"
	"rx/internal/heap"
	"rx/internal/nodeid"
	"rx/internal/xml"
)

// Versioned NodeID index entries (§5.1): "with versioning, the entries will
// also include a version number, i.e. ... (DocID, ver#, NodeID, RID), with
// ver# in descending order. This will guarantee a reader's deferred access
// to be successful." Every version writes a complete entry set for the
// document, so a reader pinned to snapshot version V resolves the newest
// version W <= V with a single successor search and then looks nodes up
// within W.
//
// The descending order is realized by keying with the bitwise complement of
// the version number.

// VKey builds the composite (DocID, ^ver, NodeID) key.
func VKey(doc xml.DocID, ver uint64, id nodeid.ID) []byte {
	return AppendVKey(make([]byte, 0, 16+len(id)), doc, ver, id)
}

// AppendVKey appends the composite (DocID, ^ver, NodeID) key to dst.
func AppendVKey(dst []byte, doc xml.DocID, ver uint64, id nodeid.ID) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(doc))
	return append(binary.BigEndian.AppendUint64(dst, ^ver), id...)
}

// SplitVKey decomposes a versioned key.
func SplitVKey(k []byte) (xml.DocID, uint64, nodeid.ID, error) {
	if len(k) < 16 {
		return 0, 0, nil, errors.New("nodeindex: short versioned key")
	}
	return xml.DocID(binary.BigEndian.Uint64(k)),
		^binary.BigEndian.Uint64(k[8:16]),
		nodeid.ID(k[16:]), nil
}

// PutV inserts an interval entry under a version.
func (ix *Index) PutV(doc xml.DocID, ver uint64, upper nodeid.ID, rid heap.RID) error {
	return ix.tree.Put(VKey(doc, ver, upper), rid.Bytes())
}

// VisibleVersion resolves the newest version <= snapshot for the document,
// or ErrNotFound if none exists.
func (ix *Index) VisibleVersion(doc xml.DocID, snapshot uint64) (uint64, error) {
	var kb [keyBuf]byte
	ver, found := uint64(0), false
	var bad error
	err := ix.tree.Ceiling(AppendVKey(kb[:0], doc, snapshot, nodeid.Root), func(k, _ []byte) {
		var d xml.DocID
		if d, ver, _, bad = SplitVKey(k); bad == nil && d == doc {
			found = true
		}
	})
	if err == nil {
		err = bad
	}
	if err == nil && !found || errors.Is(err, btree.ErrNotFound) {
		return 0, fmt.Errorf("%w: doc %d at snapshot %d", ErrNotFound, doc, snapshot)
	}
	return ver, err
}

// LookupV finds the record containing (doc, id) as of the snapshot version.
func (ix *Index) LookupV(doc xml.DocID, snapshot uint64, id nodeid.ID) (heap.RID, error) {
	w, err := ix.VisibleVersion(doc, snapshot)
	if err != nil {
		return heap.InvalidRID, err
	}
	var kb [keyBuf]byte
	rid, found := heap.InvalidRID, false
	var bad error
	err = ix.tree.Ceiling(AppendVKey(kb[:0], doc, w, id), func(k, v []byte) {
		var d xml.DocID
		var ver uint64
		if d, ver, _, bad = SplitVKey(k); bad == nil && d == doc && ver == w {
			rid, found = heap.RIDFromBytes(v), true
		}
	})
	if err == nil {
		err = bad
	}
	if err == nil && !found || errors.Is(err, btree.ErrNotFound) {
		return heap.InvalidRID, fmt.Errorf("%w: doc %d node %s @%d", ErrNotFound, doc, id, w)
	}
	return rid, err
}

// ScanVersion visits the entries of exactly the given version, in node
// order. upper is borrowed from the index leaf (btree.Tree.Scan): fn copies
// it to keep it.
func (ix *Index) ScanVersion(doc xml.DocID, ver uint64, fn func(upper nodeid.ID, rid heap.RID) bool) error {
	var lo, hi [16]byte
	// ^(ver-1) > ^ver: hi starts the next key group.
	return ix.tree.Scan(AppendVKey(lo[:0], doc, ver, nodeid.Root), AppendVKey(hi[:0], doc, ver-1, nodeid.Root), func(e btree.Entry) bool {
		_, _, id, err := SplitVKey(e.Key)
		if err != nil {
			return false
		}
		return fn(id, heap.RIDFromBytes(e.Value))
	})
}

// DropVersionsBefore removes entries of versions older than keep, returning
// the RIDs still referenced by remaining versions and those released. The
// scan's keys are copied out: the deletes reuse the leaves' frames.
func (ix *Index) DropVersionsBefore(doc xml.DocID, keep uint64) (kept, released map[heap.RID]bool, err error) {
	var dropKeys [][]byte
	kept = map[heap.RID]bool{}
	dropRIDs := map[heap.RID]bool{}
	var lo, hi [16]byte // newest version first
	err = ix.tree.Scan(AppendVKey(lo[:0], doc, ^uint64(0), nodeid.Root), AppendVKey(hi[:0], doc+1, ^uint64(0), nodeid.Root), func(e btree.Entry) bool {
		_, ver, _, err := SplitVKey(e.Key)
		if err != nil {
			return false
		}
		rid := heap.RIDFromBytes(e.Value)
		if ver < keep {
			dropKeys = append(dropKeys, bytes.Clone(e.Key))
			dropRIDs[rid] = true
		} else {
			kept[rid] = true
		}
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	for _, k := range dropKeys {
		if err := ix.tree.Delete(k); err != nil {
			return nil, nil, err
		}
	}
	released = map[heap.RID]bool{}
	for rid := range dropRIDs {
		if !kept[rid] {
			released[rid] = true
		}
	}
	return kept, released, nil
}
