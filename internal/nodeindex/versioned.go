package nodeindex

import (
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
	e, err := ix.tree.Ceiling(VKey(doc, snapshot, nodeid.Root))
	if err != nil {
		if errors.Is(err, btree.ErrNotFound) {
			return 0, fmt.Errorf("%w: doc %d at snapshot %d", ErrNotFound, doc, snapshot)
		}
		return 0, err
	}
	d, w, _, err := SplitVKey(e.Key)
	if err != nil {
		return 0, err
	}
	if d != doc {
		return 0, fmt.Errorf("%w: doc %d at snapshot %d", ErrNotFound, doc, snapshot)
	}
	return w, nil
}

// LookupV finds the record containing (doc, id) as of the snapshot version.
func (ix *Index) LookupV(doc xml.DocID, snapshot uint64, id nodeid.ID) (heap.RID, error) {
	w, err := ix.VisibleVersion(doc, snapshot)
	if err != nil {
		return heap.InvalidRID, err
	}
	e, err := ix.tree.Ceiling(VKey(doc, w, id))
	if err != nil {
		if errors.Is(err, btree.ErrNotFound) {
			return heap.InvalidRID, fmt.Errorf("%w: doc %d node %s @%d", ErrNotFound, doc, id, w)
		}
		return heap.InvalidRID, err
	}
	d, ver, _, err := SplitVKey(e.Key)
	if err != nil {
		return heap.InvalidRID, err
	}
	if d != doc || ver != w {
		return heap.InvalidRID, fmt.Errorf("%w: doc %d node %s @%d", ErrNotFound, doc, id, w)
	}
	return heap.RIDFromBytes(e.Value), nil
}

// ScanVersion visits the entries of exactly the given version, in node
// order.
func (ix *Index) ScanVersion(doc xml.DocID, ver uint64, fn func(upper nodeid.ID, rid heap.RID) bool) error {
	lo := VKey(doc, ver, nodeid.Root)
	hi := VKey(doc, ver-1, nodeid.Root) // ^(ver-1) > ^ver: next key group
	return ix.tree.Scan(lo, hi, func(e btree.Entry) bool {
		_, _, id, err := SplitVKey(e.Key)
		if err != nil {
			return false
		}
		return fn(id, heap.RIDFromBytes(e.Value))
	})
}

// DropVersionsBefore removes entries of versions older than keep, returning
// the RIDs still referenced by remaining versions and those released.
func (ix *Index) DropVersionsBefore(doc xml.DocID, keep uint64) (kept, released map[heap.RID]bool, err error) {
	var dropKeys [][]byte
	kept = map[heap.RID]bool{}
	dropRIDs := map[heap.RID]bool{}
	lo := VKey(doc, ^uint64(0), nodeid.Root) // newest version first
	hi := VKey(doc+1, ^uint64(0), nodeid.Root)
	err = ix.tree.Scan(lo, hi, func(e btree.Entry) bool {
		_, ver, _, err := SplitVKey(e.Key)
		if err != nil {
			return false
		}
		rid := heap.RIDFromBytes(e.Value)
		if ver < keep {
			dropKeys = append(dropKeys, e.Key)
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
