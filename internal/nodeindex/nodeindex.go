// Package nodeindex implements the NodeID index of §3.1/§3.4: a B+tree that
// maps logical node IDs to physical record IDs. For each contiguous interval
// of node IDs within a record (in document order) there is exactly one
// entry, keyed by the interval's upper endpoint; looking up a node searches
// for the successor key, which lands on the entry of the interval containing
// the node.
//
// Keys are (DocID, upper-endpoint NodeID); values are 6-byte RIDs. The
// versioned variant of §5.1 — (DocID, ver#, NodeID, RID) with ver# ordered
// so newer versions come first — is provided for multiversioning.
package nodeindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"rx/internal/btree"
	"rx/internal/buffer"
	"rx/internal/heap"
	"rx/internal/nodeid"
	"rx/internal/pagestore"
	"rx/internal/xml"
)

// ErrNotFound reports that no interval covers the requested node.
var ErrNotFound = errors.New("nodeindex: node not found")

// Index is a non-versioned NodeID index.
type Index struct {
	tree *btree.Tree
}

// Create makes a new empty index.
func Create(pool *buffer.Pool) (*Index, error) {
	t, err := btree.Create(pool)
	if err != nil {
		return nil, err
	}
	return &Index{tree: t}, nil
}

// Open attaches to an existing index by its meta page.
func Open(pool *buffer.Pool, meta pagestore.PageID) (*Index, error) {
	t, err := btree.Open(pool, meta)
	if err != nil {
		return nil, err
	}
	return &Index{tree: t}, nil
}

// MetaPage returns the index's durable identity.
func (ix *Index) MetaPage() pagestore.PageID { return ix.tree.MetaPage() }

// Tree exposes the underlying B+tree (for stats, and for the bulk loader's
// sorted runs of AppendKey / AppendVKey entries).
func (ix *Index) Tree() *btree.Tree { return ix.tree }

// Key builds the composite (DocID, NodeID) key.
func Key(doc xml.DocID, id nodeid.ID) []byte {
	return AppendKey(make([]byte, 0, 8+len(id)), doc, id)
}

// AppendKey appends the composite (DocID, NodeID) key to dst.
func AppendKey(dst []byte, doc xml.DocID, id nodeid.ID) []byte {
	return append(binary.BigEndian.AppendUint64(dst, uint64(doc)), id...)
}

// keyBuf sizes the stack buffers search keys are built in: a versioned key
// fits for a NodeID of up to 48 bytes, and a longer one spills to the heap.
const keyBuf = 64

// SplitKey decomposes a composite key.
func SplitKey(k []byte) (xml.DocID, nodeid.ID, error) {
	if len(k) < 8 {
		return 0, nil, errors.New("nodeindex: short key")
	}
	return xml.DocID(binary.BigEndian.Uint64(k)), nodeid.ID(k[8:]), nil
}

// Put inserts (or replaces) the entry for an interval upper endpoint.
func (ix *Index) Put(doc xml.DocID, upper nodeid.ID, rid heap.RID) error {
	return ix.tree.Put(Key(doc, upper), rid.Bytes())
}

// Delete removes the entry for an interval upper endpoint.
func (ix *Index) Delete(doc xml.DocID, upper nodeid.ID) error {
	return ix.tree.Delete(Key(doc, upper))
}

// Lookup finds the RID of the record containing (doc, id): the successor
// search of §3.4. It returns ErrNotFound when id is beyond the document's
// last interval.
func (ix *Index) Lookup(doc xml.DocID, id nodeid.ID) (heap.RID, error) {
	var kb [keyBuf]byte
	rid, found := heap.InvalidRID, false
	var bad error
	err := ix.tree.Ceiling(AppendKey(kb[:0], doc, id), func(k, v []byte) {
		var d xml.DocID
		if d, _, bad = SplitKey(k); bad == nil && d == doc {
			rid, found = heap.RIDFromBytes(v), true
		}
	})
	if err == nil {
		err = bad
	}
	if err == nil && !found || errors.Is(err, btree.ErrNotFound) {
		return heap.InvalidRID, fmt.Errorf("%w: doc %d node %s", ErrNotFound, doc, id)
	}
	return rid, err
}

// RootRID returns the record containing the document root (node ID 00),
// which by the successor rule is the record of the first interval.
func (ix *Index) RootRID(doc xml.DocID) (heap.RID, error) {
	return ix.Lookup(doc, nodeid.Root)
}

// DeleteDoc removes every entry for the document — every version, in either
// key layout: nodeid.Root is empty, so the key range [doc, doc+1) holds them
// all — and returns how many it removed. One scan finds them; before the
// first goes, each distinct RID they reference is passed to row, in scan
// order, so a caller can drop the records while the index still finds them.
// The scan's keys are copied out: row and the deletes reuse the leaves'
// frames.
func (ix *Index) DeleteDoc(doc xml.DocID, row func(heap.RID) error) (int, error) {
	var keys [][]byte
	var rids []heap.RID
	seen := map[heap.RID]bool{}
	var lo, hi [8]byte
	err := ix.tree.Scan(AppendKey(lo[:0], doc, nodeid.Root), AppendKey(hi[:0], doc+1, nodeid.Root), func(e btree.Entry) bool {
		keys = append(keys, bytes.Clone(e.Key))
		if rid := heap.RIDFromBytes(e.Value); !seen[rid] {
			seen[rid] = true
			rids = append(rids, rid)
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	for _, rid := range rids {
		if err := row(rid); err != nil {
			return 0, err
		}
	}
	for _, k := range keys {
		if err := ix.tree.Delete(k); err != nil {
			return 0, err
		}
	}
	return len(keys), nil
}

// ScanDoc visits the document's interval entries in node-ID order. upper is
// borrowed from the index leaf (btree.Tree.Scan): fn copies it to keep it.
func (ix *Index) ScanDoc(doc xml.DocID, fn func(upper nodeid.ID, rid heap.RID) bool) error {
	var lo, hi [8]byte
	return ix.tree.Scan(AppendKey(lo[:0], doc, nodeid.Root), AppendKey(hi[:0], doc+1, nodeid.Root), func(e btree.Entry) bool {
		_, id, err := SplitKey(e.Key)
		if err != nil {
			return false
		}
		return fn(id, heap.RIDFromBytes(e.Value))
	})
}

// Count returns the total number of interval entries in the index.
func (ix *Index) Count() (int, error) { return ix.tree.Count() }
