// Package shred is the baseline storage strategy the §3.1 analysis compares
// tree packing against: one relational row per XML node (the "node/edge
// approach" of Tian et al. [28] in the paper's references). Each node
// becomes a heap row and one B+tree index entry; navigating an edge costs
// an index lookup plus a row fetch — the "one relational join for each
// node" of the paper's traversal model.
//
// The §3.1 model this package lets the experiments verify:
//
//	storage:  k·(n+h)      vs  packed k·(n + h/p)
//	index:    k entries    vs  packed ≤ 2k/p entries
//	traverse: k·t          vs  packed ≈ k·t/p
package shred

import (
	"encoding/binary"
	"errors"

	"rx/internal/arena"
	"rx/internal/btree"
	"rx/internal/buffer"
	"rx/internal/heap"
	"rx/internal/nodeid"
	"rx/internal/tokens"
	"rx/internal/xml"
)

// Store is a one-node-per-row store.
type Store struct {
	pool *buffer.Pool
	tbl  *heap.Table
	ix   *btree.Tree // (DocID, NodeID) -> RID, one entry per node
}

// Create makes an empty store.
func Create(pool *buffer.Pool) (*Store, error) {
	tbl, err := heap.Create(pool)
	if err != nil {
		return nil, err
	}
	ix, err := btree.Create(pool)
	if err != nil {
		return nil, err
	}
	return &Store{pool: pool, tbl: tbl, ix: ix}, nil
}

// Node is one decoded row.
type Node struct {
	ID    nodeid.ID
	Kind  xml.Kind
	Name  xml.QName
	Value []byte
}

func encodeRow(a *arena.Arena, kind xml.Kind, name xml.QName, value []byte) []byte {
	row := append(a.Make(1+2*binary.MaxVarintLen64+len(value)), byte(kind))
	row = binary.AppendUvarint(row, uint64(name.URI))
	row = binary.AppendUvarint(row, uint64(name.Local))
	return append(row, value...)
}

func decodeRow(id nodeid.ID, row []byte) (Node, error) {
	if len(row) < 3 {
		return Node{}, errors.New("shred: short row")
	}
	n := Node{ID: id, Kind: xml.Kind(row[0])}
	p := 1
	uri, c := binary.Uvarint(row[p:])
	if c <= 0 {
		return Node{}, errors.New("shred: corrupt row")
	}
	p += c
	local, c := binary.Uvarint(row[p:])
	if c <= 0 {
		return Node{}, errors.New("shred: corrupt row")
	}
	p += c
	n.Name = xml.QName{URI: xml.NameID(uri), Local: xml.NameID(local)}
	n.Value = row[p:]
	return n, nil
}

func key(a *arena.Arena, doc xml.DocID, id nodeid.ID) []byte {
	k := a.AllocRaw(8 + len(id))[:8]
	binary.BigEndian.PutUint64(k, uint64(doc))
	return append(k, id...)
}

// Insert shreds a token stream into rows (one per node), returning the node
// count.
func (s *Store) Insert(doc xml.DocID, stream []byte) (int, error) {
	// Row and key scratch for the whole document comes from one arena; the
	// heap and B+tree copy on insert, so it all dies together on return.
	a := arena.New()
	r := tokens.NewReader(stream)
	type frame struct {
		abs  nodeid.ID
		next int
	}
	stack := []frame{{abs: nodeid.Root}}
	cur := &stack[0]
	alloc := func() nodeid.ID {
		rel := nodeid.RelAt(cur.next)
		cur.next++
		return nodeid.Append(cur.abs, rel)
	}
	count := 0
	put := func(id nodeid.ID, kind xml.Kind, name xml.QName, value []byte) error {
		rid, err := s.tbl.Insert(encodeRow(a, kind, name, value))
		if err != nil {
			return err
		}
		count++
		return s.ix.Put(key(a, doc, id), rid.Bytes())
	}
	for r.More() {
		t, err := r.Next()
		if err != nil {
			return 0, err
		}
		switch t.Kind {
		case tokens.StartElement:
			id := alloc()
			if err := put(id, xml.Element, t.Name, nil); err != nil {
				return 0, err
			}
			stack = append(stack, frame{abs: id})
			cur = &stack[len(stack)-1]
		case tokens.EndElement:
			stack = stack[:len(stack)-1]
			cur = &stack[len(stack)-1]
		case tokens.Attr:
			if err := put(alloc(), xml.Attribute, t.Name, t.Value); err != nil {
				return 0, err
			}
		case tokens.NSDecl:
			if err := put(alloc(), xml.Namespace, xml.QName{URI: t.URI, Local: t.Prefix}, nil); err != nil {
				return 0, err
			}
		case tokens.Text:
			if err := put(alloc(), xml.Text, xml.QName{}, t.Value); err != nil {
				return 0, err
			}
		case tokens.Comment:
			if err := put(alloc(), xml.Comment, xml.QName{}, t.Value); err != nil {
				return 0, err
			}
		case tokens.PI:
			if err := put(alloc(), xml.ProcessingInstruction, t.Name, t.Value); err != nil {
				return 0, err
			}
		}
	}
	return count, nil
}

// Traverse visits the document's nodes in document order. Each node costs
// one index lookup plus one row fetch — the per-node join of the §3.1
// traversal model (a real system would join the node table with itself per
// edge; the index-seek-per-node is the same access pattern).
func (s *Store) Traverse(doc xml.DocID, fn func(n Node) error) error {
	from := key(nil, doc, nodeid.Root)
	for {
		var rid heap.RID
		err := s.ix.Ceiling(from, func(k, v []byte) {
			// Copied out of the borrowed entry, with room for the re-seek's
			// 0x00: the node's ID and the next search key.
			from = append(make([]byte, 0, len(k)+1), k...)
			rid = heap.RIDFromBytes(v)
		})
		if err != nil {
			if errors.Is(err, btree.ErrNotFound) {
				return nil
			}
			return err
		}
		if xml.DocID(binary.BigEndian.Uint64(from)) != doc {
			return nil
		}
		id := nodeid.ID(from[8:len(from):len(from)])
		row, err := s.tbl.Fetch(rid)
		if err != nil {
			return err
		}
		n, err := decodeRow(id, row)
		if err != nil {
			return err
		}
		if err := fn(n); err != nil {
			return err
		}
		// Re-seek for the successor: the per-node "join".
		from = append(from, 0x00)
	}
}

// Get fetches one node by ID (point navigation).
func (s *Store) Get(doc xml.DocID, id nodeid.ID) (Node, error) {
	v, err := s.ix.Get(key(nil, doc, id))
	if err != nil {
		return Node{}, err
	}
	row, err := s.tbl.Fetch(heap.RIDFromBytes(v))
	if err != nil {
		return Node{}, err
	}
	return decodeRow(id, row)
}

// Stats reports rows, heap pages and index entries for the storage model
// comparison (E1).
func (s *Store) Stats() (rows uint64, pages int, indexEntries int, err error) {
	rows = s.tbl.Count()
	pages, err = s.tbl.Pages()
	if err != nil {
		return 0, 0, 0, err
	}
	indexEntries, err = s.ix.Count()
	return rows, pages, indexEntries, err
}

// Table exposes the node table (experiments).
func (s *Store) Table() *heap.Table { return s.tbl }

// Index exposes the node index (experiments).
func (s *Store) Index() *btree.Tree { return s.ix }
