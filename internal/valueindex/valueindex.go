// Package valueindex implements the XPath value indexes of §3.3: a B+tree
// whose entries are (keyval, DocID, NodeID, RID), mapping the typed value of
// nodes identified by a simple XPath expression to their logical position
// (DocID, NodeID) and physical record position (RID). Unlike relational
// indexes, a single record yields zero, one or many entries.
//
// Key values are converted from node string values to the index's declared
// type (§3.3: "a few simple types supported, such as double, string, and
// date" — plus the §4.3 IEEE-754r-style decimal); nodes whose value does not
// convert are simply not indexed, matching XPath comparison semantics (they
// could never satisfy a typed predicate).
package valueindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"rx/internal/btree"
	"rx/internal/buffer"
	"rx/internal/heap"
	"rx/internal/keycodec"
	"rx/internal/nodeid"
	"rx/internal/pagestore"
	"rx/internal/xml"
	"rx/internal/xpath"
)

// MaxStringKey bounds string key values, like the SQL VARCHAR(n) the paper
// maps string keys to. Longer values are truncated for the key (the engine
// re-checks exact predicates on truncation-length values).
const MaxStringKey = 256

// ErrNotIndexable reports a value that cannot be converted to the index's
// key type.
var ErrNotIndexable = errors.New("valueindex: value not indexable under the index type")

// Index is one open XPath value index.
type Index struct {
	tree *btree.Tree
	typ  xml.TypeID
	path *xpath.Query
}

// Create makes a new empty index for the given simple path and key type.
func Create(pool *buffer.Pool, pathExpr string, typ xml.TypeID) (*Index, error) {
	q, err := xpath.Parse(pathExpr)
	if err != nil {
		return nil, err
	}
	if err := CheckPath(q); err != nil {
		return nil, err
	}
	switch typ {
	case xml.TString, xml.TDouble, xml.TDate, xml.TDecimal:
	default:
		return nil, fmt.Errorf("valueindex: unsupported key type %v", typ)
	}
	t, err := btree.Create(pool)
	if err != nil {
		return nil, err
	}
	return &Index{tree: t, typ: typ, path: q}, nil
}

// Open attaches to an existing index.
func Open(pool *buffer.Pool, meta pagestore.PageID, pathExpr string, typ xml.TypeID) (*Index, error) {
	q, err := xpath.Parse(pathExpr)
	if err != nil {
		return nil, err
	}
	t, err := btree.Open(pool, meta)
	if err != nil {
		return nil, err
	}
	return &Index{tree: t, typ: typ, path: q}, nil
}

// CheckPath enforces §3.3: value index paths are simple XPath expressions
// without predicates.
func CheckPath(q *xpath.Query) error {
	if !q.Rooted {
		return errors.New("valueindex: index path must be rooted")
	}
	for s := q.Steps; s != nil; s = s.Next {
		if len(s.Preds) > 0 {
			return errors.New("valueindex: index path must not contain predicates")
		}
		if s.Axis == xpath.Self {
			return errors.New("valueindex: self axis not allowed in index path")
		}
	}
	return nil
}

// MetaPage returns the index's durable identity.
func (ix *Index) MetaPage() pagestore.PageID { return ix.tree.MetaPage() }

// Path returns the parsed index path.
func (ix *Index) Path() *xpath.Query { return ix.path }

// Type returns the key type.
func (ix *Index) Type() xml.TypeID { return ix.typ }

// Tree exposes the underlying B+tree (stats, tests, and the bulk loader's
// sorted runs of AppendEntryKey entries).
func (ix *Index) Tree() *btree.Tree { return ix.tree }

// EncodeValue converts a node's string value to an order-preserving key
// prefix under the index's type, or ErrNotIndexable.
func (ix *Index) EncodeValue(raw []byte) ([]byte, error) {
	return EncodeTyped(ix.typ, raw)
}

// EncodeTyped converts a string value under a key type.
func EncodeTyped(typ xml.TypeID, raw []byte) ([]byte, error) {
	return EncodeTypedInto(nil, typ, raw)
}

// EncodeTypedInto is EncodeTyped appending into dst (which may be arena
// scratch; growth past its capacity falls back to the Go heap).
func EncodeTypedInto(dst []byte, typ xml.TypeID, raw []byte) ([]byte, error) {
	switch typ {
	case xml.TString:
		s := string(raw)
		if len(s) > MaxStringKey {
			s = s[:MaxStringKey]
		}
		return keycodec.String(dst, s), nil
	case xml.TDouble:
		v, err := strconv.ParseFloat(strings.TrimSpace(string(raw)), 64)
		if err != nil {
			return nil, fmt.Errorf("%w: %q as double", ErrNotIndexable, raw)
		}
		enc, err := keycodec.Float64(dst, v)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNotIndexable, err)
		}
		return enc, nil
	case xml.TDate:
		enc, err := keycodec.Date(dst, string(raw))
		if err != nil {
			return nil, fmt.Errorf("%w: %q as date", ErrNotIndexable, raw)
		}
		return enc, nil
	case xml.TDecimal:
		d, err := keycodec.ParseDecimal(string(raw))
		if err != nil {
			return nil, fmt.Errorf("%w: %q as decimal", ErrNotIndexable, raw)
		}
		return keycodec.EncodeDecimal(dst, d), nil
	}
	return nil, fmt.Errorf("valueindex: unsupported type %v", typ)
}

// entryKey assembles (keyval, DocID, NodeID).
func entryKey(encVal []byte, doc xml.DocID, id nodeid.ID) []byte {
	k := make([]byte, 0, len(encVal)+8+len(id))
	k = append(k, encVal...)
	var d [8]byte
	binary.BigEndian.PutUint64(d[:], uint64(doc))
	k = append(k, d[:]...)
	return append(k, id...)
}

// AppendEntryKey assembles the full (encoded value, DocID, NodeID) entry key,
// appending into dst (arena scratch friendly). Exported for the bulk loader,
// which sorts assembled keys and hands them to the tree's PutSorted.
func AppendEntryKey(dst []byte, encVal []byte, doc xml.DocID, id nodeid.ID) []byte {
	k := append(dst, encVal...)
	var d [8]byte
	binary.BigEndian.PutUint64(d[:], uint64(doc))
	k = append(k, d[:]...)
	return append(k, id...)
}

// Put inserts an entry for a node's value. Unconvertible values return
// ErrNotIndexable (callers skip them).
func (ix *Index) Put(raw []byte, doc xml.DocID, id nodeid.ID, rid heap.RID) error {
	enc, err := ix.EncodeValue(raw)
	if err != nil {
		return err
	}
	return ix.tree.Put(entryKey(enc, doc, id), rid.Bytes())
}

// Delete removes the entry for a node's value.
func (ix *Index) Delete(raw []byte, doc xml.DocID, id nodeid.ID) error {
	enc, err := ix.EncodeValue(raw)
	if err != nil {
		return err
	}
	return ix.tree.Delete(entryKey(enc, doc, id))
}

// Entry is one decoded index entry.
type Entry struct {
	Doc  xml.DocID
	Node nodeid.ID
	RID  heap.RID
	// EncodedValue is the order-preserving key-value prefix of the entry.
	EncodedValue []byte
}

// Range describes a key-value range derived from a comparison predicate.
type Range struct {
	// Lo/Hi are encoded value bounds; nil means unbounded.
	Lo, Hi []byte
	// LoStrict/HiStrict exclude the bound itself.
	LoStrict, HiStrict bool
}

// RangeForOp builds the scan range for `value op literal` (§4.3 access
// method 1/2). The literal is rendered under the index's type.
func (ix *Index) RangeForOp(op xpath.CmpOp, lit xpath.Literal) (Range, error) {
	var raw string
	if lit.IsNum {
		raw = strconv.FormatFloat(lit.Num, 'f', -1, 64)
	} else {
		raw = lit.Str
	}
	enc, err := EncodeTyped(ix.typ, []byte(raw))
	if err != nil {
		return Range{}, err
	}
	switch op {
	case xpath.EQ:
		return Range{Lo: enc, Hi: enc}, nil
	case xpath.LT:
		return Range{Hi: enc, HiStrict: true}, nil
	case xpath.LE:
		return Range{Hi: enc}, nil
	case xpath.GT:
		return Range{Lo: enc, LoStrict: true}, nil
	case xpath.GE:
		return Range{Lo: enc}, nil
	default:
		return Range{}, fmt.Errorf("valueindex: operator %v has no index range", op)
	}
}

// keyBounds converts the range to the [from, to) bounds of its entries'
// keys, for Scan and Estimate alike. Value encodings are prefix-free, so an
// entry's key lies in [v, succ(v)) exactly when its value is v, succ being
// the prefix successor: a strict Lo starts at succ(Lo), an inclusive Hi ends
// there.
func (r Range) keyBounds() (from, to []byte) {
	from, to = r.Lo, r.Hi
	if r.Lo != nil && r.LoStrict {
		if from = prefixSuccessor(r.Lo); from == nil {
			return r.Lo, r.Lo // no key passes an all-0xFF Lo
		}
	}
	if r.Hi != nil && !r.HiStrict {
		to = prefixSuccessor(r.Hi) // nil, unbounded, for an all-0xFF Hi
	}
	return from, to
}

// prefixSuccessor returns the least key above every key that starts with p,
// or nil when there is none (p is all 0xFF).
func prefixSuccessor(p []byte) []byte {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0xFF {
			s := append([]byte(nil), p[:i+1]...)
			s[i]++
			return s
		}
	}
	return nil
}

// Scan visits entries whose value falls in the range, in (value, doc, node)
// order. fn returning false stops the scan. A malformed entry fails the scan:
// stopping there quietly would hand the caller a truncated range as if it were
// the whole one. The entry's Node and EncodedValue are borrowed from the index
// leaf (btree.Tree.Scan): fn copies them to keep them.
func (ix *Index) Scan(r Range, fn func(e Entry) bool) error {
	from, to := r.keyBounds()
	var bad error
	err := ix.tree.Scan(from, to, func(be btree.Entry) bool {
		encVal, doc, id, err := ix.splitKey(be.Key)
		if err != nil {
			bad = err
			return false
		}
		return fn(Entry{Doc: doc, Node: id, RID: heap.RIDFromBytes(be.Value), EncodedValue: encVal})
	})
	if err == nil {
		err = bad
	}
	return err
}

// Estimate estimates how many entries Scan(r) visits, from a dive to each
// end of the range in the B+tree (btree.Tree.EstimateRange).
func (ix *Index) Estimate(r Range) (float64, error) {
	from, to := r.keyBounds()
	return ix.tree.EstimateRange(from, to)
}

// splitKey separates the value prefix from (doc, node). The value encoding
// is self-delimiting per type.
func (ix *Index) splitKey(k []byte) ([]byte, xml.DocID, nodeid.ID, error) {
	var valLen int
	switch ix.typ {
	case xml.TString:
		rest, err := keycodec.SkipString(k)
		if err != nil {
			return nil, 0, nil, err
		}
		valLen = len(k) - len(rest)
	case xml.TDouble, xml.TDate:
		valLen = 8
	case xml.TDecimal:
		_, rest, err := keycodec.DecodeDecimal(k)
		if err != nil {
			return nil, 0, nil, err
		}
		valLen = len(k) - len(rest)
	}
	if len(k) < valLen+8 {
		return nil, 0, nil, errors.New("valueindex: short key")
	}
	doc := xml.DocID(binary.BigEndian.Uint64(k[valLen:]))
	id := nodeid.ID(k[valLen+8:])
	return k[:valLen], doc, id, nil
}

// DeleteValue removes every entry of the document whose node has the value
// raw, whatever the node's ID, and returns how many it removed: one bounded
// scan of the (value, DocID) key prefix, for callers that know a document's
// values but not the IDs its nodes are stored under.
func (ix *Index) DeleteValue(raw []byte, doc xml.DocID) (int, error) {
	enc, err := ix.EncodeValue(raw)
	if err != nil {
		return 0, err
	}
	var keys [][]byte // copied out: the deletes reuse the leaves' frames
	err = ix.tree.Scan(entryKey(enc, doc, nil), entryKey(enc, doc+1, nil), func(be btree.Entry) bool {
		keys = append(keys, bytes.Clone(be.Key))
		return true
	})
	if err != nil {
		return 0, err
	}
	for _, k := range keys {
		if err := ix.tree.Delete(k); err != nil {
			return 0, err
		}
	}
	return len(keys), nil
}

// Count returns the number of entries.
func (ix *Index) Count() (int, error) { return ix.tree.Count() }
