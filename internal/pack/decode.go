package pack

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rx/internal/arena"
	"rx/internal/nodeid"
	"rx/internal/xml"
)

// ErrCorrupt reports a malformed packed record.
var ErrCorrupt = errors.New("pack: corrupt record")

// Record is a decoded record header plus its (still encoded) node body.
// Records are self-contained (§3.1): the header carries the context node's
// absolute ID, its path from the root, and the namespaces in scope, so a
// record reached directly from an XPath value index can be interpreted
// without touching its ancestors.
type Record struct {
	// ContextID is the absolute node ID of the common parent of the
	// record's top-level subtrees (empty = the document node).
	ContextID nodeid.ID
	// Sig is the root record's element-name signature: xml.SigBit of the
	// local name of every element in the document, OR-ed — a superset,
	// since an edit that deletes elements leaves their bits set, but never
	// missing one. A query that needs a bit Sig lacks cannot match the
	// document. Zero in every other record.
	Sig uint64
	// Path holds the element names from the root element to the context
	// node, one per level (empty for the root record).
	Path []xml.QName
	// NS holds the namespace bindings in scope at the context node.
	NS []NSBinding
	// SubtreeCount is the number of top-level entries in the record body.
	SubtreeCount int

	body []byte
}

// Node is a decoded view of one node (or proxy) inside a record.
type Node struct {
	Kind xml.Kind
	// Rel is the node's relative ID; Abs its absolute ID.
	Rel nodeid.Rel
	Abs nodeid.ID
	// Name is the element/attribute name; for PIs the target is Name.Local;
	// for namespace nodes Name.Local holds the prefix and Name.URI the URI.
	Name xml.QName
	Type xml.TypeID
	// Value is the attribute/text/comment/PI value (aliases the record).
	Value []byte
	// EntryCount and BodyLen describe an element's encoded children.
	EntryCount int
	BodyLen    int
	// ProxyCount is the number of subtrees a proxy stands for.
	ProxyCount int

	// start and end delimit the node's full encoding in the record body;
	// bodyStart is where an element's children begin.
	start, end, bodyStart int
}

// IsProxy reports whether the node is a placeholder for subtrees stored in
// another record.
func (n *Node) IsProxy() bool { return n.Kind == xml.Proxy }

// Detach copies the record's borrowed byte ranges (ContextID and the encoded
// body) into owned memory — one buffer, one copy of the record — so the
// record stays valid after the underlying buffer-pool frame is released.
// Offsets are preserved: Nodes decoded after a Detach are indistinguishable
// from ones decoded before it, but Nodes decoded BEFORE the Detach keep
// aliases (Rel, Value) into the old buffer. The walker uses nothing of a
// pre-detach Node but its scalar fields, and re-derives the node's Abs from
// its ID stack.
func (r *Record) Detach() {
	buf := make([]byte, len(r.ContextID)+len(r.body))
	n := copy(buf, r.ContextID)
	copy(buf[n:], r.body)
	r.ContextID, r.body = nodeid.ID(buf[:n:n]), buf[n:]
}

// Decode parses a record payload.
func Decode(payload []byte) (*Record, error) {
	r := new(Record)
	if err := DecodeInto(r, payload); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeInto parses a record payload into r, overwriting it and reusing the
// capacity of its Path and NS, so a reader that decodes one record after
// another keeps one Record. On error r is left partly overwritten.
func DecodeInto(r *Record, payload []byte) error {
	d := decoder{buf: payload}
	ctxLen, err := d.uvarint()
	if err != nil {
		return err
	}
	if !d.fits(ctxLen) {
		return ErrCorrupt
	}
	r.ContextID = nodeid.ID(payload[d.pos : d.pos+int(ctxLen)])
	d.pos += int(ctxLen)
	r.Sig, r.Path, r.NS = 0, r.Path[:0], r.NS[:0]
	if ctxLen == 0 {
		// The root record: a signature where other records keep the
		// context's path and namespaces.
		if r.Sig, err = d.uvarint(); err != nil {
			return err
		}
	} else if err := r.decodeContext(&d); err != nil {
		return err
	}
	cnt, err := d.uvarint()
	if err != nil {
		return err
	}
	r.SubtreeCount = int(cnt)
	r.body = payload[d.pos:]
	return nil
}

// decodeContext reads a run record's context path and in-scope namespaces.
func (r *Record) decodeContext(d *decoder) error {
	pathLen, err := d.uvarint()
	if err != nil {
		return err
	}
	for i := 0; i < int(pathLen); i++ {
		uri, err := d.uvarint()
		if err != nil {
			return err
		}
		local, err := d.uvarint()
		if err != nil {
			return err
		}
		r.Path = append(r.Path, xml.QName{URI: xml.NameID(uri), Local: xml.NameID(local)})
	}
	nsLen, err := d.uvarint()
	if err != nil {
		return err
	}
	for i := 0; i < int(nsLen); i++ {
		p, err := d.uvarint()
		if err != nil {
			return err
		}
		u, err := d.uvarint()
		if err != nil {
			return err
		}
		r.NS = append(r.NS, NSBinding{Prefix: xml.NameID(p), URI: xml.NameID(u)})
	}
	return nil
}

type decoder struct {
	buf []byte
	pos int
}

// byte1 reads a one-byte uvarint — most fields are: name and type IDs,
// counts, short lengths. It is small enough to inline; ok is false when the
// field is longer or the buffer ends, and the caller falls back to uvarint.
func (d *decoder) byte1() (uint64, bool) {
	if p := d.pos; p < len(d.buf) && d.buf[p] < 0x80 {
		d.pos++
		return uint64(d.buf[p]), true
	}
	return 0, false
}

// uvarint reads one uvarint of any length; a truncated or overlong one is
// ErrCorrupt.
func (d *decoder) uvarint() (uint64, error) {
	if v, ok := d.byte1(); ok {
		return v, nil
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, ErrCorrupt
	}
	d.pos += n
	return v, nil
}

// fits reports whether n bytes remain after the read position. The
// comparison is unsigned: a length that would overflow int is too long, not
// negative.
func (d *decoder) fits(n uint64) bool { return n <= uint64(len(d.buf)-d.pos) }

// relID scans a self-terminating relative node ID.
func (d *decoder) relID() (nodeid.Rel, error) {
	start := d.pos
	for d.pos < len(d.buf) {
		c := d.buf[d.pos]
		d.pos++
		if c%2 == 0 {
			if c == 0 {
				return nil, ErrCorrupt
			}
			return nodeid.Rel(d.buf[start:d.pos]), nil
		}
	}
	return nil, ErrCorrupt
}

// DecodeNodeAt decodes the node starting at offset off in the record body,
// under the given parent absolute ID. Returns the node; n.end is the offset
// just past the node's entire encoding (including element children). The
// node's Abs is freshly allocated and owned by the caller — this is the
// entry for point lookups and edits, which keep nodes; traversals decode in
// place and synthesize IDs on a nodeid.Stack instead.
func (r *Record) DecodeNodeAt(off int, parentAbs nodeid.ID) (Node, error) {
	var n Node
	if err := r.decodeNodeAt(&n, off); err != nil {
		return Node{}, err
	}
	n.Abs = nodeid.Append(parentAbs, n.Rel)
	return n, nil
}

// decodeNodeAt decodes the node entry at offset off into *n, overwriting
// every field except Abs (the caller knows the parent; the entry does not).
// It is the one routine that understands a node entry's layout. Fields are
// assigned one by one so that reusing a scratch Node costs no struct copy.
func (r *Record) decodeNodeAt(n *Node, off int) error {
	d := decoder{buf: r.body, pos: off}
	if d.pos >= len(d.buf) {
		return ErrCorrupt
	}
	kind := xml.Kind(d.buf[d.pos])
	d.pos++
	rel, err := d.relID()
	if err != nil {
		return err
	}
	n.Kind = kind
	n.Rel = rel
	n.Name = xml.QName{}
	n.Type = 0
	n.Value = nil
	n.EntryCount = 0
	n.BodyLen = 0
	n.ProxyCount = 0
	n.start = off
	n.bodyStart = 0
	switch kind {
	case xml.Element:
		var uri, local, typ, ec uint64
		if h := d.buf[d.pos:]; len(h) >= 4 && (h[0]|h[1]|h[2]|h[3])&0x80 == 0 {
			// The usual header: name, type and entry count one byte each,
			// checked at once. The body length is often longer.
			uri, local, typ, ec = uint64(h[0]), uint64(h[1]), uint64(h[2]), uint64(h[3])
			d.pos += 4
		} else if err := d.fields(&uri, &local, &typ, &ec); err != nil {
			return err
		}
		bl, ok := d.byte1()
		if !ok {
			if bl, err = d.uvarint(); err != nil {
				return err
			}
		}
		n.Name = xml.QName{URI: xml.NameID(uri), Local: xml.NameID(local)}
		n.Type = xml.TypeID(typ)
		n.EntryCount = int(ec)
		n.BodyLen = int(bl)
		if !d.fits(bl) {
			return ErrCorrupt
		}
		n.bodyStart = d.pos
		n.end = d.pos + int(bl)
		return nil
	case xml.Attribute:
		var uri, local, typ uint64
		if h := d.buf[d.pos:]; len(h) >= 3 && (h[0]|h[1]|h[2])&0x80 == 0 {
			uri, local, typ = uint64(h[0]), uint64(h[1]), uint64(h[2])
			d.pos += 3
		} else if err := d.fields(&uri, &local, &typ); err != nil {
			return err
		}
		n.Name = xml.QName{URI: xml.NameID(uri), Local: xml.NameID(local)}
		n.Type = xml.TypeID(typ)
		if n.Value, err = d.value(); err != nil {
			return err
		}
	case xml.Text:
		typ, ok := d.byte1()
		if !ok {
			if typ, err = d.uvarint(); err != nil {
				return err
			}
		}
		n.Type = xml.TypeID(typ)
		if n.Value, err = d.value(); err != nil {
			return err
		}
	case xml.Comment:
		if n.Value, err = d.value(); err != nil {
			return err
		}
	case xml.ProcessingInstruction:
		target, err := d.uvarint()
		if err != nil {
			return err
		}
		n.Name = xml.QName{Local: xml.NameID(target)}
		if n.Value, err = d.value(); err != nil {
			return err
		}
	case xml.Namespace:
		p, err := d.uvarint()
		if err != nil {
			return err
		}
		u, err := d.uvarint()
		if err != nil {
			return err
		}
		n.Name = xml.QName{URI: xml.NameID(u), Local: xml.NameID(p)}
	case xml.Proxy:
		cnt, err := d.uvarint()
		if err != nil {
			return err
		}
		n.ProxyCount = int(cnt)
	default:
		return fmt.Errorf("%w: node kind %d at %d", ErrCorrupt, kind, off)
	}
	n.end = d.pos
	return nil
}

// fields reads consecutive uvarints one by one: the path for an element or
// attribute header with a multi-byte field or too few bytes left.
func (d *decoder) fields(vs ...*uint64) error {
	for _, v := range vs {
		x, err := d.uvarint()
		if err != nil {
			return err
		}
		*v = x
	}
	return nil
}

// value reads a length-prefixed value, aliased into the buffer.
func (d *decoder) value() ([]byte, error) {
	l, ok := d.byte1()
	if !ok {
		var err error
		if l, err = d.uvarint(); err != nil {
			return nil, err
		}
	}
	if !d.fits(l) {
		return nil, ErrCorrupt
	}
	v := d.buf[d.pos : d.pos+int(l)]
	d.pos += int(l)
	return v, nil
}

// Find locates the node with absolute ID target within this record,
// descending from the top-level subtrees. If the path descends into a proxy,
// Find returns the proxy node and found=false (the caller resolves it via
// the NodeID index). If the target does not exist, found=false and node.Kind
// is zero. When ancestors is non-nil, the names of the elements the descent
// passes through — target's ancestors inside this record, outermost first —
// are appended to it; with the header's Path before them they name every
// ancestor of target (§3.1: a record is self-contained).
func (r *Record) Find(target nodeid.ID, ancestors *[]xml.QName) (Node, bool, error) {
	if !nodeid.IsAncestorOrSelf(r.ContextID, target) {
		return Node{}, false, fmt.Errorf("%w: target %s outside record context %s", ErrCorrupt, target, r.ContextID)
	}
	off, entries, parent := 0, r.SubtreeCount, r.ContextID
	for {
		// Scan one sibling list for the entry containing target.
		var cur Node
		curSet := false
	siblings:
		for i := 0; i < entries; i++ {
			n, err := r.DecodeNodeAt(off, parent)
			if err != nil {
				return Node{}, false, err
			}
			off = n.end
			switch {
			case n.IsProxy():
				// The proxy covers [its ID .. next sibling); conservatively
				// match if target is >= proxy start. Correct resolution is
				// decided by the caller through the NodeID index, so only
				// remember it if nothing better follows.
				if nodeid.Compare(n.Abs, target) <= 0 {
					cur, curSet = n, true
				}
			case nodeid.IsAncestorOrSelf(n.Abs, target):
				cur, curSet = n, true
				break siblings
			case nodeid.Compare(n.Abs, target) > 0:
				break siblings // past it
			}
		}
		switch {
		case !curSet:
			return Node{}, false, nil
		case cur.IsProxy():
			return cur, false, nil
		case nodeid.Equal(cur.Abs, target):
			return cur, true, nil
		case cur.Kind != xml.Element:
			return Node{}, false, nil
		}
		if ancestors != nil {
			*ancestors = append(*ancestors, cur.Name)
		}
		off, entries, parent = cur.bodyStart, cur.EntryCount, cur.Abs
	}
}

// Intervals computes the record's contiguous node-ID intervals, returning
// the ascending list of interval upper endpoints and the record's minimum
// node ID. Proxies break intervals: the nodes they stand for live in another
// record (§3.1: "for each contiguous interval of node IDs for nodes within a
// record in document order, only one entry is in the node ID index").
func (r *Record) Intervals() ([]nodeid.ID, nodeid.ID, error) {
	return r.intervals(nil, new(intervalScratch))
}

// intervalScratch is the reusable state of an intervals pass: the decode
// slot, the current node's ID and a copy of the last real node's.
type intervalScratch struct {
	n    Node
	ids  nodeid.Stack
	last []byte
}

// intervals is Intervals with every returned node ID allocated from the
// arena when one is given (valid until the arena's next Reset). Only the
// returned IDs are allocated: the pass decodes in place and keeps the
// current ID in sc.
func (r *Record) intervals(a *arena.Arena, sc *intervalScratch) ([]nodeid.ID, nodeid.ID, error) {
	var uppers []nodeid.ID
	var minID nodeid.ID
	inInterval := false // sc.last is the last real node ID of an open interval
	n, ids := &sc.n, &sc.ids
	ids.Reset(r.ContextID)
	if sc.last == nil {
		sc.last = a.Make(len(r.ContextID) + 32)
	}

	var walk func(off, entries int) error
	walk = func(off, entries int) error {
		for i := 0; i < entries; i++ {
			if err := r.decodeNodeAt(n, off); err != nil {
				return err
			}
			off = n.end
			if n.IsProxy() {
				if inInterval {
					uppers = append(uppers, cloneID(a, sc.last))
					inInterval = false
				}
				continue
			}
			abs := ids.Push(n.Rel)
			if minID == nil {
				minID = cloneID(a, abs)
			}
			sc.last = append(sc.last[:0], abs...)
			inInterval = true
			if n.Kind == xml.Element && n.EntryCount > 0 {
				ids.Descend()
				if err := walk(n.bodyStart, n.EntryCount); err != nil {
					return err
				}
				ids.Ascend()
			}
		}
		return nil
	}
	if err := walk(0, r.SubtreeCount); err != nil {
		return nil, nil, err
	}
	if inInterval {
		uppers = append(uppers, cloneID(a, sc.last))
	}
	return uppers, minID, nil
}

// cloneID copies an ID, from the arena when one is given.
func cloneID(a *arena.Arena, id nodeid.ID) nodeid.ID {
	if a == nil {
		return nodeid.Clone(id)
	}
	return nodeid.ID(append(a.Make(len(id)), id...))
}

// CountNodes returns the number of real nodes stored in the record.
func (r *Record) CountNodes() (int, error) {
	count := 0
	var n Node
	var walk func(off, entries int) error
	walk = func(off, entries int) error {
		for i := 0; i < entries; i++ {
			if err := r.decodeNodeAt(&n, off); err != nil {
				return err
			}
			off = n.end
			if !n.IsProxy() {
				count++
				if n.Kind == xml.Element && n.EntryCount > 0 {
					if err := walk(n.bodyStart, n.EntryCount); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	err := walk(0, r.SubtreeCount)
	return count, err
}
