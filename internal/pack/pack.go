// Package pack implements the tree-packing storage scheme of §3.1 (Figure
// 3): XML trees are packed into variable-length records ("XMLData"
// VARBINARY values) using structure nesting for parent-child relationships.
// Each non-leaf node carries its entry count and subtree byte length so a
// traversal can do firstChild/nextSibling and skip whole subtrees without
// decoding them. When a tree outgrows one record, consecutive subtrees that
// share a parent are packed into a separate record bottom-up and replaced by
// a proxy node in the containing record; records are linked only logically,
// through node IDs and the NodeID index — never by physical pointers.
//
// Record layout (all integers uvarint, node IDs self-terminating):
//
//	header:
//	  context node absolute ID (len + bytes) — the common parent of the
//	      record's top-level subtrees ("context node", §3.1)
//	  root record (empty context ID, the document node):
//	    the document's element-name signature (xml.SigBit of every
//	        element's local name, OR-ed)
//	  every other record:
//	    context path: count, then (uri, local) name IDs from root to context
//	    in-scope namespaces at context: count, then (prefix, uri) ID pairs
//	  top-level subtree entry count
//	body: node encodings, recursively nested
//
// Node encodings:
//
//	element:   kind, relID, uri, local, type, entryCount, bodyLen, body
//	attribute: kind, relID, uri, local, type, valueLen, value
//	text:      kind, relID, type, valueLen, value
//	comment:   kind, relID, valueLen, value
//	pi:        kind, relID, target, valueLen, value
//	namespace: kind, relID, prefix, uri
//	proxy:     kind, relID (of first subtree root), subtree count
//
// A proxy stands for a maximal run of consecutive sibling subtrees that were
// packed into exactly one other record.
package pack

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rx/internal/arena"
	"rx/internal/nodeid"
	"rx/internal/tokens"
	"rx/internal/xml"
)

// DefaultThreshold is the default target record payload size. It leaves room
// for the heap's per-record overhead within an 8 KiB page.
const DefaultThreshold = 7700

// NSBinding is one in-scope namespace binding (dictionary-encoded).
type NSBinding struct {
	Prefix xml.NameID
	URI    xml.NameID
}

// EncodedRecord is one packed record ready for storage, along with the
// NodeID-index information derived from it (§3.1: interval upper endpoints).
type EncodedRecord struct {
	// MinNodeID is the smallest node ID contained in the record; together
	// with DocID it is the paper's clustering key (DocID, minNodeID).
	MinNodeID nodeid.ID
	// Intervals holds the upper endpoint of each contiguous node-ID interval
	// in the record, in ascending order. The NodeID index stores one entry
	// per interval.
	Intervals []nodeid.ID
	// Payload is the record bytes (the XMLData column value).
	Payload []byte
}

// Packer packs a token stream into records, emitting completed records
// bottom-up through the emit callback (child records before their parents,
// the root record last).
type Packer struct {
	threshold int
	emit      func(EncodedRecord) error
	// a supplies scratch for node encodings and record payloads; nil falls
	// back to the Go heap. Emitted payloads are copied into heap pages by
	// the storage layer, so the caller may Reset the arena once the
	// document (or batch) is fully inserted.
	a *arena.Arena

	stack []*openElem
	// free recycles closed openElems (and their entries/ns capacity) within
	// the document, so sibling turnover does not allocate.
	free []*openElem
	// rec and sc are finishRecord's scratch — the emitted record decoded
	// back for its node-ID interval pass — reused across records.
	rec Record
	sc  intervalScratch
	// sig accumulates the document's element-name signature; the root
	// record, emitted last, carries it.
	sig  uint64
	err  error
	done bool
}

// newElem takes an openElem from the free list (or allocates one).
func (p *Packer) newElem() *openElem {
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free = p.free[:n-1]
		*e = openElem{ns: e.ns[:0], entries: e.entries[:0]}
		return e
	}
	return &openElem{}
}

// freeElem returns a closed element to the free list. The caller must be
// done with every field, including the entries' encoded bytes (they are
// copied into the parent's encoding or a record payload before the element
// closes).
func (p *Packer) freeElem(e *openElem) { p.free = append(p.free, e) }

// appendID concatenates parent+rel into a fresh absolute ID, from the arena
// when one is set.
func appendID(a *arena.Arena, parent nodeid.ID, rel nodeid.Rel) nodeid.ID {
	if a == nil {
		return nodeid.Append(parent, rel)
	}
	b := a.Make(len(parent) + len(rel))
	b = append(b, parent...)
	return nodeid.ID(append(b, rel...))
}

type openElem struct {
	name    xml.QName
	typ     xml.TypeID
	rel     nodeid.Rel
	abs     nodeid.ID // absolute ID (concatenated once at start; shared prefix)
	ns      []NSBinding
	entries []segment
	size    int // total bytes of entries
	next    int // next child ordinal for RelAt
}

// segment is one completed child entry of an open element: the encoding of a
// whole subtree, or a proxy for flushed subtrees.
type segment struct {
	bytes   []byte
	isProxy bool
	rel     nodeid.Rel // rel ID of (first) subtree root
	count   int        // proxy: number of subtrees represented
}

// NewPacker creates a Packer with the given record-size threshold (the
// packing-factor control of §3.1's analysis; <= 0 means DefaultThreshold).
func NewPacker(threshold int, emit func(EncodedRecord) error) *Packer {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	return &Packer{threshold: threshold, emit: emit}
}

// PackStream packs a whole token stream (one document) with a fresh Packer.
func PackStream(stream []byte, threshold int, emit func(EncodedRecord) error) error {
	return PackStreamArena(stream, threshold, nil, emit)
}

// PackStreamArena is PackStream with node encodings and record payloads
// allocated from a (nil: the Go heap). Payloads handed to emit are valid
// until the arena's next Reset; the storage layer copies them into pages on
// insert, so resetting after the document is stored is safe.
func PackStreamArena(stream []byte, threshold int, a *arena.Arena, emit func(EncodedRecord) error) error {
	p := NewPacker(threshold, emit)
	p.a = a
	r := tokens.NewReader(stream)
	for r.More() {
		t, err := r.Next()
		if err != nil {
			return err
		}
		if err := p.Feed(t); err != nil {
			return err
		}
	}
	return p.Close()
}

// Feed consumes one token.
func (p *Packer) Feed(t *tokens.Token) error {
	if p.err != nil {
		return p.err
	}
	switch t.Kind {
	case tokens.StartDocument:
		if len(p.stack) != 0 {
			return p.fail(errors.New("pack: nested StartDocument"))
		}
		// The document node is the implicit root: open a pseudo-element with
		// the empty absolute ID.
		root := p.newElem()
		root.abs = nodeid.Root
		p.stack = append(p.stack, root)
		p.sig = 0
	case tokens.EndDocument:
		if len(p.stack) != 1 {
			return p.fail(errors.New("pack: EndDocument with open elements"))
		}
		root := p.stack[0]
		p.stack = p.stack[:0]
		p.done = true
		err := p.emitRecord(root, root.entries)
		p.freeElem(root)
		return err
	case tokens.StartElement:
		parent := p.top()
		if parent == nil {
			return p.fail(errors.New("pack: element outside document"))
		}
		rel := nodeid.RelAt(parent.next)
		parent.next++
		e := p.newElem()
		e.name = t.Name
		p.sig |= xml.SigBit(t.Name.Local)
		e.rel = rel
		e.abs = appendID(p.a, parent.abs, rel)
		p.stack = append(p.stack, e)
	case tokens.EndElement:
		if len(p.stack) < 2 {
			return p.fail(errors.New("pack: unmatched EndElement"))
		}
		e := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		// If the element's accumulated content exceeds the threshold, flush
		// runs of leading entries into separate records (bottom-up packing).
		if err := p.reduce(e); err != nil {
			return err
		}
		enc := encodeElement(p.a, e)
		parent := p.top()
		parent.entries = append(parent.entries, segment{bytes: enc, rel: e.rel})
		parent.size += len(enc)
		p.freeElem(e)
	case tokens.Attr:
		e := p.top()
		if e == nil || len(p.stack) < 2 {
			return p.fail(errors.New("pack: attribute outside element"))
		}
		rel := nodeid.RelAt(e.next)
		e.next++
		enc := encodeLeaf(p.a, xml.Attribute, rel, t.Name, t.Type, t.Value, 0, 0)
		e.entries = append(e.entries, segment{bytes: enc, rel: rel})
		e.size += len(enc)
	case tokens.NSDecl:
		e := p.top()
		if e == nil || len(p.stack) < 2 {
			return p.fail(errors.New("pack: namespace outside element"))
		}
		e.ns = append(e.ns, NSBinding{Prefix: t.Prefix, URI: t.URI})
		rel := nodeid.RelAt(e.next)
		e.next++
		enc := encodeNamespace(p.a, rel, t.Prefix, t.URI)
		e.entries = append(e.entries, segment{bytes: enc, rel: rel})
		e.size += len(enc)
	case tokens.Text:
		e := p.top()
		if e == nil {
			return p.fail(errors.New("pack: text outside document"))
		}
		rel := nodeid.RelAt(e.next)
		e.next++
		enc := encodeLeaf(p.a, xml.Text, rel, xml.QName{}, t.Type, t.Value, 0, 0)
		e.entries = append(e.entries, segment{bytes: enc, rel: rel})
		e.size += len(enc)
	case tokens.Comment:
		e := p.top()
		if e == nil {
			return p.fail(errors.New("pack: comment outside document"))
		}
		rel := nodeid.RelAt(e.next)
		e.next++
		enc := encodeLeaf(p.a, xml.Comment, rel, xml.QName{}, 0, t.Value, 0, 0)
		e.entries = append(e.entries, segment{bytes: enc, rel: rel})
		e.size += len(enc)
	case tokens.PI:
		e := p.top()
		if e == nil {
			return p.fail(errors.New("pack: PI outside document"))
		}
		rel := nodeid.RelAt(e.next)
		e.next++
		enc := encodeLeaf(p.a, xml.ProcessingInstruction, rel, t.Name, 0, t.Value, 0, 0)
		e.entries = append(e.entries, segment{bytes: enc, rel: rel})
		e.size += len(enc)
	default:
		return p.fail(fmt.Errorf("pack: unexpected token %v", t.Kind))
	}
	return nil
}

// Close verifies the stream completed. (EndDocument emits the root record.)
func (p *Packer) Close() error {
	if p.err != nil {
		return p.err
	}
	if !p.done {
		return errors.New("pack: incomplete document")
	}
	return nil
}

func (p *Packer) top() *openElem {
	if len(p.stack) == 0 {
		return nil
	}
	return p.stack[len(p.stack)-1]
}

func (p *Packer) fail(err error) error {
	p.err = err
	return err
}

// maxRunBytes bounds a flushed record so it always fits a heap page even
// when the threshold is tiny.
const maxRunBytes = 7600

// reduce flushes leading runs of e's entries into separate records until the
// remaining encoded size fits the threshold. Flushed runs are replaced by
// proxy segments. This is the paper's "simple size-based grouping method".
//
// For extreme fan-outs the run size is scaled up beyond the threshold so
// that the kept proxy list itself stays well under a page (at most ~1000
// proxies): a record must hold either the content or a proxy per run, so a
// parent with hundreds of thousands of children forces larger runs
// regardless of the configured threshold.
func (p *Packer) reduce(e *openElem) error {
	if e.size <= p.threshold {
		return nil
	}
	runTarget := p.threshold
	if t := e.size / 1000; t > runTarget {
		runTarget = t
	}
	if runTarget > maxRunBytes {
		runTarget = maxRunBytes
	}
	var kept []segment
	keptSize, consumed := 0, 0
	i := 0
	for i < len(e.entries) {
		seg := e.entries[i]
		if seg.isProxy {
			kept = append(kept, seg)
			keptSize += len(seg.bytes)
			consumed += len(seg.bytes)
			i++
			continue
		}
		// Stop flushing once what's kept plus what's left already fits.
		remaining := e.size - consumed
		if keptSize+remaining <= p.threshold {
			kept = append(kept, e.entries[i:]...)
			for _, s := range e.entries[i:] {
				keptSize += len(s.bytes)
			}
			break
		}
		// Greedily extend a run of consecutive non-proxy entries up to the
		// run target and flush it as one record.
		runStart := i
		runBytes := 0
		for i < len(e.entries) && !e.entries[i].isProxy && runBytes+len(e.entries[i].bytes) <= runTarget {
			runBytes += len(e.entries[i].bytes)
			i++
		}
		if i == runStart {
			// A single entry larger than the threshold: it cannot be split
			// further (its own subtrees were already reduced), so keep it
			// and let the heap reject it if it exceeds the page.
			kept = append(kept, e.entries[i])
			keptSize += len(e.entries[i].bytes)
			consumed += len(e.entries[i].bytes)
			i++
			continue
		}
		run := e.entries[runStart:i]
		consumed += runBytes
		if err := p.flushRun(e, run); err != nil {
			return err
		}
		proxy := makeProxy(p.a, run)
		kept = append(kept, proxy)
		keptSize += len(proxy.bytes)
	}
	e.entries = kept
	e.size = keptSize
	return nil
}

// flushRun emits one record containing the run's subtrees with e as context.
func (p *Packer) flushRun(e *openElem, run []segment) error {
	path := p.pathTo(e)
	ns := p.inScopeNS(e)
	size := 0
	for _, s := range run {
		size += len(s.bytes)
	}
	payload := p.a.Make(4*maxVar + len(e.abs) + 2*maxVar*(len(path)+len(ns)) + size)
	payload = appendHeader(payload, e.abs, 0, path, ns, len(run))
	for _, s := range run {
		payload = append(payload, s.bytes...)
	}
	rec, err := p.finishRecord(payload)
	if err != nil {
		return p.fail(err)
	}
	return p.emit(rec)
}

// emitRecord emits the root record: context is the document node, and the
// header carries the signature of every element the packer has seen.
func (p *Packer) emitRecord(root *openElem, entries []segment) error {
	size := 0
	for _, s := range entries {
		size += len(s.bytes)
	}
	payload := p.a.Make(3*maxVar + size)
	payload = appendHeader(payload, nodeid.Root, p.sig, nil, nil, len(entries))
	for _, s := range entries {
		payload = append(payload, s.bytes...)
	}
	rec, err := p.finishRecord(payload)
	if err != nil {
		return p.fail(err)
	}
	return p.emit(rec)
}

// pathTo returns the element names from the root element down to e.
func (p *Packer) pathTo(e *openElem) []xml.QName {
	var path []xml.QName
	for _, oe := range p.stack[1:] { // stack[0] is the document pseudo-element
		path = append(path, oe.name)
	}
	return append(path, e.name)
}

// inScopeNS returns the namespace bindings in scope at e (innermost wins).
func (p *Packer) inScopeNS(e *openElem) []NSBinding {
	seen := map[xml.NameID]bool{}
	var out []NSBinding
	add := func(bs []NSBinding) {
		for i := len(bs) - 1; i >= 0; i-- {
			if !seen[bs[i].Prefix] {
				seen[bs[i].Prefix] = true
				out = append(out, bs[i])
			}
		}
	}
	add(e.ns)
	for i := len(p.stack) - 1; i >= 1; i-- {
		add(p.stack[i].ns)
	}
	return out
}

func makeProxy(a *arena.Arena, run []segment) segment {
	count := 0
	for _, s := range run {
		if s.isProxy {
			count += s.count
		} else {
			count++
		}
	}
	b := a.Make(1 + len(run[0].rel) + maxVar)
	b = append(b, byte(xml.Proxy))
	b = append(b, run[0].rel...)
	b = appendUvarint(b, uint64(count))
	return segment{bytes: b, isProxy: true, rel: run[0].rel, count: count}
}

// finishRecord computes MinNodeID and the node-ID intervals of a payload.
func (p *Packer) finishRecord(payload []byte) (EncodedRecord, error) {
	if err := DecodeInto(&p.rec, payload); err != nil {
		return EncodedRecord{}, err
	}
	intervals, minID, err := p.rec.intervals(p.a, &p.sc)
	if err != nil {
		return EncodedRecord{}, err
	}
	return EncodedRecord{MinNodeID: minID, Intervals: intervals, Payload: payload}, nil
}

func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// appendHeader encodes a record header. The root record's context is the
// document node, with no path and no namespaces in scope: its header holds
// sig in their place. Other records ignore sig.
func appendHeader(b []byte, ctx nodeid.ID, sig uint64, path []xml.QName, ns []NSBinding, count int) []byte {
	b = appendUvarint(b, uint64(len(ctx)))
	if len(ctx) == 0 {
		b = appendUvarint(b, sig)
		return appendUvarint(b, uint64(count))
	}
	b = append(b, ctx...)
	b = appendUvarint(b, uint64(len(path)))
	for _, q := range path {
		b = appendUvarint(b, uint64(q.URI))
		b = appendUvarint(b, uint64(q.Local))
	}
	b = appendUvarint(b, uint64(len(ns)))
	for _, n := range ns {
		b = appendUvarint(b, uint64(n.Prefix))
		b = appendUvarint(b, uint64(n.URI))
	}
	return appendUvarint(b, uint64(count))
}

// maxVar bounds one uvarint field for arena capacity pre-sizing.
const maxVar = binary.MaxVarintLen64

// encodeElement assembles an element's encoding from its reduced entries.
func encodeElement(a *arena.Arena, e *openElem) []byte {
	b := a.Make(1 + len(e.rel) + 5*maxVar + e.size)
	b = append(b, byte(xml.Element))
	b = append(b, e.rel...)
	b = appendUvarint(b, uint64(e.name.URI))
	b = appendUvarint(b, uint64(e.name.Local))
	b = appendUvarint(b, uint64(e.typ))
	b = appendUvarint(b, uint64(len(e.entries)))
	b = appendUvarint(b, uint64(e.size))
	for _, s := range e.entries {
		b = append(b, s.bytes...)
	}
	return b
}

// encodeLeaf encodes attribute, text, comment and PI nodes.
func encodeLeaf(a *arena.Arena, kind xml.Kind, rel nodeid.Rel, name xml.QName, typ xml.TypeID, value []byte, _, _ int) []byte {
	b := a.Make(1 + len(rel) + 4*maxVar + len(value))
	b = append(b, byte(kind))
	b = append(b, rel...)
	switch kind {
	case xml.Attribute:
		b = appendUvarint(b, uint64(name.URI))
		b = appendUvarint(b, uint64(name.Local))
		b = appendUvarint(b, uint64(typ))
	case xml.Text:
		b = appendUvarint(b, uint64(typ))
	case xml.ProcessingInstruction:
		b = appendUvarint(b, uint64(name.Local))
	case xml.Comment:
	default:
		panic("pack: encodeLeaf bad kind")
	}
	b = appendUvarint(b, uint64(len(value)))
	return append(b, value...)
}

func encodeNamespace(a *arena.Arena, rel nodeid.Rel, prefix, uri xml.NameID) []byte {
	b := a.Make(1 + len(rel) + 2*maxVar)
	b = append(b, byte(xml.Namespace))
	b = append(b, rel...)
	b = appendUvarint(b, uint64(prefix))
	b = appendUvarint(b, uint64(uri))
	return b
}
