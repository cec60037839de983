package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"rx/internal/btree"
	"rx/internal/catalog"
	"rx/internal/heap"
	"rx/internal/nodeid"
	"rx/internal/nodeindex"
	"rx/internal/pack"
	"rx/internal/quickxscan"
	"rx/internal/serialize"
	"rx/internal/valueindex"
	"rx/internal/vsax"
	"rx/internal/xml"
	"rx/internal/xpath"
)

// Collection is a base table with one XML column (Figure 2).
type Collection struct {
	db   *DB
	meta *catalog.Collection

	base   *heap.Table
	xmlTbl *heap.Table
	docIx  *btree.Tree
	nodeIx *nodeindex.Index

	// writeMu serializes structural writers (insert/delete/update/index
	// DDL). Readers coordinate through the lock manager / MVCC.
	writeMu sync.Mutex
	// ixs is the current value-index set. Index DDL, under writeMu,
	// publishes a new one; readers load it without a lock.
	ixs atomic.Pointer[indexSet]
}

// indexes returns the current value-index set.
func (c *Collection) indexes() *indexSet { return c.ixs.Load() }

// indexSnapshot returns the current value indexes. The slice is never
// written once published, so index DDL cannot race with a reader iterating
// it.
func (c *Collection) indexSnapshot() []*openValueIndex { return c.indexes().ixs }

type openValueIndex struct {
	meta   catalog.ValueIndexMeta
	ix     *valueindex.Index
	keygen *quickxscan.Eval // guarded by writeMu
	// single mirrors the catalog's SingleValued flag for the planner, which
	// reads it without writeMu; writers clear both through noteMatches.
	single atomic.Bool
}

// noteMatches is the writers' side of the SingleValued invariant: given how
// many nodes on ov's path a document is about to be indexed with, it clears
// the flag the first time that is two or more. The caller has not yet put the
// document's entries, so the catalog row is rewritten before them and its log
// record precedes theirs: any durable prefix of the log that holds a violating
// entry also holds the clear, and a rollback of the write leaves the flag
// cleared. Caller holds writeMu.
func (c *Collection) noteMatches(ov *openValueIndex, matches int) error {
	if matches < 2 || !ov.single.Load() {
		return nil
	}
	ov.single.Store(false)
	return c.db.cat.ClearSingleValued(c.meta, ov.meta.Name)
}

// CreateValueIndex creates an XPath value index (§3.3) and backfills it from
// the stored documents. The path must be a simple XPath expression without
// predicates; typ is one of xml.TString, TDouble, TDate, TDecimal.
func (c *Collection) CreateValueIndex(name, path string, typ xml.TypeID) (err error) {
	defer func() { c.db.noteWriteErr(err) }()
	if err := c.db.checkWritable(); err != nil {
		return err
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	for _, ov := range c.indexSnapshot() {
		if ov.meta.Name == name {
			return fmt.Errorf("core: index %q already exists on %s", name, c.meta.Name)
		}
	}
	ix, err := valueindex.Create(c.db.pool, path, typ)
	if err != nil {
		return err
	}
	kg, err := c.compileKeygen(ix.Path())
	if err != nil {
		return err
	}
	// Backfill from existing documents, noting whether any has two or more
	// nodes on the path (the SingleValued flag the planner merges on).
	docs, err := c.DocIDs()
	if err != nil {
		return err
	}
	single := true
	note := func(matches int) error {
		single = single && matches < 2
		return nil
	}
	if err := c.fillValueIndex(ix, kg, docs, note, nil); err != nil {
		return err
	}
	im := catalog.ValueIndexMeta{Name: name, Path: path, Type: typ, Meta: ix.MetaPage(), SingleValued: single}
	ov := &openValueIndex{meta: im, ix: ix, keygen: kg}
	ov.single.Store(single)
	c.ixs.Store(&indexSet{ixs: append(slices.Clip(c.indexSnapshot()), ov)})
	c.meta.Indexes = append(c.meta.Indexes, im)
	return c.db.cat.UpdateCollection(c.meta)
}

// fillValueIndex is the one value-index fill — CreateValueIndex's backfill
// and repair's rebuild: documents in order, each one's keys evaluated from
// its stored tree and put one at a time (putValueKeys). note sees a
// document's match count before its puts (noteMatches' ordering). A document
// that does not walk (vanished) contributes nothing: it is damaged, and
// repair's restore of it puts its keys back. throttle, when non-nil, runs
// before each document. Caller holds writeMu.
func (c *Collection) fillValueIndex(ix *valueindex.Index, kg *quickxscan.Eval, docs []xml.DocID, note func(matches int) error, throttle func()) error {
	for _, doc := range docs {
		if throttle != nil {
			throttle()
		}
		r, err := c.reader(doc)
		var keys []quickxscan.Match
		if err == nil {
			keys, err = r.eval(kg)
		}
		if vanished(err) {
			continue
		}
		if err != nil {
			return err
		}
		if err := note(len(keys)); err != nil {
			return err
		}
		if err := r.putValueKeys(ix, keys); err != nil {
			return err
		}
	}
	return nil
}

// ValueIndexes lists the collection's value index names.
func (c *Collection) ValueIndexes() []string {
	var names []string
	for _, ov := range c.indexSnapshot() {
		names = append(names, ov.meta.Name)
	}
	return names
}

// ValueIndex returns an open value index by name (stats, experiments).
func (c *Collection) ValueIndex(name string) *valueindex.Index {
	for _, ov := range c.indexSnapshot() {
		if ov.meta.Name == name {
			return ov.ix
		}
	}
	return nil
}

func createCollection(db *DB, name string, opts CollectionOptions) (*Collection, error) {
	base, err := heap.Create(db.pool)
	if err != nil {
		return nil, err
	}
	xmlTbl, err := heap.Create(db.pool)
	if err != nil {
		return nil, err
	}
	docIx, err := btree.Create(db.pool)
	if err != nil {
		return nil, err
	}
	nodeIx, err := nodeindex.Create(db.pool)
	if err != nil {
		return nil, err
	}
	meta := &catalog.Collection{
		Name:          name,
		BaseTable:     base.FirstPage(),
		XMLTable:      xmlTbl.FirstPage(),
		DocIDIndex:    docIx.MetaPage(),
		NodeIDIndex:   nodeIx.MetaPage(),
		PackThreshold: opts.PackThreshold,
		Versioned:     opts.Versioned,
	}
	if err := db.cat.AddCollection(meta); err != nil {
		return nil, err
	}
	c := &Collection{
		db:     db,
		meta:   meta,
		base:   base,
		xmlTbl: xmlTbl,
		docIx:  docIx,
		nodeIx: nodeIx,
	}
	c.ixs.Store(&indexSet{})
	return c, nil
}

func openCollection(db *DB, meta *catalog.Collection) (*Collection, error) {
	// Heap opens are tolerant: a damaged chain page must demote only the
	// documents stored on it (scrub quarantines them; repair relinks the
	// chain), not make the whole collection unopenable.
	base := heap.OpenTolerant(db.pool, meta.BaseTable)
	xmlTbl := heap.OpenTolerant(db.pool, meta.XMLTable)
	docIx, err := btree.Open(db.pool, meta.DocIDIndex)
	if err != nil {
		return nil, err
	}
	nodeIx, err := nodeindex.Open(db.pool, meta.NodeIDIndex)
	if err != nil {
		return nil, err
	}
	c := &Collection{
		db:     db,
		meta:   meta,
		base:   base,
		xmlTbl: xmlTbl,
		docIx:  docIx,
		nodeIx: nodeIx,
	}
	set := &indexSet{}
	for _, im := range meta.Indexes {
		ov, err := c.openValueIndex(im)
		if err != nil {
			return nil, err
		}
		set.ixs = append(set.ixs, ov)
	}
	c.ixs.Store(set)
	return c, nil
}

func (c *Collection) openValueIndex(im catalog.ValueIndexMeta) (*openValueIndex, error) {
	ix, err := valueindex.Open(c.db.pool, im.Meta, im.Path, im.Type)
	if err != nil {
		return nil, err
	}
	kg, err := c.compileKeygen(ix.Path())
	if err != nil {
		return nil, err
	}
	ov := &openValueIndex{meta: im, ix: ix, keygen: kg}
	ov.single.Store(im.SingleValued)
	return ov, nil
}

func (c *Collection) compileKeygen(q *xpath.Query) (*quickxscan.Eval, error) {
	return quickxscan.Compile(q, c.db.cat, nil, quickxscan.Options{NeedValues: true})
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.meta.Name }

// NodeIndex exposes the NodeID index (stats, experiments).
func (c *Collection) NodeIndex() *nodeindex.Index { return c.nodeIx }

// XMLTable exposes the internal XML table (stats, experiments).
func (c *Collection) XMLTable() *heap.Table { return c.xmlTbl }

// packThreshold resolves the collection's record-size target.
func (c *Collection) packThreshold() int {
	if c.meta.PackThreshold > 0 {
		return c.meta.PackThreshold
	}
	return pack.DefaultThreshold
}

// xmlRow encodes an internal XML table row: (DocID, minNodeID, XMLData).
func xmlRow(doc xml.DocID, minID nodeid.ID, payload []byte) []byte {
	row := make([]byte, 0, 8+1+len(minID)+len(payload))
	var d [8]byte
	binary.BigEndian.PutUint64(d[:], uint64(doc))
	row = append(row, d[:]...)
	row = binary.AppendUvarint(row, uint64(len(minID)))
	row = append(row, minID...)
	return append(row, payload...)
}

// splitXMLRow decodes an internal XML table row.
func splitXMLRow(row []byte) (xml.DocID, nodeid.ID, []byte, error) {
	if len(row) < 9 {
		return 0, nil, nil, fmt.Errorf("%w: short XML row", pack.ErrCorrupt)
	}
	doc := xml.DocID(binary.BigEndian.Uint64(row))
	l, n := binary.Uvarint(row[8:])
	if n <= 0 || 8+n+int(l) > len(row) {
		return 0, nil, nil, fmt.Errorf("%w: XML row header", pack.ErrCorrupt)
	}
	minID := nodeid.ID(row[8+n : 8+n+int(l)])
	return doc, minID, row[8+n+int(l):], nil
}

// Count returns the number of documents.
func (c *Collection) Count() (int, error) { return c.docIx.Count() }

// Has reports whether the document exists.
func (c *Collection) Has(doc xml.DocID) bool {
	var d [8]byte
	binary.BigEndian.PutUint64(d[:], uint64(doc))
	_, err := c.docIx.Get(d[:])
	return err == nil
}

// DocIDs returns all document IDs in order.
func (c *Collection) DocIDs() ([]xml.DocID, error) {
	var out []xml.DocID
	err := c.docIx.Scan(nil, nil, func(e btree.Entry) bool {
		out = append(out, xml.DocID(binary.BigEndian.Uint64(e.Key)))
		return true
	})
	return out, err
}

// borrowRecord loads the packed record at rid without copying it out of the
// buffer pool: the returned record's body aliases the pinned, read-latched
// heap frame until release is called. Callers must follow the single-borrow
// rule (heap.FetchBorrowed): never hold two borrows on one goroutine, and
// never touch the B+trees while a borrow is outstanding. Every stored-record
// read in the engine comes through here, or through decodeRow from a cursor
// worker's borrow slot (worker.borrow).
func (c *Collection) borrowRecord(rid heap.RID) (*pack.Record, func(), error) {
	return decodeRow(c.xmlTbl.FetchBorrowed(rid))
}

// decodeRow decodes a borrowed XML-table row, releasing it on failure.
func decodeRow(row []byte, release func(), err error) (*pack.Record, func(), error) {
	if err != nil {
		return nil, nil, err
	}
	_, _, payload, err := splitXMLRow(row)
	if err != nil {
		release()
		return nil, nil, err
	}
	rec, err := pack.Decode(payload)
	if err != nil {
		release()
		return nil, nil, err
	}
	return rec, release, nil
}

// detached turns a borrow into an owned record — the bytes copied once, the
// frame released — for callers that keep the record across index access or
// other borrows (the edit planner, the consistency check).
func detached(rec *pack.Record, release func(), err error) (*pack.Record, error) {
	if err != nil {
		return nil, err
	}
	rec.Detach()
	release()
	return rec, nil
}

// docReader is the one stored-document access path (§3.4): whole-document
// walks, node lookups, query evaluation, the edit planner, the consistency
// check and salvage all resolve "the record that holds (doc, version, node)"
// here. The version is fixed when the reader is made — the document's current
// one (Collection.reader) or a caller's snapshot — so one read sees one
// version however many records it crosses and whatever commits meanwhile
// (§5.1: "reader's deferred access is guaranteed to be successful"). On a
// plain collection ver is unused.
type docReader struct {
	c   *Collection
	doc xml.DocID
	ver uint64
}

// reader pins the document's current version.
func (c *Collection) reader(doc xml.DocID) (docReader, error) {
	ver, err := c.currentVersion(doc)
	return docReader{c, doc, ver}, err
}

// lookup resolves a node to the RID of the record holding it at the reader's
// version (§3.4) — the one place a read chooses between the plain and the
// versioned key layout.
func (r docReader) lookup(id nodeid.ID) (heap.RID, error) {
	if !r.c.meta.Versioned {
		return r.c.nodeIx.Lookup(r.doc, id)
	}
	return r.c.nodeIx.LookupV(r.doc, r.ver, id)
}

// entries visits the NodeID-index entries of the reader's version in node-ID
// order.
func (r docReader) entries(fn func(upper nodeid.ID, rid heap.RID) bool) error {
	if !r.c.meta.Versioned {
		return r.c.nodeIx.ScanDoc(r.doc, fn)
	}
	return r.c.nodeIx.ScanVersion(r.doc, r.ver, fn)
}

// borrow resolves a node to its record, borrowed (borrowRecord). As a method
// value it is the walker's proxy resolver: the walker calls it only with no
// borrow outstanding, so the index lookup never nests under a heap-page
// latch.
func (r docReader) borrow(id nodeid.ID) (*pack.Record, func(), error) {
	rid, err := r.locate(id)
	if err != nil {
		return nil, nil, err
	}
	return r.c.borrowRecord(rid)
}

// locate is lookup with a missing node reported as ErrNotFound.
func (r docReader) locate(id nodeid.ID) (heap.RID, error) {
	rid, err := r.lookup(id)
	if err != nil {
		what := fmt.Sprintf("doc %d node %s", r.doc, id)
		if len(id) == 0 {
			what = fmt.Sprintf("document %d", r.doc)
		}
		return heap.InvalidRID, lookupErr(err, what)
	}
	return rid, nil
}

// find locates a node through the NodeID index (§3.4: "when a (docid, nodeid)
// is given from an XPath value index, to find the record containing the
// corresponding node, use this pair as the key on the node ID index"). The
// record and the node's Value alias a pinned heap frame until release is
// called. The index maps every node to the record that physically contains
// it, so the in-record descent never crosses into another record. ancestors,
// when non-nil, receives the names of the node's element ancestors, root
// first: the record header's context path, then the descent (pack.Find).
func (r docReader) find(id nodeid.ID, ancestors *[]xml.QName) (*pack.Record, func(), pack.Node, error) {
	rec, release, err := r.borrow(id)
	if err != nil {
		return nil, nil, pack.Node{}, err
	}
	if ancestors != nil {
		*ancestors = append(*ancestors, rec.Path...)
	}
	n, found, err := rec.Find(id, ancestors)
	if err == nil && !found {
		err = fmt.Errorf("%w: doc %d node %s", ErrNotFound, r.doc, id)
	}
	if err != nil {
		release()
		return nil, nil, pack.Node{}, err
	}
	return rec, release, n, nil
}

// walk is the one whole-document driver: v sees the reader's version from the
// root record down, zero-copy — values aliased into pinned buffer-pool frames,
// IDs into the walker's stack, at most one pin at a time and none once walk
// returns. With lost non-nil it is the salvage traversal (pack.WalkPartial).
func (r docReader) walk(v pack.Visitor, lost *int) error {
	root, release, err := r.borrow(nodeid.Root)
	if err != nil {
		return err
	}
	if lost != nil {
		*lost, err = pack.WalkPartial(root, release, r.borrow, v)
		return err
	}
	return pack.Walk(root, release, r.borrow, v)
}

// walkDoc drives a vsax.Handler with the document's events — the
// persistent-data iterator of Figure 8. Handlers that keep values or IDs
// beyond the event callback must copy (vsax contract).
func (r docReader) walkDoc(h vsax.Handler, lost *int) error {
	if err := h.StartDocument(); err != nil {
		return err
	}
	if err := r.walk(visitorFor(h), lost); err != nil {
		return err
	}
	return h.EndDocument()
}

// serializers recycles serializers with their buffers across documents.
var serializers = sync.Pool{New: func() any { return new(serialize.Serializer) }}

// serialize writes the document as XML text.
func (r docReader) serialize(w io.Writer) error {
	s := serializers.Get().(*serialize.Serializer)
	s.Reset(w, r.c.db.cat)
	err := r.walkDoc(s, nil)
	if err == nil {
		err = s.Err()
	}
	s.Reset(nil, nil)
	serializers.Put(s)
	return err
}

// handlerVisitor adapts the pack walker to vsax events. The node, its ID and
// its value belong to the walker and die with the callback — exactly the
// lifetime vsax.Handler promises its implementations.
type handlerVisitor struct {
	h vsax.Handler
}

func (v handlerVisitor) Enter(n *pack.Node) (bool, error) {
	switch n.Kind {
	case xml.Element:
		return true, v.h.StartElement(n.Name, n.Abs)
	case xml.Attribute:
		return true, v.h.Attribute(n.Name, n.Value, n.Type, n.Abs)
	case xml.Namespace:
		return true, v.h.NSDecl(n.Name.Local, n.Name.URI, n.Abs)
	case xml.Text:
		return true, v.h.Text(n.Value, n.Type, n.Abs)
	case xml.Comment:
		return true, v.h.Comment(n.Value, n.Abs)
	case xml.ProcessingInstruction:
		return true, v.h.PI(n.Name.Local, n.Value, n.Abs)
	}
	return true, nil
}

func (v handlerVisitor) Leave(n *pack.Node) (bool, error) {
	return true, v.h.EndElement(n.Abs)
}

// skippingVisitor is handlerVisitor for a handler that implements
// vsax.SubtreeSkipper: it passes the walker's question on.
type skippingVisitor struct {
	handlerVisitor
	s vsax.SubtreeSkipper
}

func (v skippingVisitor) SkipContent() bool { return v.s.CanSkipSubtree() }

// visitorFor picks the walker adapter for h. The SubtreeSkipper lookup
// happens here, once per walk; generic handlers get a visitor that cannot
// skip at all.
func visitorFor(h vsax.Handler) pack.Visitor {
	if s, ok := h.(vsax.SubtreeSkipper); ok {
		return skippingVisitor{handlerVisitor{h}, s}
	}
	return handlerVisitor{h}
}

// WalkDoc drives a vsax.Handler with the stored document's events, at its
// current version.
func (c *Collection) WalkDoc(doc xml.DocID, h vsax.Handler) error {
	r, err := c.reader(doc)
	if err != nil {
		return err
	}
	return r.walkDoc(h, nil)
}

// Serialize writes the stored document as XML text.
func (c *Collection) Serialize(doc xml.DocID, w io.Writer) error {
	r, err := c.reader(doc)
	if err != nil {
		return err
	}
	return r.serialize(w)
}

// removeDoc is the one document removal: Txn.Delete, compensation of an
// insert, and restoreDoc (compensation of a delete or a plain-collection edit,
// repair's restore) all run it. It removes whatever exists of the document,
// every version of it, from any partial state a crash or a failed operation
// can leave, in three steps:
//
//  1. Value keys. They are regenerated from the stored document at its
//     current version, when it walks, and from prior — the pre-operation
//     token stream an undo record carries, or nil.
//  2. The base row and the DocID entry. From here on the document is gone
//     for a reader that takes no lock: one that finds its records missing
//     next (deletedUnder) sees a deleted document, not a damaged one. An
//     insert that stopped inside its base-row pass (ingestLocked's pass 3)
//     leaves base rows no DocID entry points at; they are found by a scan
//     of the base table, which only a document with no DocID entry but
//     NodeID entries (pass 2 finished) can need.
//  3. Records, then NodeID entries, both found by one index scan; records go
//     in scan order, so page effects replay deterministically.
//
// A record or base row goes only while it still holds this document
// (deleteOwnRow).
//
// The regeneration is exact because the write paths keep one ordering:
// ingest puts value keys last, an edit reconciles its keys only after its
// record effects, and removal drops keys first. So the index holds only keys
// of the stored tree, when that walks, or of prior. A walk that fails on a
// missing or malformed structure (vanished) finds a document whose keys are
// all gone already, and contributes nothing; a failing device fails the
// removal. A token stream carries no node IDs — they are renumbered as the
// packer assigns them, which an edited document's are not — so prior's keys
// are removed by value and DocID. Removing an absent document is a no-op.
// Caller holds writeMu.
func (c *Collection) removeDoc(doc xml.DocID, prior []byte) error {
	r, walkErr := c.reader(doc)
	for _, ov := range c.indexSnapshot() {
		var keys []quickxscan.Match
		if walkErr == nil {
			keys, walkErr = r.eval(ov.keygen)
		}
		if walkErr != nil && !vanished(walkErr) {
			return walkErr
		}
		if err := dropKeys(ov, doc, keys, prior); err != nil {
			return err
		}
	}
	var d [8]byte
	binary.BigEndian.PutUint64(d[:], uint64(doc))
	baseRID, err := c.docIx.Get(d[:])
	if err != nil && !errors.Is(err, btree.ErrNotFound) {
		// A full device blocking an eviction, say: reporting success here
		// would leave a ghost document visible in the DocID index.
		return err
	}
	if err == nil {
		if err := deleteOwnRow(c.base, heap.RIDFromBytes(baseRID), doc); err != nil {
			return err
		}
		if err := c.docIx.Delete(d[:]); err != nil {
			return err
		}
	} else if err := c.deleteUnlistedBaseRows(doc); err != nil {
		return err
	}
	_, err = c.nodeIx.DeleteDoc(doc, func(rid heap.RID) error {
		return deleteOwnRow(c.xmlTbl, rid, doc)
	})
	return err
}

// deleteUnlistedBaseRows deletes the base rows of a document that has no
// DocID entry, if it has NodeID entries (removeDoc, step 2).
func (c *Collection) deleteUnlistedBaseRows(doc xml.DocID) error {
	indexed := false
	if err := c.nodeIx.ScanDoc(doc, func(nodeid.ID, heap.RID) bool {
		indexed = true
		return false
	}); err != nil || !indexed {
		return err
	}
	var rids []heap.RID
	if err := c.base.Scan(func(rid heap.RID, row []byte) error {
		if len(row) >= 8 && xml.DocID(binary.BigEndian.Uint64(row)) == doc {
			rids = append(rids, rid)
		}
		return nil
	}); err != nil {
		return err
	}
	for _, rid := range rids {
		if err := c.base.Delete(rid); err != nil {
			return err
		}
	}
	return nil
}

// deleteOwnRow deletes the row at rid if it still belongs to doc: base rows
// and XML rows both start with their DocID. An index entry can outlive its
// row — a crash inside an earlier removal freed the row but not the entry —
// and the slot may since hold another document's row, which is not this
// removal's to delete. A row already gone counts as deleted.
func deleteOwnRow(t *heap.Table, rid heap.RID, doc xml.DocID) error {
	row, release, err := t.FetchBorrowed(rid)
	if errors.Is(err, heap.ErrNotFound) {
		return nil
	}
	if err != nil {
		return err
	}
	own := len(row) >= 8 && xml.DocID(binary.BigEndian.Uint64(row)) == doc
	release()
	if !own {
		return nil
	}
	return t.Delete(rid)
}

// dropKeys deletes one index's keys for a document — keys exactly, in eval
// order, then prior's by value.
func dropKeys(ov *openValueIndex, doc xml.DocID, keys []quickxscan.Match, prior []byte) error {
	for _, m := range keys {
		err := ov.ix.Delete(m.Value, doc, m.ID)
		if err != nil && !errors.Is(err, valueindex.ErrNotIndexable) && !errors.Is(err, btree.ErrNotFound) {
			return err
		}
	}
	if prior == nil {
		return nil
	}
	ms, err := quickxscan.EvalTokens(ov.keygen, prior)
	if err != nil {
		return err
	}
	for _, m := range ms {
		if _, err := ov.ix.DeleteValue(m.Value, doc); err != nil && !errors.Is(err, valueindex.ErrNotIndexable) {
			return err
		}
	}
	return nil
}

// vanished reports whether a read failed on a missing or malformed structure
// — a record, an index entry, a node — which is what a partly written or
// partly removed document presents, as opposed to a failing device (I/O,
// checksum, no space).
func vanished(err error) bool {
	for _, target := range []error{ErrNotFound, heap.ErrNotFound, btree.ErrNotFound,
		nodeindex.ErrNotFound, pack.ErrCorrupt, pack.ErrNoSuchNode} {
		if errors.Is(err, target) {
			return true
		}
	}
	return false
}

// evalVisitor feeds the pack walker's nodes straight to a QuickXScan
// evaluator — one dispatch per node — and lets the evaluator's reachability
// answer (Eval.CanSkip) steer the walker past content the query cannot match.
// The evaluator keeps its own copies of its candidates' IDs and values.
type evalVisitor struct {
	e *quickxscan.Eval
}

func (v evalVisitor) Enter(n *pack.Node) (bool, error) {
	switch n.Kind {
	case xml.Element:
		v.e.StartElement(n.Name, n.Abs)
	case xml.Attribute:
		v.e.Attribute(n.Name, n.Value, n.Abs)
	case xml.Text:
		v.e.Text(n.Value, n.Abs)
	case xml.Comment:
		v.e.Comment(n.Value, n.Abs)
	}
	return true, nil
}

func (v evalVisitor) Leave(n *pack.Node) (bool, error) {
	v.e.EndElement(n.Abs)
	return true, nil
}

func (v evalVisitor) SkipContent() bool { return v.e.CanSkip() }

// evalStored evaluates a compiled query over a stored document by scanning
// its records in document order (the base scan-based access of §4.2),
// stepping over every subtree the query cannot match in.
func (c *Collection) evalStored(doc xml.DocID, e *quickxscan.Eval) ([]quickxscan.Match, error) {
	r, err := c.reader(doc)
	if err != nil {
		return nil, err
	}
	return r.eval(e)
}

// eval is the one whole-document evaluation: query scans, value-key
// generation on insert and removal, the edit's key bracket and the
// consistency check all run it. A document whose root signature lacks a
// name the query needs (Eval.Need) is ruled out after the root fetch, before
// any body decode or proxy fetch. The signature never misses an element the
// document holds, so a ruled-out document has no matches.
func (r docReader) eval(e *quickxscan.Eval) ([]quickxscan.Match, error) {
	e.Reset()
	root, release, err := r.borrow(nodeid.Root)
	if err != nil {
		return nil, err
	}
	return evalRoot(e, root, release, r.borrow)
}

// evalRoot evaluates the document whose root record root is borrowed
// (release), after the root-signature rule, resolving proxies through fetch.
// e has been Reset.
func evalRoot(e *quickxscan.Eval, root *pack.Record, release func(), fetch pack.FetchBorrow) ([]quickxscan.Match, error) {
	if e.Need()&^root.Sig != 0 {
		release()
		return nil, nil
	}
	e.StartDocument()
	if err := pack.Walk(root, release, fetch, evalVisitor{e}); err != nil {
		return nil, err
	}
	return e.EndDocument()
}
