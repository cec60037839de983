package core

// The consistency check — CHECK INDEX for the XML structures, the
// "utilities" box of the paper's Figure 1. checkDoc is the one
// per-document check: the scrubber quarantines on it, CheckConsistency
// reports it beside the collection-level invariants, and repair's damage
// assessment decides from it what to rebuild and restore. It costs about
// one document walk.

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"rx/internal/heap"
	"rx/internal/nodeid"
	"rx/internal/pack"
	"rx/internal/pagestore"
	"rx/internal/valueindex"
	"rx/internal/xml"
)

// CheckConsistency verifies the collection's cross-structure invariants —
// the engine's analogue of the "utilities" box in the paper's Figure 1
// (CHECK INDEX and friends):
//
//  1. Every stored record's node-ID intervals have exactly one NodeID-index
//     entry, keyed by the interval's upper endpoint and pointing at the
//     record's RID (current version for versioned collections).
//  2. Every NodeID-index entry resolves back to a record that contains the
//     endpoint node. (It follows from 1: an interval's upper endpoint is a
//     node of its record.)
//  3. Every XPath value index holds exactly the keys re-derived by
//     evaluating its path over the stored documents.
//  4. Every document in the DocID index walks end to end from its root.
//  5. Every proxy entry describes the run record it resolves to — context
//     and subtree count — and every run record is reached by exactly one
//     proxy (the edit pipeline's proxy invariant, edit.go).
//  6. An index flagged SingleValued has at most one node on its path in
//     every document (the planner merges its conjuncts on that promise).
//  7. Every DocID in the NodeID index has a DocID-index entry: no removal
//     or rolled-back insert leaves records behind.
//  8. Every document's root signature covers every element name its walk
//     sees (pack.Record.Sig: it may hold more, never less).
//  9. The heap tables' live counts — the planner's statistics — are what
//     they hold: the base table counts one row per DocID-index entry, and
//     the XML table's Count and Bytes equal its scan.
//
// Invariants 1, 2, 4, 5 and 8 are checkDoc's, the per-document check the
// scrubber and repair run too; 3, 6, 7 and 9 span the collection. The check
// holds writeMu throughout and reports every violation it finds.
func (c *Collection) CheckConsistency() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	docs, err := c.DocIDs()
	if err != nil {
		return err
	}
	var errs []error
	if err := c.rewalkHeaps(); err != nil {
		errs = append(errs, err)
	}
	for _, doc := range docs {
		if f := c.checkDoc(doc, nil); f.err != nil {
			errs = append(errs, fmt.Errorf("doc %d: %w", doc, f.err))
		} else if f.reason != "" {
			errs = append(errs, fmt.Errorf("doc %d: %s", doc, f.reason))
		}
	}
	ixDocs, err := c.nodeIxDocs()
	if err != nil {
		return errors.Join(append(errs, err)...)
	}
	for _, doc := range ixDocs {
		if _, ok := slices.BinarySearch(docs, doc); !ok {
			errs = append(errs, fmt.Errorf("doc %d: NodeID-index entries, but no DocID-index entry", doc))
		}
	}
	for _, ov := range c.indexSnapshot() {
		if err := c.checkValueIndex(ov, docs); err != nil {
			errs = append(errs, fmt.Errorf("index %q: %w", ov.meta.Name, err))
		}
	}
	if n := c.base.Count(); n != uint64(len(docs)) {
		errs = append(errs, fmt.Errorf("base table counts %d rows, DocID index lists %d documents", n, len(docs)))
	}
	var rows, size uint64
	if err := c.xmlTbl.Scan(func(_ heap.RID, row []byte) error {
		rows, size = rows+1, size+uint64(len(row))
		return nil
	}); err != nil {
		errs = append(errs, err)
	} else if n, b := c.xmlTbl.Count(), c.xmlTbl.Bytes(); n != rows || b != size {
		errs = append(errs, fmt.Errorf("XML table counts %d rows of %d bytes, its scan %d of %d", n, b, rows, size))
	}
	return errors.Join(errs...)
}

// rewalkHeaps walks the heap chains again where the open walk stopped short
// at a page that failed to load (heap.OpenTolerant), so that their live
// counts and last pages cover the whole chain once it reads. It returns the
// error of a page that still fails. Caller holds writeMu.
func (c *Collection) rewalkHeaps() error {
	return errors.Join(c.base.Rewalk(), c.xmlTbl.Rewalk())
}

// docFault is checkDoc's verdict on one document; the zero value is sound.
type docFault struct {
	reason string
	// page is the damaged page, pagestore.InvalidPage when the damage is
	// logical.
	page pagestore.PageID
	// nodeIx is set when the NodeID index, not the records, is at fault:
	// an entry that is not its record's interval end, or a node that
	// resolves to the wrong record. Only an index rebuilt from the heap
	// leads a walk to the stored document again.
	nodeIx bool
	// err is the read error of an unreadable record, so that
	// CheckConsistency reports a read a full device failed (no frame could
	// be evicted) as that error, not as damage.
	err error
}

func logicalFault(nodeIx bool, format string, args ...any) docFault {
	return docFault{reason: fmt.Sprintf(format, args...), page: pagestore.InvalidPage, nodeIx: nodeIx}
}

// docEntry is one NodeID-index entry of a document being checked: the index
// of its record among the document's records, and where its upper endpoint
// lies in the check's ID buffer.
type docEntry struct {
	rec        int
	start, end int
}

// checkDoc is the one per-document check: the scrubber quarantines on its
// verdict, CheckConsistency reports it and repair decides from it what to
// rebuild and restore. bad holds pages known to fail verification (nil:
// none). It costs about one document walk — one scan of the document's
// NodeID entries, one Intervals per record, one walk from the root — and
// reads the document as it stands, so the caller keeps writers out of it
// (a document S lock, or writeMu).
func (c *Collection) checkDoc(doc xml.DocID, bad map[pagestore.PageID]bool) docFault {
	// One entry scan groups the entries by record, in first-appearance
	// order.
	var (
		ids     []byte // the entries' upper endpoints, back to back
		entries []docEntry
		rids    []heap.RID
		recOf   = map[heap.RID]int{}
	)
	r, serr := c.reader(doc)
	if serr == nil {
		serr = r.entries(func(upper nodeid.ID, rid heap.RID) bool {
			g, ok := recOf[rid]
			if !ok {
				g = len(rids)
				recOf[rid] = g
				rids = append(rids, rid)
			}
			entries = append(entries, docEntry{g, len(ids), len(ids) + len(upper)})
			ids = append(ids, upper...)
			return true
		})
	}
	// Physical damage first, so its reason and page do not depend on what
	// else is wrong: every record the entries name must fetch and decode.
	// Each record's intervals are computed on the way.
	uppers := make([][]nodeid.ID, len(rids))
	var logical docFault
	for g, rid := range rids {
		if bad[rid.Page] {
			return docFault{reason: fmt.Sprintf("record page %d failed verification", rid.Page), page: rid.Page}
		}
		rec, release, err := c.borrowRecord(rid)
		if err != nil {
			var pe pagestore.ErrPageChecksum
			if errors.As(err, &pe) {
				return docFault{reason: fmt.Sprintf("record page %d failed checksum", pe.PageID), page: pe.PageID}
			}
			err = fmt.Errorf("record %s unreadable: %w", rid, err)
			return docFault{reason: err.Error(), page: rid.Page, err: err}
		}
		uppers[g], _, err = rec.Intervals()
		release()
		if err != nil && logical.reason == "" {
			logical = docFault{reason: fmt.Sprintf("record %s undecodable: %v", rid, err), page: rid.Page}
		}
	}
	if serr != nil {
		var pe pagestore.ErrPageChecksum
		if errors.As(serr, &pe) {
			return docFault{reason: fmt.Sprintf("NodeID index entries unreadable (page %d)", pe.PageID), page: pe.PageID}
		}
		return logicalFault(false, "NodeID index entries unreadable: %v", serr)
	}
	if len(rids) == 0 {
		return logicalFault(false, "document has no readable records")
	}
	if logical.reason != "" {
		return logical
	}
	// Invariant 1 (and so 2): each record's entries, in node-ID order, are
	// its intervals' upper endpoints.
	seen := make([]int, len(rids))
	for _, e := range entries {
		upper, u := nodeid.ID(ids[e.start:e.end]), uppers[e.rec]
		if seen[e.rec] == len(u) || !bytes.Equal(u[seen[e.rec]], upper) {
			return logicalFault(true, "record %s: entry %s is not one of its interval ends", rids[e.rec], upper)
		}
		seen[e.rec]++
	}
	for g, n := range seen {
		if n != len(uppers[g]) {
			return logicalFault(true, "record %s: %d entries for %d intervals", rids[g], n, len(uppers[g]))
		}
	}
	// Invariants 4, 5 and 8: one walk from the root, whose resolver counts
	// the records it reaches. The walker holds each proxy to its run's
	// context and subtree count.
	clear(seen)
	misresolved := false
	fetch := func(id nodeid.ID) (*pack.Record, func(), error) {
		rid, err := r.lookup(id)
		if err != nil {
			misresolved = true
			return nil, nil, lookupErr(err, fmt.Sprintf("node %s", id))
		}
		g, ok := recOf[rid]
		if !ok || seen[g] > 0 {
			misresolved = true
			return nil, nil, fmt.Errorf("%w: node %s resolves to record %s out of turn", pack.ErrCorrupt, id, rid)
		}
		seen[g]++
		return c.borrowRecord(rid)
	}
	root, release, err := fetch(nodeid.Root)
	if err != nil {
		return logicalFault(misresolved, "root: %v", err)
	}
	if len(root.ContextID) != 0 {
		release()
		return logicalFault(true, "the root resolves to a run record of context %s", root.ContextID)
	}
	sig := root.Sig
	var v sigCounter
	if err := pack.Walk(root, release, fetch, &v); err != nil {
		return logicalFault(misresolved, "walk: %v", err)
	}
	for g, n := range seen {
		if n == 0 {
			return logicalFault(false, "record %s: no proxy reaches it", rids[g])
		}
	}
	if v.nodes == 0 {
		return logicalFault(false, "document walks to zero nodes")
	}
	if missing := v.sig &^ sig; missing != 0 {
		return logicalFault(false, "root signature %#x misses element-name bits %#x", sig, missing)
	}
	return docFault{}
}

// sigCounter counts a walk's nodes and ORs its elements' signature bits.
type sigCounter struct {
	nodes int
	sig   uint64
}

func (v *sigCounter) Enter(n *pack.Node) (bool, error) {
	v.nodes++
	if n.Kind == xml.Element {
		v.sig |= xml.SigBit(n.Name.Local)
	}
	return true, nil
}

func (v *sigCounter) Leave(*pack.Node) (bool, error) { return true, nil }

// checkValueIndex re-derives every document's keys and compares them
// (positions and encoded values) against the index contents.
func (c *Collection) checkValueIndex(ov *openValueIndex, docs []xml.DocID) error {
	want := map[string]bool{}
	for _, doc := range docs {
		matches, err := c.evalStored(doc, ov.keygen)
		if err != nil {
			return err
		}
		if len(matches) > 1 && ov.single.Load() {
			return fmt.Errorf("flagged single-valued, but doc %d has %d nodes on its path", doc, len(matches))
		}
		for _, m := range matches {
			enc, err := ov.ix.EncodeValue(m.Value)
			if err != nil {
				if errors.Is(err, valueindex.ErrNotIndexable) {
					continue
				}
				return err
			}
			want[fmt.Sprintf("%x/%d/%s", enc, doc, m.ID)] = true
		}
	}
	got := 0
	var stray string
	err := ov.ix.Scan(valueindex.Range{}, func(e valueindex.Entry) bool {
		got++
		k := fmt.Sprintf("%x/%d/%s", e.EncodedValue, e.Doc, e.Node)
		if !want[k] {
			stray = k
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if stray != "" {
		return fmt.Errorf("stray index entry %s", stray)
	}
	if got != len(want) {
		return fmt.Errorf("index holds %d entries, re-derivation yields %d", got, len(want))
	}
	return nil
}
