package core

import (
	"errors"
	"fmt"
	"slices"

	"rx/internal/heap"
	"rx/internal/nodeid"
	"rx/internal/pack"
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
//     endpoint node.
//  3. Every XPath value index holds exactly the keys re-derived by
//     evaluating its path over the stored documents.
//  4. Every document in the DocID index serializes without error.
//  5. Every proxy entry describes the run record it resolves to — first
//     subtree and subtree count — and every run record has exactly one (the
//     edit pipeline's proxy invariant, edit.go).
//  6. An index flagged SingleValued has at most one node on its path in
//     every document (the planner merges its conjuncts on that promise).
//  7. Every DocID in the NodeID index has a DocID-index entry: no removal
//     or rolled-back insert leaves records behind.
//  8. Every document's root signature covers every element name its walk
//     sees (pack.Record.Sig: it may hold more, never less).
func (c *Collection) CheckConsistency() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	docs, err := c.DocIDs()
	if err != nil {
		return err
	}
	for _, doc := range docs {
		if err := c.checkDoc(doc); err != nil {
			return fmt.Errorf("doc %d: %w", doc, err)
		}
	}
	ixDocs, err := c.nodeIxDocs()
	if err != nil {
		return err
	}
	for _, doc := range ixDocs {
		if _, ok := slices.BinarySearch(docs, doc); !ok {
			return fmt.Errorf("doc %d: NodeID-index entries, but no DocID-index entry", doc)
		}
	}
	for _, ov := range c.indexSnapshot() {
		if err := c.checkValueIndex(ov, docs); err != nil {
			return fmt.Errorf("index %q: %w", ov.meta.Name, err)
		}
	}
	return nil
}

func (c *Collection) checkDoc(doc xml.DocID) error {
	// Gather the document's entries (current version).
	r, err := c.reader(doc)
	if err != nil {
		return err
	}
	type entry struct {
		upper nodeid.ID
		rid   heap.RID
	}
	var entries []entry
	err = r.entries(func(upper nodeid.ID, rid heap.RID) bool {
		entries = append(entries, entry{nodeid.Clone(upper), rid})
		return true
	})
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return errors.New("no NodeID entries")
	}
	// Invariant 2 + derive per-record intervals for invariant 1.
	perRID := map[heap.RID][]string{}
	for _, e := range entries {
		rec, release, err := c.borrowRecord(e.rid)
		if err != nil {
			return fmt.Errorf("entry %s → %s: %w", e.upper, e.rid, err)
		}
		n, found, err := rec.Find(e.upper, nil)
		release()
		if err != nil {
			return err
		}
		if !found || n.IsProxy() {
			return fmt.Errorf("entry %s → %s: endpoint not in record", e.upper, e.rid)
		}
		perRID[e.rid] = append(perRID[e.rid], e.upper.String())
	}
	// Invariant 1: the entry set per record equals the record's intervals.
	// Invariant 5 on the way: count the proxies that resolve to each record.
	proxies := map[heap.RID]int{}
	var checkProxies func(parentID nodeid.ID, list []*pack.MutNode) error
	checkProxies = func(parentID nodeid.ID, list []*pack.MutNode) error {
		for _, m := range list {
			switch m.Kind {
			case xml.Proxy:
				run, err := r.openRun(parentID, m)
				if err != nil {
					return err
				}
				if len(run.tops) != m.ProxyCount {
					return fmt.Errorf("proxy %s counts %d subtrees, its run holds %d",
						nodeid.Append(parentID, m.Rel), m.ProxyCount, len(run.tops))
				}
				proxies[run.rid]++
			case xml.Element:
				if err := checkProxies(nodeid.Append(parentID, m.Rel), m.Children); err != nil {
					return err
				}
			}
		}
		return nil
	}
	runs := 0
	for rid, got := range perRID {
		rec, err := detached(c.borrowRecord(rid))
		if err != nil {
			return err
		}
		tops, err := rec.Mutable()
		if err != nil {
			return err
		}
		if err := checkProxies(rec.ContextID, tops); err != nil {
			return err
		}
		if len(rec.ContextID) > 0 {
			runs++
		}
		uppers, _, err := rec.Intervals()
		if err != nil {
			return err
		}
		if len(uppers) != len(got) {
			return fmt.Errorf("record %s: %d entries for %d intervals", rid, len(got), len(uppers))
		}
		want := map[string]bool{}
		for _, u := range uppers {
			want[u.String()] = true
		}
		for _, g := range got {
			if !want[g] {
				return fmt.Errorf("record %s: stray entry %s", rid, g)
			}
		}
	}
	for rid, n := range proxies {
		if n != 1 {
			return fmt.Errorf("record %s: %d proxies resolve to it", rid, n)
		}
	}
	if len(proxies) != runs {
		return fmt.Errorf("%d run records for %d proxies", runs, len(proxies))
	}
	// Invariant 4: the document walks end to end.
	h := &nodeCountHandler{}
	if err := r.walkDoc(h, nil); err != nil {
		return fmt.Errorf("walk: %w", err)
	}
	if h.nodes == 0 {
		return errors.New("document walks to zero nodes")
	}
	// Invariant 8: the root signature covers the elements walked.
	root, release, err := r.borrow(nodeid.Root)
	if err != nil {
		return err
	}
	sig := root.Sig
	release()
	if missing := h.sig &^ sig; missing != 0 {
		return fmt.Errorf("root signature %#x misses element-name bits %#x", sig, missing)
	}
	return nil
}

// nodeCountHandler counts a walk's nodes and gathers its elements'
// signature.
type nodeCountHandler struct {
	nodes int
	sig   uint64
}

func (h *nodeCountHandler) StartDocument() error { return nil }
func (h *nodeCountHandler) EndDocument() error   { return nil }
func (h *nodeCountHandler) StartElement(name xml.QName, _ nodeid.ID) error {
	h.nodes++
	h.sig |= xml.SigBit(name.Local)
	return nil
}
func (h *nodeCountHandler) EndElement(nodeid.ID) error                     { return nil }
func (h *nodeCountHandler) NSDecl(xml.NameID, xml.NameID, nodeid.ID) error { h.nodes++; return nil }
func (h *nodeCountHandler) Attribute(xml.QName, []byte, xml.TypeID, nodeid.ID) error {
	h.nodes++
	return nil
}
func (h *nodeCountHandler) Text([]byte, xml.TypeID, nodeid.ID) error { h.nodes++; return nil }
func (h *nodeCountHandler) Comment([]byte, nodeid.ID) error          { h.nodes++; return nil }
func (h *nodeCountHandler) PI(xml.NameID, []byte, nodeid.ID) error   { h.nodes++; return nil }

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
