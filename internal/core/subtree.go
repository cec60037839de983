package core

import (
	"fmt"

	"rx/internal/nodeid"
	"rx/internal/pack"
	"rx/internal/quickxscan"
	"rx/internal/xml"
)

// Subtree-scoped evaluation (§4.3: "For large documents, the DocID list
// access is no longer efficient. Instead, the NodeID list access applies").
// A candidate node reached through a value index is re-evaluated without
// touching the rest of the document: the record header's context path and
// in-scope namespaces make the record self-contained (§3.1), so the
// ancestor StartElement events of a rooted query can be synthesized and the
// walk restricted to the candidate subtree.

// ancestorChain returns the element names from the root down to (and
// including) the node's parent.
func (c *Collection) ancestorChain(doc xml.DocID, id nodeid.ID) ([]xml.QName, error) {
	rid, err := c.lookupCur(doc, id)
	if err != nil {
		return nil, fmt.Errorf("%w: doc %d node %s", ErrNotFound, doc, id)
	}
	rec, err := c.fetchRecord(rid)
	if err != nil {
		return nil, err
	}
	// Names root→context come from the header; the rest from the in-record
	// descent.
	names := append([]xml.QName(nil), rec.Path...)
	cur := rec.ContextID
	for !nodeid.Equal(cur, id) {
		// Walk one level at a time from cur toward id, recording names.
		next, err := childOnPath(rec, cur, id)
		if err != nil {
			return nil, err
		}
		if next == nil {
			return nil, fmt.Errorf("%w: doc %d node %s", ErrNotFound, doc, id)
		}
		if nodeid.Equal(next.Abs, id) {
			break
		}
		names = append(names, next.Name)
		cur = next.Abs
	}
	return names, nil
}

// childOnPath finds the record entry under parent that is id or an ancestor
// of id.
func childOnPath(rec *pack.Record, parent nodeid.ID, id nodeid.ID) (*pack.Node, error) {
	var out *pack.Node
	visit := func(n pack.Node) (bool, error) {
		if n.IsProxy() {
			return true, nil
		}
		if nodeid.IsAncestorOrSelf(n.Abs, id) {
			cp := n
			out = &cp
			return false, nil
		}
		return true, nil
	}
	if nodeid.Equal(rec.ContextID, parent) {
		if err := rec.Top(visit); err != nil {
			return nil, err
		}
		return out, nil
	}
	p, found, err := rec.Find(parent)
	if err != nil || !found {
		return nil, fmt.Errorf("core: parent %s not in record", parent)
	}
	if err := rec.Children(&p, visit); err != nil {
		return nil, err
	}
	return out, nil
}

// evalSubtree runs a compiled rooted query against a single subtree,
// synthesizing the ancestor element events so rooted spines match. Only
// valid for queries whose predicates all hang on the result step: ancestor
// predicates would need content outside the subtree.
func (c *Collection) evalSubtree(doc xml.DocID, rootID nodeid.ID, e *quickxscan.Eval) ([]quickxscan.Match, error) {
	// The ancestor chain needs its own index lookups, so derive it before
	// taking the zero-copy borrow on the candidate's record: a borrow must
	// never be held across B+tree access (single-borrow rule).
	ancestors, err := c.ancestorChain(doc, rootID)
	if err != nil {
		return nil, err
	}
	rels, err := nodeid.Split(rootID)
	if err != nil {
		return nil, err
	}
	if len(rels)-1 != len(ancestors) {
		return nil, fmt.Errorf("core: ancestor chain mismatch at %s (%d names for %d levels)",
			rootID, len(ancestors), len(rels)-1)
	}
	e.Reset()
	e.StartDocument()
	// Synthesize the ancestors with their true node IDs (prefixes of
	// rootID), so matches report real positions.
	length := 0 // of the innermost open ancestor's ID
	for i, name := range ancestors {
		length += len(rels[i])
		e.StartElement(name, rootID[:length])
	}
	rec, release, node, err := c.findNodeBorrowed(doc, rootID)
	if err != nil {
		return nil, err
	}
	if err := pack.WalkSubtreeBorrowed(rec, release, &node, c.borrowFetcher(doc), evalVisitor{e}); err != nil {
		return nil, err
	}
	for i := len(ancestors) - 1; i >= 0; i-- {
		e.EndElement(rootID[:length])
		length -= len(rels[i])
	}
	return e.EndDocument()
}
