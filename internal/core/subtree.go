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

// evalSubtree runs a compiled rooted query against a single subtree,
// synthesizing the ancestor element events so rooted spines match. Only
// valid for queries whose predicates all hang on the result step: ancestor
// predicates would need content outside the subtree. One NodeID-index probe
// and one record borrow serve both the ancestor names — the record header's
// context path plus the in-record descent — and the walk.
func (c *Collection) evalSubtree(doc xml.DocID, rootID nodeid.ID, e *quickxscan.Eval) ([]quickxscan.Match, error) {
	rels, err := nodeid.Split(rootID)
	if err != nil {
		return nil, err
	}
	r, err := c.reader(doc)
	if err != nil {
		return nil, err
	}
	ancestors := make([]xml.QName, 0, len(rels)) // root element down to rootID's parent
	rec, release, node, err := r.find(rootID, &ancestors)
	if err != nil {
		return nil, err
	}
	if len(rels)-1 != len(ancestors) {
		release()
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
	if err := pack.WalkSubtree(rec, release, &node, r.borrow, evalVisitor{e}); err != nil {
		return nil, err
	}
	for i := len(ancestors) - 1; i >= 0; i-- {
		e.EndElement(rootID[:length])
		length -= len(rels[i])
	}
	return e.EndDocument()
}
