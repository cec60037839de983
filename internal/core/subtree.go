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
	levels := nodeid.Level(rootID)
	if levels < 1 {
		return nil, fmt.Errorf("core: subtree root %s is not an element below the root", rootID)
	}
	r, err := c.reader(doc)
	if err != nil {
		return nil, err
	}
	ancestors := make([]xml.QName, 0, levels) // root element down to rootID's parent
	rec, release, node, err := r.find(rootID, &ancestors)
	if err != nil {
		return nil, err
	}
	if levels-1 != len(ancestors) {
		release()
		return nil, fmt.Errorf("core: ancestor chain mismatch at %s (%d names for %d levels)",
			rootID, len(ancestors), levels-1)
	}
	e.Reset()
	e.StartDocument()
	// Synthesize the ancestors with their true node IDs (prefixes of
	// rootID), so matches report real positions.
	for i, name := range ancestors {
		id, _ := prefixAtLevel(rootID, i+1)
		e.StartElement(name, id)
	}
	if err := pack.WalkSubtree(rec, release, &node, r.borrow, evalVisitor{e}); err != nil {
		return nil, err
	}
	for lvl := len(ancestors); lvl > 0; lvl-- {
		id, _ := prefixAtLevel(rootID, lvl)
		e.EndElement(id)
	}
	return e.EndDocument()
}
