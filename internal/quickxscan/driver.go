package quickxscan

import (
	"rx/internal/nodeid"
	"rx/internal/tokens"
)

// EvalTokens runs the evaluator over a buffered token stream, synthesizing
// node IDs exactly as the packer assigns them (so matches against streamed
// documents and stored documents carry identical IDs). The evaluator is
// Reset first, so one compiled query can scan many documents — this is also
// the value-index key generation path of §3.3, which evaluates "a simplified
// version of our streaming XPath algorithm" per inserted document.
func EvalTokens(e *Eval, stream []byte) ([]Match, error) {
	e.Reset()
	r := tokens.NewReader(stream)
	// The evaluator's ID stack holds the current node's absolute ID in one
	// shared buffer; event consumers only read IDs during the event
	// (finalize copies what a candidate keeps), so no per-node allocation is
	// needed.
	ids := &e.ids
	ids.Reset(nodeid.Root)
	for r.More() {
		t, err := r.Next()
		if err != nil {
			return nil, err
		}
		switch t.Kind {
		case tokens.StartDocument:
			e.StartDocument()
			ids.Reset(nodeid.Root)
		case tokens.EndDocument:
			return e.EndDocument()
		case tokens.StartElement:
			e.StartElement(t.Name, ids.PushNext())
			ids.Descend()
		case tokens.EndElement:
			e.EndElement(ids.Ascend())
		case tokens.Attr:
			e.Attribute(t.Name, t.Value, ids.PushNext())
		case tokens.NSDecl, tokens.PI:
			ids.SkipSlot() // occupy an ID slot; neither is matched
		case tokens.Text:
			e.Text(t.Value, ids.PushNext())
		case tokens.Comment:
			e.Comment(t.Value, ids.PushNext())
		}
	}
	return e.EndDocument()
}
