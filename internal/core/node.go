package core

import (
	"fmt"
	"io"

	"rx/internal/nodeid"
	"rx/internal/pack"
	"rx/internal/serialize"
	"rx/internal/vsax"
	"rx/internal/xml"
)

// stringValueVisitor accumulates descendant text.
type stringValueVisitor struct {
	out []byte
}

func (v *stringValueVisitor) Enter(n *pack.Node) (bool, error) {
	if n.Kind == xml.Text {
		v.out = append(v.out, n.Value...)
	}
	return true, nil
}

func (v *stringValueVisitor) Leave(*pack.Node) (bool, error) { return true, nil }

// NodeString returns the XPath string value of a stored node: the value of
// attribute/text/comment/PI nodes, or the concatenated descendant text of an
// element.
func (c *Collection) NodeString(doc xml.DocID, id nodeid.ID) ([]byte, error) {
	r, err := c.reader(doc)
	if err != nil {
		return nil, err
	}
	rec, release, n, err := r.find(id, nil)
	if err != nil {
		return nil, err
	}
	switch n.Kind {
	case xml.Attribute, xml.Text, xml.Comment, xml.ProcessingInstruction:
		// Copy-on-escape: n.Value aliases the pinned frame.
		out := append([]byte(nil), n.Value...)
		release()
		return out, nil
	case xml.Element:
		v := &stringValueVisitor{}
		if err := pack.WalkSubtree(rec, release, &n, r.borrow, v); err != nil {
			return nil, err
		}
		return v.out, nil
	default:
		release()
		return nil, fmt.Errorf("core: node %s has no string value (kind %v)", id, n.Kind)
	}
}

// NodeKind returns a stored node's kind and name.
func (c *Collection) NodeKind(doc xml.DocID, id nodeid.ID) (xml.Kind, xml.QName, error) {
	r, err := c.reader(doc)
	if err != nil {
		return 0, xml.QName{}, err
	}
	_, release, n, err := r.find(id, nil)
	if err != nil {
		return 0, xml.QName{}, err
	}
	release()
	return n.Kind, n.Name, nil
}

// SerializeNode writes a stored subtree as XML text. The record header's
// in-scope namespaces make the fragment self-contained (§3.1: "being
// self-contained when accessed from an XPath value index").
func (c *Collection) SerializeNode(doc xml.DocID, id nodeid.ID, w io.Writer) error {
	r, err := c.reader(doc)
	if err != nil {
		return err
	}
	rec, release, n, err := r.find(id, nil)
	if err != nil {
		return err
	}
	s := serialize.New(w, c.db.cat)
	if err := s.StartDocument(); err != nil {
		release()
		return err
	}
	// Make the record's in-scope namespaces visible to the fragment. The
	// serializer declares any that the fragment actually uses. rec.NS is
	// decoded into owned structs, so seeding it past the walk is safe.
	h := &nsSeedingHandler{Handler: s, seed: rec.NS, names: c.db.cat}
	if err := pack.WalkSubtree(rec, release, &n, r.borrow, visitorFor(h)); err != nil {
		return err
	}
	if err := s.EndDocument(); err != nil {
		return err
	}
	return s.Err()
}

// nsSeedingHandler injects the context node's in-scope namespace bindings as
// declarations on the fragment's outermost element.
type nsSeedingHandler struct {
	vsax.Handler
	seed   []pack.NSBinding
	names  xml.Names
	seeded bool
}

func (h *nsSeedingHandler) StartElement(name xml.QName, id nodeid.ID) error {
	if err := h.Handler.StartElement(name, id); err != nil {
		return err
	}
	if !h.seeded {
		h.seeded = true
		for _, b := range h.seed {
			if err := h.Handler.NSDecl(b.Prefix, b.URI, nil); err != nil {
				return err
			}
		}
	}
	return nil
}
