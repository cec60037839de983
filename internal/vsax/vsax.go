// Package vsax defines the "virtual SAX" event interface of §4.4 (Figure
// 8): one set of event routines shared by every task (serialization, tree
// construction, XPath evaluation), with an iterator per data format (token
// stream, persistent packed records, constructed data, in-memory DOM)
// converting its items into events. This is how the engine avoids building
// a unified in-memory tree and avoids copying between formats.
package vsax

import (
	"rx/internal/dom"
	"rx/internal/nodeid"
	"rx/internal/tokens"
	"rx/internal/xml"
)

// Handler receives virtual SAX events. Node IDs accompany every node event:
// iterators over stored data pass real IDs, iterators over transient data
// synthesize packer-identical ones.
//
// Value slices AND node IDs are valid only for the duration of the callback.
// Iterators over stored data serve values zero-copy from pinned buffer-pool
// frames that are released as the walk advances, and every iterator keeps
// the current node's ID in one reusable buffer (nodeid.Stack) that the next
// event overwrites. A handler that retains either beyond its event must copy
// it — the copy-on-retain idiom:
//
//	kept := nodeid.Clone(id)
//	val := append([]byte(nil), value...)
//
// (Only FromDOM passes IDs and values that outlive the event, because the
// tree owns them; handlers must not rely on that.)
type Handler interface {
	StartDocument() error
	EndDocument() error
	StartElement(name xml.QName, id nodeid.ID) error
	EndElement(id nodeid.ID) error
	NSDecl(prefix, uri xml.NameID, id nodeid.ID) error
	Attribute(name xml.QName, value []byte, typ xml.TypeID, id nodeid.ID) error
	Text(value []byte, typ xml.TypeID, id nodeid.ID) error
	Comment(value []byte, id nodeid.ID) error
	PI(target xml.NameID, value []byte, id nodeid.ID) error
}

// SubtreeSkipper is an optional interface a Handler may implement to let an
// iterator over stored data step over content that cannot affect the
// handler's outcome. Iterators look it up once per walk, not per node.
// Immediately after StartElement returned for an element that has content,
// the iterator asks CanSkipSubtree; on true it delivers no event for anything
// inside the element — stored records skip the bytes using the length the
// element header carries, and never fetch the records its content was packed
// into — and goes straight to the element's EndElement. A handler that does
// not implement it (the serializer, TokenSink, counting handlers) sees every
// node, which is the reference behaviour skipping is tested against.
type SubtreeSkipper interface {
	CanSkipSubtree() bool
}

// FromTokens drives a handler from a buffered token stream, synthesizing
// node IDs exactly as the packer assigns them.
func FromTokens(stream []byte, h Handler) error {
	r := tokens.NewReader(stream)
	var ids nodeid.Stack
	ids.Reset(nodeid.Root)
	for r.More() {
		t, err := r.Next()
		if err != nil {
			return err
		}
		switch t.Kind {
		case tokens.StartDocument:
			err = h.StartDocument()
		case tokens.EndDocument:
			err = h.EndDocument()
		case tokens.StartElement:
			err = h.StartElement(t.Name, ids.PushNext())
			ids.Descend()
		case tokens.EndElement:
			err = h.EndElement(ids.Ascend())
		case tokens.NSDecl:
			err = h.NSDecl(t.Prefix, t.URI, ids.PushNext())
		case tokens.Attr:
			err = h.Attribute(t.Name, t.Value, t.Type, ids.PushNext())
		case tokens.Text:
			err = h.Text(t.Value, t.Type, ids.PushNext())
		case tokens.Comment:
			err = h.Comment(t.Value, ids.PushNext())
		case tokens.PI:
			err = h.PI(t.Name.Local, t.Value, ids.PushNext())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// FromDOM drives a handler from an in-memory tree (a document or any
// subtree).
func FromDOM(n *dom.Node, h Handler) error {
	if n.Kind == xml.Document {
		if err := h.StartDocument(); err != nil {
			return err
		}
		for _, k := range n.Kids {
			if err := FromDOM(k, h); err != nil {
				return err
			}
		}
		return h.EndDocument()
	}
	switch n.Kind {
	case xml.Element:
		if err := h.StartElement(n.Name, n.ID); err != nil {
			return err
		}
		for _, a := range n.Attrs {
			switch a.Kind {
			case xml.Namespace:
				if err := h.NSDecl(a.Name.Local, a.Name.URI, a.ID); err != nil {
					return err
				}
			case xml.Attribute:
				if err := h.Attribute(a.Name, a.Value, a.Type, a.ID); err != nil {
					return err
				}
			}
		}
		for _, k := range n.Kids {
			if err := FromDOM(k, h); err != nil {
				return err
			}
		}
		return h.EndElement(n.ID)
	case xml.Text:
		return h.Text(n.Value, n.Type, n.ID)
	case xml.Comment:
		return h.Comment(n.Value, n.ID)
	case xml.ProcessingInstruction:
		return h.PI(n.Name.Local, n.Value, n.ID)
	case xml.Attribute:
		return h.Attribute(n.Name, n.Value, n.Type, n.ID)
	}
	return nil
}

// TokenSink is a Handler that re-encodes events as a token stream — the
// shared tree-construction routine of Figure 8 (its output feeds the
// packer).
type TokenSink struct {
	W *tokens.Writer
}

// StartDocument implements Handler.
func (s *TokenSink) StartDocument() error { s.W.StartDocument(); return nil }

// EndDocument implements Handler.
func (s *TokenSink) EndDocument() error { s.W.EndDocument(); return nil }

// StartElement implements Handler.
func (s *TokenSink) StartElement(name xml.QName, _ nodeid.ID) error {
	s.W.StartElement(name)
	return nil
}

// EndElement implements Handler.
func (s *TokenSink) EndElement(nodeid.ID) error { s.W.EndElement(); return nil }

// NSDecl implements Handler.
func (s *TokenSink) NSDecl(prefix, uri xml.NameID, _ nodeid.ID) error {
	s.W.Namespace(prefix, uri)
	return nil
}

// Attribute implements Handler.
func (s *TokenSink) Attribute(name xml.QName, value []byte, typ xml.TypeID, _ nodeid.ID) error {
	s.W.Attribute(name, value, typ)
	return nil
}

// Text implements Handler.
func (s *TokenSink) Text(value []byte, typ xml.TypeID, _ nodeid.ID) error {
	s.W.Text(value, typ)
	return nil
}

// Comment implements Handler.
func (s *TokenSink) Comment(value []byte, _ nodeid.ID) error {
	s.W.Comment(value)
	return nil
}

// PI implements Handler.
func (s *TokenSink) PI(target xml.NameID, value []byte, _ nodeid.ID) error {
	s.W.ProcessingInstruction(target, value)
	return nil
}
