package pack

import (
	"bytes"
	"errors"
	"fmt"

	"rx/internal/nodeid"
	"rx/internal/tokens"
	"rx/internal/xml"
)

// MutNode is a mutable, decoded node used by subdocument updates (§3.1:
// "simple move and copy operations of subtrees"; §5.2 subdocument
// concurrency): a record is decoded into mutable trees, edited, and
// re-encoded. Node IDs are never re-assigned — the prefix encoding
// guarantees room for insertions — so index entries for untouched nodes
// remain valid.
type MutNode struct {
	Kind       xml.Kind
	Rel        nodeid.Rel
	Name       xml.QName
	Type       xml.TypeID
	Value      []byte
	ProxyCount int
	Children   []*MutNode
}

// Mutable decodes the record body into mutable top-level subtrees.
func (r *Record) Mutable() ([]*MutNode, error) {
	var tops []*MutNode
	off := 0
	for i := 0; i < r.SubtreeCount; i++ {
		n, err := r.DecodeNodeAt(off, r.ContextID)
		if err != nil {
			return nil, err
		}
		m, err := r.toMutable(n)
		if err != nil {
			return nil, err
		}
		tops = append(tops, m)
		off = n.end
	}
	return tops, nil
}

func (r *Record) toMutable(n Node) (*MutNode, error) {
	m := &MutNode{
		Kind:       n.Kind,
		Rel:        append(nodeid.Rel(nil), n.Rel...),
		Name:       n.Name,
		Type:       n.Type,
		Value:      append([]byte(nil), n.Value...),
		ProxyCount: n.ProxyCount,
	}
	if n.Kind == xml.Element {
		off := n.bodyStart
		for i := 0; i < n.EntryCount; i++ {
			c, err := r.DecodeNodeAt(off, n.Abs)
			if err != nil {
				return nil, err
			}
			cm, err := r.toMutable(c)
			if err != nil {
				return nil, err
			}
			m.Children = append(m.Children, cm)
			off = c.end
		}
	}
	return m, nil
}

// encodeMut serializes a mutable node.
func encodeMut(m *MutNode) []byte {
	switch m.Kind {
	case xml.Element:
		var body []byte
		for _, c := range m.Children {
			body = append(body, encodeMut(c)...)
		}
		var b []byte
		b = append(b, byte(xml.Element))
		b = append(b, m.Rel...)
		b = appendUvarint(b, uint64(m.Name.URI))
		b = appendUvarint(b, uint64(m.Name.Local))
		b = appendUvarint(b, uint64(m.Type))
		b = appendUvarint(b, uint64(len(m.Children)))
		b = appendUvarint(b, uint64(len(body)))
		return append(b, body...)
	case xml.Attribute:
		return encodeLeaf(nil, xml.Attribute, m.Rel, m.Name, m.Type, m.Value, 0, 0)
	case xml.Text:
		return encodeLeaf(nil, xml.Text, m.Rel, xml.QName{}, m.Type, m.Value, 0, 0)
	case xml.Comment:
		return encodeLeaf(nil, xml.Comment, m.Rel, xml.QName{}, 0, m.Value, 0, 0)
	case xml.ProcessingInstruction:
		return encodeLeaf(nil, xml.ProcessingInstruction, m.Rel, m.Name, 0, m.Value, 0, 0)
	case xml.Namespace:
		return encodeNamespace(nil, m.Rel, m.Name.Local, m.Name.URI)
	case xml.Proxy:
		var b []byte
		b = append(b, byte(xml.Proxy))
		b = append(b, m.Rel...)
		return appendUvarint(b, uint64(m.ProxyCount))
	default:
		panic(fmt.Sprintf("pack: encodeMut bad kind %v", m.Kind))
	}
}

// Encode re-assembles a record payload from mutable subtrees, preserving the
// original header fields.
func (r *Record) Encode(tops []*MutNode) []byte {
	var payload []byte
	payload = appendHeader(payload, r.ContextID, r.Sig, r.Path, r.NS, len(tops))
	for _, m := range tops {
		payload = append(payload, encodeMut(m)...)
	}
	return payload
}

// ErrNoSuchNode reports an edit target missing from the record.
var ErrNoSuchNode = errors.New("pack: no such node in record")

// FindMut locates the node with the given absolute ID among tops (the
// record's mutable subtrees under contextID), returning the node and its
// parent's child slice index (parent nil for a top-level subtree).
func FindMut(tops []*MutNode, contextID, target nodeid.ID) (parent *MutNode, idx int, node *MutNode, err error) {
	find := func(list []*MutNode, base nodeid.ID) (int, *MutNode, bool) {
		for i, m := range list {
			abs := nodeid.Append(base, m.Rel)
			if m.Kind == xml.Proxy {
				continue
			}
			if nodeid.Equal(abs, target) {
				return i, m, true
			}
			if nodeid.IsAncestor(abs, target) {
				return i, m, false // descend
			}
		}
		return -1, nil, false
	}
	base := contextID
	var list []*MutNode = tops
	var par *MutNode
	for {
		i, m, exact := find(list, base)
		if m == nil {
			return nil, 0, nil, fmt.Errorf("%w: %s", ErrNoSuchNode, target)
		}
		if exact {
			return par, i, m, nil
		}
		par = m
		base = nodeid.Append(base, m.Rel)
		list = m.Children
	}
}

// BuildMutFromTokens constructs a mutable subtree from a token stream
// holding exactly one element (a parsed fragment; nodes around the element
// are ignored) or, failing an element, one leaf node (a stored text,
// attribute, comment, PI or namespace node re-encoded on its own). The
// subtree's root gets rootRel; descendants get fresh sequential IDs.
func BuildMutFromTokens(stream []byte, rootRel nodeid.Rel) (*MutNode, error) {
	type frame struct {
		node *MutNode
		next int
	}
	var root, lone *MutNode
	var stack []frame
	add := func(m *MutNode) {
		if len(stack) == 0 {
			if lone == nil {
				lone = m
			}
			return
		}
		f := &stack[len(stack)-1]
		m.Rel = nodeid.RelAt(f.next)
		f.next++
		f.node.Children = append(f.node.Children, m)
	}
	r := tokens.NewReader(stream)
	for r.More() {
		t, err := r.Next()
		if err != nil {
			return nil, err
		}
		switch t.Kind {
		case tokens.StartDocument, tokens.EndDocument:
		case tokens.StartElement:
			m := &MutNode{Kind: xml.Element, Name: t.Name}
			if len(stack) == 0 {
				if root != nil {
					return nil, errors.New("pack: fragment must have exactly one root element")
				}
				root = m
			} else {
				add(m)
			}
			stack = append(stack, frame{node: m})
		case tokens.EndElement:
			stack = stack[:len(stack)-1]
		case tokens.Attr:
			add(&MutNode{Kind: xml.Attribute, Name: t.Name, Type: t.Type, Value: append([]byte(nil), t.Value...)})
		case tokens.NSDecl:
			add(&MutNode{Kind: xml.Namespace, Name: xml.QName{URI: t.URI, Local: t.Prefix}})
		case tokens.Text:
			add(&MutNode{Kind: xml.Text, Type: t.Type, Value: append([]byte(nil), t.Value...)})
		case tokens.Comment:
			add(&MutNode{Kind: xml.Comment, Value: append([]byte(nil), t.Value...)})
		case tokens.PI:
			add(&MutNode{Kind: xml.ProcessingInstruction, Name: t.Name, Value: append([]byte(nil), t.Value...)})
		}
	}
	if root == nil {
		root = lone
	}
	if root == nil {
		return nil, errors.New("pack: fragment has no node")
	}
	root.Rel = append(nodeid.Rel(nil), rootRel...)
	return root, nil
}

// EqualMut reports deep equality of mutable nodes (tests).
func EqualMut(a, b *MutNode) bool {
	if a.Kind != b.Kind || !bytes.Equal(a.Rel, b.Rel) || a.Name != b.Name ||
		a.Type != b.Type || !bytes.Equal(a.Value, b.Value) ||
		a.ProxyCount != b.ProxyCount || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !EqualMut(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}
