// Package serialize renders virtual SAX events back into XML text — the
// serialization service of Figure 8. It is one shared routine regardless of
// whether the events come from a token stream, stored records, constructed
// data, or an in-memory sequence.
//
// Start tags are buffered until the first content event so that the
// element's own namespace declarations (which follow the StartElement event)
// can be used when choosing prefixes; prefixes are invented only for URIs
// with no in-scope binding.
//
// Text goes into one output buffer the serializer keeps, written to the
// io.Writer whenever it passes flushAt bytes and when a top-level node ends
// (the root element, a fragment's element, a comment or PI outside them).
// The pending start tag, its attributes and the open elements' rendered
// names are values in reusable buffers, and escaping appends to the output
// buffer directly, so a warm serializer allocates nothing per node.
package serialize

import (
	"fmt"
	"io"

	"rx/internal/nodeid"
	"rx/internal/xml"
)

// Serializer implements vsax.Handler, writing XML text to an io.Writer. The
// output of a top-level node has reached the writer once its last event
// returned.
type Serializer struct {
	w     io.Writer
	names xml.Names

	err      error
	buf      []byte // output not yet written to w
	depth    int
	nsStack  []nsFrame
	genCount int
	// tags holds the open elements' rendered names (prefix:local) back to
	// back; ends[i] is where the i-th open element's name ends.
	tags    []byte
	ends    []int
	tagOpen bool // a flushed start tag still needs its '>'

	// The buffered start tag: its name, its own namespace declarations and
	// its attributes, whose values sit back to back in vals.
	pending bool
	name    xml.QName
	decls   []nsFrame
	attrs   []pendingAttr
	vals    []byte
}

type nsFrame struct {
	depth  int
	prefix string
	uri    xml.NameID
}

type pendingAttr struct {
	name xml.QName
	end  int // the value is vals[previous attribute's end:end]
}

// flushAt is the output buffer's size at which it is written out; a
// document smaller than this reaches the writer in one Write, when its root
// element ends.
const flushAt = 8 << 10

// keepAtMost is the largest buffer Reset keeps for the next document.
const keepAtMost = 64 << 10

// New creates a serializer writing to w, resolving name IDs via names.
func New(w io.Writer, names xml.Names) *Serializer {
	return &Serializer{w: w, names: names}
}

// Reset makes s a fresh serializer writing to w, keeping the capacity of its
// buffers (up to keepAtMost each), so a caller that serializes document
// after document can keep one.
func (s *Serializer) Reset(w io.Writer, names xml.Names) {
	*s = Serializer{
		w: w, names: names,
		buf: keep(s.buf), tags: keep(s.tags), vals: keep(s.vals),
		nsStack: s.nsStack[:0], ends: s.ends[:0], decls: s.decls[:0], attrs: s.attrs[:0],
	}
}

func keep(b []byte) []byte {
	if cap(b) > keepAtMost {
		return nil
	}
	return b[:0]
}

// Err returns the first error encountered.
func (s *Serializer) Err() error { return s.err }

// writeOut writes the buffered output to the writer and returns the first
// error encountered.
func (s *Serializer) writeOut() error {
	if s.err == nil && len(s.buf) > 0 {
		_, s.err = s.w.Write(s.buf)
	}
	s.buf = s.buf[:0]
	return s.err
}

// spill writes the output buffer out once it has grown past flushAt or a
// top-level node ended.
func (s *Serializer) spill() error {
	if len(s.buf) >= flushAt || s.depth == 0 {
		return s.writeOut()
	}
	return s.err
}

func (s *Serializer) write(str string) { s.buf = append(s.buf, str...) }

// findPrefix locates an unshadowed in-scope prefix for uri. For attributes
// the empty (default) prefix is not usable.
func (s *Serializer) findPrefix(uri xml.NameID, forAttr bool) (string, bool) {
	for i := len(s.nsStack) - 1; i >= 0; i-- {
		f := s.nsStack[i]
		if f.uri != uri || (forAttr && f.prefix == "") {
			continue
		}
		shadowed := false
		for j := len(s.nsStack) - 1; j > i; j-- {
			if s.nsStack[j].prefix == f.prefix {
				shadowed = true
				break
			}
		}
		if !shadowed {
			return f.prefix, true
		}
	}
	return "", false
}

// defaultNS returns the URI bound to the default prefix (NoName if none).
func (s *Serializer) defaultNS() xml.NameID {
	for i := len(s.nsStack) - 1; i >= 0; i-- {
		if s.nsStack[i].prefix == "" {
			return s.nsStack[i].uri
		}
	}
	return xml.NoName
}

// invent binds a generated prefix to uri at the current depth.
func (s *Serializer) invent(uri xml.NameID) nsFrame {
	s.genCount++
	f := nsFrame{depth: s.depth, prefix: fmt.Sprintf("ns%d", s.genCount), uri: uri}
	s.nsStack = append(s.nsStack, f)
	return f
}

// flush writes the buffered start tag, if any, leaving it open for '>' or
// '/>' at the next content or end event.
func (s *Serializer) flush() {
	if !s.pending || s.err != nil {
		return
	}
	s.pending = false
	local, err := s.names.Lookup(s.name.Local)
	if err != nil {
		s.err = err
		return
	}
	// Declarations this tag needs beyond its own go on nsStack from here.
	extra := len(s.nsStack)
	var prefix string
	switch {
	case s.name.URI == xml.NoName:
		// No namespace: the default namespace must not be bound here.
		if s.defaultNS() != xml.NoName {
			s.nsStack = append(s.nsStack, nsFrame{depth: s.depth, prefix: "", uri: xml.NoName})
		}
	default:
		p, ok := s.findPrefix(s.name.URI, false)
		if !ok {
			p = s.invent(s.name.URI).prefix
		}
		prefix = p
	}
	start := len(s.tags)
	if prefix != "" {
		s.tags = append(append(s.tags, prefix...), ':')
	}
	s.tags = append(s.tags, local...)
	s.ends = append(s.ends, len(s.tags))
	s.buf = append(append(s.buf, '<'), s.tags[start:]...)
	// Original declarations, then invented ones.
	for _, d := range s.decls {
		s.writeDecl(d)
	}
	for _, d := range s.nsStack[extra:] {
		s.writeDecl(d)
	}
	// Attributes (prefix resolution may invent further declarations).
	from := 0
	for _, a := range s.attrs {
		alocal, err := s.names.Lookup(a.name.Local)
		if err != nil {
			s.err = err
			return
		}
		var p string
		if a.name.URI != xml.NoName {
			var ok bool
			if p, ok = s.findPrefix(a.name.URI, true); !ok {
				f := s.invent(a.name.URI)
				s.writeDecl(f)
				p = f.prefix
			}
		}
		s.buf = append(s.buf, ' ')
		if p != "" {
			s.buf = append(append(s.buf, p...), ':')
		}
		s.write(alocal)
		s.write(`="`)
		s.buf = appendEscaped(s.buf, s.vals[from:a.end], true)
		s.buf = append(s.buf, '"')
		from = a.end
	}
	s.tagOpen = true
}

func (s *Serializer) writeDecl(d nsFrame) {
	u, err := s.names.Lookup(d.uri)
	if err != nil {
		s.err = err
		return
	}
	if d.prefix == "" {
		s.write(` xmlns="`)
	} else {
		s.write(` xmlns:`)
		s.write(d.prefix)
		s.write(`="`)
	}
	s.buf = appendEscaped(s.buf, u, true)
	s.buf = append(s.buf, '"')
}

// content prepares for writing element content: flush the pending tag and
// emit the '>' if the innermost start tag is still open.
func (s *Serializer) content() {
	if s.pending {
		s.flush()
	}
	if s.tagOpen {
		s.buf = append(s.buf, '>')
		s.tagOpen = false
	}
}

// StartDocument implements vsax.Handler.
func (s *Serializer) StartDocument() error { return s.err }

// EndDocument implements vsax.Handler.
func (s *Serializer) EndDocument() error { return s.writeOut() }

// StartElement implements vsax.Handler.
func (s *Serializer) StartElement(name xml.QName, _ nodeid.ID) error {
	if s.err != nil {
		return s.err
	}
	s.content()
	s.depth++
	s.pending, s.name = true, name
	s.decls, s.attrs, s.vals = s.decls[:0], s.attrs[:0], s.vals[:0]
	return s.err
}

// EndElement implements vsax.Handler.
func (s *Serializer) EndElement(nodeid.ID) error {
	if s.err != nil {
		return s.err
	}
	empty := s.pending
	if empty {
		if s.flush(); s.err != nil {
			return s.err
		}
	}
	// The element's rendered name is the top of the tag stack.
	top, start := len(s.ends)-1, 0
	if top > 0 {
		start = s.ends[top-1]
	}
	switch {
	case empty:
		s.write("/>")
	case s.tagOpen:
		s.buf = append(append(append(s.buf, "></"...), s.tags[start:]...), '>')
	default:
		s.buf = append(append(append(s.buf, "</"...), s.tags[start:]...), '>')
	}
	s.tagOpen = false
	s.tags, s.ends = s.tags[:start], s.ends[:top]
	for len(s.nsStack) > 0 && s.nsStack[len(s.nsStack)-1].depth == s.depth {
		s.nsStack = s.nsStack[:len(s.nsStack)-1]
	}
	s.depth--
	return s.spill()
}

// NSDecl implements vsax.Handler.
func (s *Serializer) NSDecl(prefix, uri xml.NameID, _ nodeid.ID) error {
	if s.err != nil {
		return s.err
	}
	p, err := s.names.Lookup(prefix)
	if err != nil {
		s.err = err
		return err
	}
	f := nsFrame{depth: s.depth, prefix: p, uri: uri}
	s.nsStack = append(s.nsStack, f)
	if s.pending {
		s.decls = append(s.decls, f)
	}
	return s.err
}

// Attribute implements vsax.Handler.
func (s *Serializer) Attribute(name xml.QName, value []byte, _ xml.TypeID, _ nodeid.ID) error {
	if !s.pending {
		return fmt.Errorf("serialize: attribute outside a start tag")
	}
	s.vals = append(s.vals, value...)
	s.attrs = append(s.attrs, pendingAttr{name: name, end: len(s.vals)})
	return s.err
}

// Text implements vsax.Handler.
func (s *Serializer) Text(value []byte, _ xml.TypeID, _ nodeid.ID) error {
	if s.err != nil {
		return s.err
	}
	s.content()
	s.buf = appendEscaped(s.buf, value, false)
	return s.spill()
}

// Comment implements vsax.Handler.
func (s *Serializer) Comment(value []byte, _ nodeid.ID) error {
	if s.err != nil {
		return s.err
	}
	s.content()
	s.write("<!--")
	s.buf = append(s.buf, value...)
	s.write("-->")
	return s.spill()
}

// PI implements vsax.Handler.
func (s *Serializer) PI(target xml.NameID, value []byte, _ nodeid.ID) error {
	if s.err != nil {
		return s.err
	}
	s.content()
	t, err := s.names.Lookup(target)
	if err != nil {
		s.err = err
		return err
	}
	s.write("<?")
	s.write(t)
	if len(value) > 0 {
		s.buf = append(append(s.buf, ' '), value...)
	}
	s.write("?>")
	return s.spill()
}

// appendEscaped appends v to dst with the markup characters of text content
// (&, <, >) or of a double-quoted attribute value (&, <, ") escaped.
func appendEscaped[T string | []byte](dst []byte, v T, attr bool) []byte {
	from := 0
	for i := 0; i < len(v); i++ {
		var esc string
		switch c := v[i]; {
		case c == '&':
			esc = "&amp;"
		case c == '<':
			esc = "&lt;"
		case c == '>' && !attr:
			esc = "&gt;"
		case c == '"' && attr:
			esc = "&quot;"
		default:
			continue
		}
		dst = append(append(dst, v[from:i]...), esc...)
		from = i + 1
	}
	return append(dst, v[from:]...)
}
