// Package xmlparse is the custom non-validating XML parser of Figure 4: it
// turns serialized XML into the buffered token stream, resolving namespace
// prefixes and adjusting namespace/attribute order along the way (§3.2).
// Validation is a separate path (package xmlschema) that consumes the same
// raw input and produces a type-annotated stream.
//
// The parser operates on a byte slice with no intermediate tree or
// per-event callbacks — the output is one contiguous token buffer.
package xmlparse

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"rx/internal/arena"
	"rx/internal/tokens"
	"rx/internal/xml"
)

// Options control parsing.
type Options struct {
	// PreserveWhitespace keeps whitespace-only text nodes. The default
	// (false) strips them, the usual choice for data-centric XML storage.
	PreserveWhitespace bool
	// Arena, when non-nil, supplies the token buffer and parser scratch
	// memory. The returned stream is only valid until the arena's next
	// Reset (see package arena's lifetime rule).
	Arena *arena.Arena
}

// SyntaxError reports a well-formedness violation with its byte offset.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xmlparse: offset %d: %s", e.Offset, e.Msg)
}

// Parse parses doc into a fresh token stream using the name dictionary.
func Parse(doc []byte, names xml.Names, opts Options) ([]byte, error) {
	var w *tokens.Writer
	if opts.Arena != nil {
		w = tokens.NewWriterBuf(opts.Arena.Make(len(doc) + len(doc)/4))
	} else {
		w = tokens.NewWriter(len(doc) + len(doc)/4)
	}
	if err := ParseTo(doc, names, opts, w); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// parsers recycles parser structs (with their scratch buffers and name
// cache) across calls; steady-state parsing allocates almost nothing beyond
// the token stream itself.
var parsers = sync.Pool{New: func() any { return &parser{} }}

// maxNameCache bounds the per-parser name-string cache so a stream of
// documents with ever-new names cannot grow it without bound.
const maxNameCache = 4096

// ParseTo parses doc, appending tokens to w.
func ParseTo(doc []byte, names xml.Names, opts Options, w *tokens.Writer) error {
	p := parsers.Get().(*parser)
	p.src, p.pos, p.names, p.opts, p.arena, p.w = doc, 0, names, opts, opts.Arena, w
	p.nsStack, p.depth = p.nsStack[:0], 0
	p.attrs, p.raw, p.text = p.attrs[:0], p.raw[:0], p.text[:0]
	if p.strs == nil || len(p.strs) > maxNameCache {
		p.strs = make(map[string]string)
	}
	err := p.document()
	// Drop references into caller data before pooling: attr values alias the
	// source document and would pin it.
	p.src, p.names, p.w, p.arena = nil, nil, nil, nil
	clearAttrs(p.attrs)
	clearRaw(p.raw)
	parsers.Put(p)
	return err
}

func clearAttrs(s []attr) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = attr{}
	}
}

func clearRaw(s []rawAttr) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = rawAttr{}
	}
}

type nsBinding struct {
	prefix string
	uri    string
	depth  int
}

type parser struct {
	src   []byte
	pos   int
	names xml.Names
	opts  Options
	arena *arena.Arena
	w     *tokens.Writer

	nsStack []nsBinding
	depth   int
	// scratch buffers reused across elements. text and raw are safe to
	// share across the recursion: text is always flushed (empty) before
	// descending into a child element, and raw is consumed before content
	// parsing begins, so only one stack level ever has live data in them.
	attrs []attr
	raw   []rawAttr
	text  []byte
	// strs interns name strings across documents (the pool keeps parsers
	// alive), so repeated element/attribute names cost no allocation.
	strs map[string]string
}

type attr struct {
	prefix, local string
	uri           string
	value         []byte
}

// attrLess orders attributes by (namespace URI, local name), the adjusted
// document-order rule for attribute emission.
func attrLess(a, b *attr) bool {
	if a.uri != b.uri {
		return a.uri < b.uri
	}
	return a.local < b.local
}

type rawAttr struct {
	prefix, local string
	value         []byte
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) document() error {
	p.w.StartDocument()
	p.skipProlog()
	if p.pos >= len(p.src) || p.src[p.pos] != '<' {
		return p.errf("expected root element")
	}
	if err := p.element(); err != nil {
		return err
	}
	// Trailing misc: whitespace, comments, PIs only.
	for p.pos < len(p.src) {
		if p.isSpace(p.src[p.pos]) {
			p.pos++
			continue
		}
		if p.has("<!--") {
			if err := p.comment(); err != nil {
				return err
			}
			continue
		}
		if p.has("<?") {
			if err := p.pi(); err != nil {
				return err
			}
			continue
		}
		return p.errf("content after root element")
	}
	p.w.EndDocument()
	return nil
}

func (p *parser) skipProlog() {
	for p.pos < len(p.src) {
		switch {
		case p.isSpace(p.src[p.pos]):
			p.pos++
		case p.has("<?xml") && p.pos+5 < len(p.src) && p.isSpace(p.src[p.pos+5]):
			// XML declaration: skip to ?>.
			end := bytes.Index(p.src[p.pos:], []byte("?>"))
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			p.pos += end + 2
		case p.has("<?"):
			if err := p.pi(); err != nil {
				return
			}
		case p.has("<!--"):
			if err := p.comment(); err != nil {
				return
			}
		case p.has("<!DOCTYPE"):
			p.skipDoctype()
		default:
			return
		}
	}
}

func (p *parser) skipDoctype() {
	depth := 0
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				p.pos++
				return
			}
		}
		p.pos++
	}
}

func (p *parser) has(s string) bool {
	return p.pos+len(s) <= len(p.src) && string(p.src[p.pos:p.pos+len(s)]) == s
}

func (p *parser) isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && p.isSpace(p.src[p.pos]) {
		p.pos++
	}
}

func isNameStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

// name scans an XML name (without colon) at the current position.
func (p *parser) name() (string, error) {
	start := p.pos
	if p.pos >= len(p.src) || !isNameStart(p.src[p.pos]) {
		return "", p.errf("expected name")
	}
	p.pos++
	for p.pos < len(p.src) && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	return p.nameStr(p.src[start:p.pos]), nil
}

// nameStr converts a scanned name to a string through the intern cache; a
// hit performs no allocation (the compiler elides the conversion in the map
// lookup).
func (p *parser) nameStr(b []byte) string {
	if s, ok := p.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	p.strs[s] = s
	return s
}

// qname scans prefix:local or local.
func (p *parser) qname() (prefix, local string, err error) {
	n1, err := p.name()
	if err != nil {
		return "", "", err
	}
	if p.pos < len(p.src) && p.src[p.pos] == ':' {
		p.pos++
		n2, err := p.name()
		if err != nil {
			return "", "", err
		}
		return n1, n2, nil
	}
	return "", n1, nil
}

// resolve maps a prefix to its bound URI at the current depth.
func (p *parser) resolve(prefix string, isAttr bool) (string, error) {
	if prefix == "xml" {
		return "http://www.w3.org/XML/1998/namespace", nil
	}
	if prefix == "" && isAttr {
		return "", nil // unprefixed attributes are in no namespace
	}
	for i := len(p.nsStack) - 1; i >= 0; i-- {
		if p.nsStack[i].prefix == prefix {
			return p.nsStack[i].uri, nil
		}
	}
	if prefix == "" {
		return "", nil // no default namespace bound
	}
	return "", p.errf("unbound namespace prefix %q", prefix)
}

func (p *parser) intern(s string) (xml.NameID, error) {
	return p.names.Intern(s)
}

// element parses an element (the '<' is at the current position).
func (p *parser) element() error {
	openPos := p.pos
	p.pos++ // consume '<'
	prefix, local, err := p.qname()
	if err != nil {
		return err
	}
	p.depth++
	nsBase := len(p.nsStack)

	// Scan attributes, separating namespace declarations.
	p.attrs = p.attrs[:0]
	p.raw = p.raw[:0]
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return p.errf("unterminated start tag for <%s>", local)
		}
		if p.src[p.pos] == '>' || p.has("/>") {
			break
		}
		apfx, aloc, err := p.qname()
		if err != nil {
			return err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != '=' {
			return p.errf("expected '=' after attribute %s", aloc)
		}
		p.pos++
		p.skipSpace()
		val, err := p.attrValue()
		if err != nil {
			return err
		}
		switch {
		case apfx == "" && aloc == "xmlns":
			p.nsStack = append(p.nsStack, nsBinding{prefix: "", uri: string(val), depth: p.depth})
		case apfx == "xmlns":
			if len(val) == 0 {
				return p.errf("empty namespace URI for prefix %s", aloc)
			}
			p.nsStack = append(p.nsStack, nsBinding{prefix: aloc, uri: string(val), depth: p.depth})
		default:
			p.raw = append(p.raw, rawAttr{prefix: apfx, local: aloc, value: val})
		}
	}

	// Resolve and emit the element name.
	uri, err := p.resolve(prefix, false)
	if err != nil {
		return err
	}
	uriID, err := p.intern(uri)
	if err != nil {
		return err
	}
	localID, err := p.intern(local)
	if err != nil {
		return err
	}
	p.w.StartElement(xml.QName{URI: uriID, Local: localID})

	// Emit namespace declarations (adjusted order: sorted by prefix).
	decls := p.nsStack[nsBase:]
	for i := 1; i < len(decls); i++ {
		for j := i; j > 0 && decls[j].prefix < decls[j-1].prefix; j-- {
			decls[j], decls[j-1] = decls[j-1], decls[j]
		}
	}
	for _, d := range decls {
		pfxID, err := p.intern(d.prefix)
		if err != nil {
			return err
		}
		uID, err := p.intern(d.uri)
		if err != nil {
			return err
		}
		p.w.Namespace(pfxID, uID)
	}

	// Resolve attributes, check duplicates, emit in adjusted (sorted) order.
	p.attrs = p.attrs[:0]
	for _, a := range p.raw {
		auri, err := p.resolve(a.prefix, true)
		if err != nil {
			return err
		}
		p.attrs = append(p.attrs, attr{prefix: a.prefix, local: a.local, uri: auri, value: a.value})
	}
	// Insertion sort: attribute lists are short, and sort.Slice would
	// allocate a closure and swapper per element.
	for i := 1; i < len(p.attrs); i++ {
		for j := i; j > 0 && attrLess(&p.attrs[j], &p.attrs[j-1]); j-- {
			p.attrs[j], p.attrs[j-1] = p.attrs[j-1], p.attrs[j]
		}
	}
	for i, a := range p.attrs {
		if i > 0 && p.attrs[i-1].uri == a.uri && p.attrs[i-1].local == a.local {
			p.pos = openPos
			return p.errf("duplicate attribute %s on <%s>", a.local, local)
		}
		auriID, err := p.intern(a.uri)
		if err != nil {
			return err
		}
		alocID, err := p.intern(a.local)
		if err != nil {
			return err
		}
		p.w.Attribute(xml.QName{URI: auriID, Local: alocID}, a.value, xml.Untyped)
	}

	// Empty element?
	if p.has("/>") {
		p.pos += 2
		p.w.EndElement()
		p.popNS(nsBase)
		p.depth--
		return nil
	}
	p.pos++ // consume '>'

	// Content.
	if err := p.content(local, prefix); err != nil {
		return err
	}
	p.w.EndElement()
	p.popNS(nsBase)
	p.depth--
	return nil
}

func (p *parser) popNS(base int) { p.nsStack = p.nsStack[:base] }

// content parses element content up to and including the matching end tag.
func (p *parser) content(local, prefix string) error {
	flush := func() {
		if len(p.text) == 0 {
			return
		}
		if !p.opts.PreserveWhitespace && isAllSpace(p.text) {
			p.text = p.text[:0]
			return
		}
		p.w.Text(p.text, xml.Untyped)
		p.text = p.text[:0]
	}
	for {
		if p.pos >= len(p.src) {
			return p.errf("unexpected end of input inside <%s>", local)
		}
		c := p.src[p.pos]
		if c != '<' {
			start := p.pos
			for p.pos < len(p.src) && p.src[p.pos] != '<' && p.src[p.pos] != '&' {
				p.pos++
			}
			p.text = append(p.text, p.src[start:p.pos]...)
			if p.pos < len(p.src) && p.src[p.pos] == '&' {
				r, err := p.entity()
				if err != nil {
					return err
				}
				p.text = append(p.text, r...)
			}
			continue
		}
		switch {
		case p.has("</"):
			flush()
			p.pos += 2
			epfx, eloc, err := p.qname()
			if err != nil {
				return err
			}
			if eloc != local || epfx != prefix {
				return p.errf("mismatched end tag </%s>, expected </%s>", eloc, local)
			}
			p.skipSpace()
			if p.pos >= len(p.src) || p.src[p.pos] != '>' {
				return p.errf("malformed end tag")
			}
			p.pos++
			return nil
		case p.has("<!--"):
			flush()
			if err := p.comment(); err != nil {
				return err
			}
		case p.has("<![CDATA["):
			p.pos += 9
			end := bytes.Index(p.src[p.pos:], []byte("]]>"))
			if end < 0 {
				return p.errf("unterminated CDATA section")
			}
			p.text = append(p.text, p.src[p.pos:p.pos+end]...)
			p.pos += end + 3
		case p.has("<?"):
			flush()
			if err := p.pi(); err != nil {
				return err
			}
		default:
			flush()
			if err := p.element(); err != nil {
				return err
			}
		}
	}
}

func isAllSpace(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}

// entity decodes an entity/character reference at '&'.
func (p *parser) entity() ([]byte, error) {
	start := p.pos
	p.pos++ // '&'
	end := p.pos
	for end < len(p.src) && p.src[end] != ';' {
		end++
		if end-start > 12 {
			break
		}
	}
	if end >= len(p.src) || p.src[end] != ';' {
		p.pos = start
		return nil, p.errf("malformed entity reference")
	}
	ref := string(p.src[p.pos:end])
	p.pos = end + 1
	switch ref {
	case "amp":
		return []byte("&"), nil
	case "lt":
		return []byte("<"), nil
	case "gt":
		return []byte(">"), nil
	case "apos":
		return []byte("'"), nil
	case "quot":
		return []byte(`"`), nil
	}
	if len(ref) > 1 && ref[0] == '#' {
		var n int64
		var err error
		if ref[1] == 'x' || ref[1] == 'X' {
			n, err = strconv.ParseInt(ref[2:], 16, 32)
		} else {
			n, err = strconv.ParseInt(ref[1:], 10, 32)
		}
		if err != nil || n < 0 || n > 0x10FFFF {
			p.pos = start
			return nil, p.errf("bad character reference &%s;", ref)
		}
		return []byte(string(rune(n))), nil
	}
	p.pos = start
	return nil, p.errf("unknown entity &%s;", ref)
}

// attrValue parses a quoted attribute value with entity expansion. Values
// without entity references — the overwhelmingly common case — are returned
// as subslices of the input with no allocation (the token writer copies
// them); values with entities expand into arena scratch.
func (p *parser) attrValue() ([]byte, error) {
	if p.pos >= len(p.src) || (p.src[p.pos] != '"' && p.src[p.pos] != '\'') {
		return nil, p.errf("expected quoted attribute value")
	}
	q := p.src[p.pos]
	p.pos++
	start := p.pos
	i := start
	for i < len(p.src) && p.src[i] != q && p.src[i] != '&' && p.src[i] != '<' {
		i++
	}
	if i < len(p.src) && p.src[i] == q {
		p.pos = i + 1
		return p.src[start:i:i], nil
	}
	// Slow path: expand entities. The raw span bounds the expanded size
	// (expansions only shrink), so the scratch rarely spills past its cap.
	j := i
	for j < len(p.src) && p.src[j] != q {
		j++
	}
	out := append(p.arena.Make(j-start), p.src[start:i]...)
	p.pos = i
	for {
		if p.pos >= len(p.src) {
			return nil, p.errf("unterminated attribute value")
		}
		c := p.src[p.pos]
		switch c {
		case q:
			p.pos++
			return out, nil
		case '&':
			r, err := p.entity()
			if err != nil {
				return nil, err
			}
			out = append(out, r...)
		case '<':
			return nil, p.errf("'<' in attribute value")
		default:
			out = append(out, c)
			p.pos++
		}
	}
}

func (p *parser) comment() error {
	p.pos += 4 // <!--
	end := bytes.Index(p.src[p.pos:], []byte("-->"))
	if end < 0 {
		return p.errf("unterminated comment")
	}
	p.w.Comment(p.src[p.pos : p.pos+end])
	p.pos += end + 3
	return nil
}

func (p *parser) pi() error {
	p.pos += 2 // <?
	target, err := p.name()
	if err != nil {
		return err
	}
	if strings.EqualFold(target, "xml") {
		return p.errf("reserved PI target %q", target)
	}
	p.skipSpace()
	end := bytes.Index(p.src[p.pos:], []byte("?>"))
	if end < 0 {
		return p.errf("unterminated processing instruction")
	}
	targetID, err := p.intern(target)
	if err != nil {
		return err
	}
	p.w.ProcessingInstruction(targetID, p.src[p.pos:p.pos+end])
	p.pos += end + 2
	return nil
}

// Errors that callers may want to classify.
var ErrNotWellFormed = errors.New("xmlparse: not well-formed")
