package xmlschema

import (
	"fmt"
	"strconv"
	"strings"

	"rx/internal/arena"
	"rx/internal/keycodec"
	"rx/internal/tokens"
	"rx/internal/xml"
	"rx/internal/xmlparse"
)

// ValidationError reports a schema violation.
type ValidationError struct {
	Path string
	Msg  string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("xmlschema: at %s: %s", e.Path, e.Msg)
}

// Validate parses a document and validates it against the schema, producing
// a type-annotated token stream (Figure 4's validation runtime output). The
// parsed and the typed stream are both allocated from a (nil: the Go heap),
// so the result is valid until the arena's next Reset.
func Validate(doc []byte, s *Schema, names xml.Names, a *arena.Arena) ([]byte, error) {
	stream, err := xmlparse.Parse(doc, names, xmlparse.Options{Arena: a})
	if err != nil {
		return nil, err
	}
	// The typed stream: Text and Attr tokens carry type annotations.
	vm := &machine{s: s, names: names, out: tokens.NewWriterBuf(a.Make(len(stream) + len(stream)/8))}
	r := tokens.NewReader(stream)
	for r.More() {
		t, err := r.Next()
		if err != nil {
			return nil, err
		}
		if err := vm.step(t); err != nil {
			return nil, err
		}
	}
	return vm.out.Bytes(), nil
}

type frame struct {
	decl     int
	state    int
	name     string
	attrSeen map[string]bool
	sawChild bool
	sawText  bool
}

type machine struct {
	s     *Schema
	names xml.Names
	out   *tokens.Writer
	stack []frame
	// attrsOpen is true while attribute tokens of the innermost start tag
	// may still arrive.
	attrsOpen bool
}

func (m *machine) path() string {
	var sb strings.Builder
	for _, f := range m.stack {
		sb.WriteString("/" + f.name)
	}
	if sb.Len() == 0 {
		return "/"
	}
	return sb.String()
}

func (m *machine) errf(format string, args ...any) error {
	return &ValidationError{Path: m.path(), Msg: fmt.Sprintf(format, args...)}
}

func (m *machine) top() *frame {
	if len(m.stack) == 0 {
		return nil
	}
	return &m.stack[len(m.stack)-1]
}

// closeStartTag runs the required-attribute check once a start tag is done.
func (m *machine) closeStartTag() error {
	if !m.attrsOpen {
		return nil
	}
	m.attrsOpen = false
	f := m.top()
	if f == nil {
		return nil
	}
	for _, a := range m.s.Elems[f.decl].Attrs {
		if a.Required && !f.attrSeen[a.Name] {
			return m.errf("missing required attribute %q", a.Name)
		}
	}
	return nil
}

func (m *machine) step(t *tokens.Token) error {
	switch t.Kind {
	case tokens.StartDocument:
		m.out.StartDocument()
	case tokens.EndDocument:
		m.out.EndDocument()
	case tokens.StartElement:
		if err := m.closeStartTag(); err != nil {
			return err
		}
		local, err := m.names.Lookup(t.Name.Local)
		if err != nil {
			return err
		}
		var declIdx int
		if len(m.stack) == 0 {
			idx, ok := m.s.Global[local]
			if !ok {
				return m.errf("element %q is not a declared root", local)
			}
			declIdx = idx
		} else {
			f := m.top()
			decl := m.s.Elems[f.decl]
			if decl.Simple != xml.Untyped {
				return m.errf("simple-typed element %q cannot contain child <%s>", f.name, local)
			}
			if decl.DFA == nil {
				return m.errf("element %q allows no children, found <%s>", f.name, local)
			}
			next := -1
			target := 0
			for e, to := range decl.DFA.Trans[f.state] {
				if m.s.Elems[e].Name == local {
					next = e
					target = to
					break
				}
			}
			if next < 0 {
				return m.errf("unexpected child <%s> in element %q", local, f.name)
			}
			f.state = target
			f.sawChild = true
			declIdx = next
		}
		m.stack = append(m.stack, frame{decl: declIdx, name: local, attrSeen: map[string]bool{}})
		m.attrsOpen = true
		m.out.StartElement(t.Name)
	case tokens.EndElement:
		if err := m.closeStartTag(); err != nil {
			return err
		}
		f := m.top()
		decl := m.s.Elems[f.decl]
		if decl.DFA != nil && !decl.DFA.Accept[f.state] {
			return m.errf("element %q content incomplete", f.name)
		}
		m.stack = m.stack[:len(m.stack)-1]
		m.out.EndElement()
	case tokens.Attr:
		f := m.top()
		if f == nil || !m.attrsOpen {
			return m.errf("attribute outside a start tag")
		}
		local, err := m.names.Lookup(t.Name.Local)
		if err != nil {
			return err
		}
		var found *AttrDecl
		for i := range m.s.Elems[f.decl].Attrs {
			if m.s.Elems[f.decl].Attrs[i].Name == local {
				found = &m.s.Elems[f.decl].Attrs[i]
				break
			}
		}
		if found == nil {
			return m.errf("undeclared attribute %q on element %q", local, f.name)
		}
		if err := checkLexical(found.Type, t.Value); err != nil {
			return m.errf("attribute %q: %v", local, err)
		}
		f.attrSeen[local] = true
		m.out.Attribute(t.Name, t.Value, found.Type)
	case tokens.NSDecl:
		m.out.Namespace(t.Prefix, t.URI)
	case tokens.Text:
		if err := m.closeStartTag(); err != nil {
			return err
		}
		f := m.top()
		if f == nil {
			return m.errf("text outside the document element")
		}
		decl := m.s.Elems[f.decl]
		if decl.Simple == xml.Untyped {
			return m.errf("element %q has element-only content; text %q not allowed", f.name, clip(t.Value))
		}
		if f.sawText {
			return m.errf("element %q has multiple text nodes", f.name)
		}
		if err := checkLexical(decl.Simple, t.Value); err != nil {
			return m.errf("element %q: %v", f.name, err)
		}
		f.sawText = true
		m.out.Text(t.Value, decl.Simple)
	case tokens.Comment:
		if err := m.closeStartTag(); err != nil {
			return err
		}
		m.out.Comment(t.Value)
	case tokens.PI:
		if err := m.closeStartTag(); err != nil {
			return err
		}
		m.out.ProcessingInstruction(t.Name.Local, t.Value)
	}
	return nil
}

func clip(b []byte) string {
	if len(b) > 24 {
		return string(b[:24]) + "..."
	}
	return string(b)
}

// checkLexical validates a value against a simple type's lexical space.
func checkLexical(typ xml.TypeID, value []byte) error {
	s := strings.TrimSpace(string(value))
	switch typ {
	case xml.TString:
		return nil
	case xml.TDouble:
		if _, err := strconv.ParseFloat(s, 64); err != nil {
			return fmt.Errorf("%q is not a valid xs:double", s)
		}
	case xml.TDecimal:
		if _, err := keycodec.ParseDecimal(s); err != nil {
			return fmt.Errorf("%q is not a valid xs:decimal", s)
		}
	case xml.TInteger:
		if _, err := strconv.ParseInt(s, 10, 64); err != nil {
			return fmt.Errorf("%q is not a valid xs:integer", s)
		}
	case xml.TBoolean:
		switch s {
		case "true", "false", "1", "0":
		default:
			return fmt.Errorf("%q is not a valid xs:boolean", s)
		}
	case xml.TDate:
		if _, err := keycodec.Date(nil, s); err != nil {
			return fmt.Errorf("%q is not a valid xs:date", s)
		}
	}
	return nil
}
