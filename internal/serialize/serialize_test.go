package serialize

import (
	"io"
	"strings"
	"testing"

	"rx/internal/nodeid"
	"rx/internal/vsax"
	"rx/internal/xml"
	"rx/internal/xmlparse"
)

// roundTrip parses doc, serializes the token stream through vsax, and
// returns the output.
func roundTrip(t *testing.T, doc string) string {
	t.Helper()
	dict := xml.NewDict()
	stream, err := xmlparse.Parse([]byte(doc), dict, xmlparse.Options{PreserveWhitespace: true})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	s := New(&sb, dict)
	if err := vsax.FromTokens(stream, s); err != nil {
		t.Fatal(err)
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	return sb.String()
}

// stable asserts that serialize(parse(x)) re-parses to the same token trace
// (logical equivalence rather than byte equality: attribute order is
// canonicalized).
func stable(t *testing.T, doc string) string {
	t.Helper()
	out1 := roundTrip(t, doc)
	out2 := roundTrip(t, out1)
	if out1 != out2 {
		t.Errorf("serialization not stable:\n 1: %s\n 2: %s", out1, out2)
	}
	return out1
}

func TestSimple(t *testing.T) {
	out := stable(t, `<a><b>hi</b><c/></a>`)
	if out != `<a><b>hi</b><c/></a>` {
		t.Errorf("got %s", out)
	}
}

func TestAttributesAndEscaping(t *testing.T) {
	out := stable(t, `<a x="1 &lt; 2 &quot;q&quot;">a &amp; b &lt; c</a>`)
	if !strings.Contains(out, `x="1 &lt; 2 &quot;q&quot;"`) {
		t.Errorf("attr escaping: %s", out)
	}
	if !strings.Contains(out, "a &amp; b &lt; c") {
		t.Errorf("text escaping: %s", out)
	}
}

func TestNamespaces(t *testing.T) {
	out := stable(t, `<p:a xmlns:p="urn:one"><p:b/><c/></p:a>`)
	if !strings.Contains(out, `xmlns:p="urn:one"`) {
		t.Errorf("missing decl: %s", out)
	}
	if !strings.Contains(out, "<p:a") || !strings.Contains(out, "<p:b/>") || !strings.Contains(out, "<c/>") {
		t.Errorf("prefixes wrong: %s", out)
	}
}

func TestDefaultNamespace(t *testing.T) {
	out := stable(t, `<a xmlns="urn:d"><b/></a>`)
	if !strings.Contains(out, `xmlns="urn:d"`) {
		t.Errorf("missing default decl: %s", out)
	}
}

func TestCommentPI(t *testing.T) {
	out := stable(t, `<a><!-- note --><?app data?></a>`)
	if !strings.Contains(out, "<!-- note -->") || !strings.Contains(out, "<?app data?>") {
		t.Errorf("got %s", out)
	}
}

func TestMixedContent(t *testing.T) {
	out := stable(t, `<p>one <b>two</b> three</p>`)
	if out != `<p>one <b>two</b> three</p>` {
		t.Errorf("got %s", out)
	}
}

func TestNestedNamespaceShadowing(t *testing.T) {
	doc := `<a xmlns:p="urn:one"><b xmlns:p="urn:two"><p:c/></b><p:d/></a>`
	out := stable(t, doc)
	// Re-parse and check the namespaces survived.
	dict := xml.NewDict()
	if _, err := xmlparse.Parse([]byte(out), dict, xmlparse.Options{}); err != nil {
		t.Fatalf("output does not re-parse: %v\n%s", err, out)
	}
	if !strings.Contains(out, `xmlns:p="urn:two"`) || !strings.Contains(out, `xmlns:p="urn:one"`) {
		t.Errorf("got %s", out)
	}
}

// countingWriter records the Writes a serializer makes.
type countingWriter struct {
	strings.Builder
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Builder.Write(p)
}

// TestReusedSerializerAllocatesNothing: once its buffers are warm, a Reset
// serializer renders a document — attributes, namespaces, escapes, comments
// and PIs — without allocating, and a document smaller than flushAt reaches
// the writer in one Write.
func TestReusedSerializerAllocatesNothing(t *testing.T) {
	doc := `<p:a xmlns:p="urn:one" k="1 &lt; 2"><b x="&quot;q&quot;">a &amp; b</b><p:c/><!--n--><?pi d?><d xmlns="urn:d"><e>t</e></d></p:a>`
	dict := xml.NewDict()
	stream, err := xmlparse.Parse([]byte(doc), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var w countingWriter
	s := New(&w, dict)
	if err := vsax.FromTokens(stream, s); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 || roundTrip(t, doc) != w.String() {
		t.Fatalf("%d writes of %s", w.writes, w.String())
	}
	// The token driver's own allocations are measured alone and taken off.
	driver := testing.AllocsPerRun(100, func() {
		if err := vsax.FromTokens(stream, nopHandler{}); err != nil {
			t.Fatal(err)
		}
	})
	allocs := testing.AllocsPerRun(100, func() {
		s.Reset(io.Discard, dict)
		if err := vsax.FromTokens(stream, s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != driver {
		t.Errorf("a reused serializer: %v allocs per document, the token driver alone %v; want no more", allocs, driver)
	}
}

type nopHandler struct{}

func (nopHandler) StartDocument() error                                     { return nil }
func (nopHandler) EndDocument() error                                       { return nil }
func (nopHandler) StartElement(xml.QName, nodeid.ID) error                  { return nil }
func (nopHandler) EndElement(nodeid.ID) error                               { return nil }
func (nopHandler) NSDecl(xml.NameID, xml.NameID, nodeid.ID) error           { return nil }
func (nopHandler) Attribute(xml.QName, []byte, xml.TypeID, nodeid.ID) error { return nil }
func (nopHandler) Text([]byte, xml.TypeID, nodeid.ID) error                 { return nil }
func (nopHandler) Comment([]byte, nodeid.ID) error                          { return nil }
func (nopHandler) PI(xml.NameID, []byte, nodeid.ID) error                   { return nil }

// TestSerializerWritesAtTopLevelAndPastFlushAt: output reaches the writer
// when a top-level node ends, so a fragment driven without EndDocument is
// complete, and a document larger than flushAt is written as it grows.
func TestSerializerWritesAtTopLevelAndPastFlushAt(t *testing.T) {
	dict := xml.NewDict()
	a, _ := dict.Intern("a")
	var w countingWriter
	s := New(&w, dict)
	for i := 0; i < 3; i++ {
		s.StartElement(xml.QName{Local: a}, nil)
		s.Text([]byte("x"), xml.TString, nil)
		s.EndElement(nil)
		if got, want := w.String(), strings.Repeat("<a>x</a>", i+1); got != want {
			t.Fatalf("after fragment %d the writer holds %q, want %q", i, got, want)
		}
	}
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 3*flushAt/16; i++ {
		sb.WriteString("<i>0123456789</i>")
	}
	sb.WriteString("</r>")
	stream, err := xmlparse.Parse([]byte(sb.String()), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w = countingWriter{}
	if err := vsax.FromTokens(stream, New(&w, dict)); err != nil {
		t.Fatal(err)
	}
	if w.String() != sb.String() || w.writes < 3 {
		t.Fatalf("%d writes, output equal: %v", w.writes, w.String() == sb.String())
	}
}
