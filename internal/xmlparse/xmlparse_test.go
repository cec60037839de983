package xmlparse

import (
	"fmt"
	"strings"
	"testing"

	"rx/internal/tokens"
	"rx/internal/xml"
)

// trace renders a parsed stream compactly for assertions, resolving names.
func trace(t *testing.T, doc string, opts Options) (string, error) {
	t.Helper()
	dict := xml.NewDict()
	stream, err := Parse([]byte(doc), dict, opts)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	r := tokens.NewReader(stream)
	for r.More() {
		tok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch tok.Kind {
		case tokens.StartDocument:
			sb.WriteString("D(")
		case tokens.EndDocument:
			sb.WriteString(")D")
		case tokens.StartElement:
			local, _ := dict.Lookup(tok.Name.Local)
			uri, _ := dict.Lookup(tok.Name.URI)
			if uri != "" {
				fmt.Fprintf(&sb, "<{%s}%s", uri, local)
			} else {
				fmt.Fprintf(&sb, "<%s", local)
			}
		case tokens.EndElement:
			sb.WriteString(">")
		case tokens.Attr:
			local, _ := dict.Lookup(tok.Name.Local)
			uri, _ := dict.Lookup(tok.Name.URI)
			if uri != "" {
				fmt.Fprintf(&sb, " @{%s}%s=%s", uri, local, tok.Value)
			} else {
				fmt.Fprintf(&sb, " @%s=%s", local, tok.Value)
			}
		case tokens.NSDecl:
			pfx, _ := dict.Lookup(tok.Prefix)
			uri, _ := dict.Lookup(tok.URI)
			fmt.Fprintf(&sb, " ns:%s=%s", pfx, uri)
		case tokens.Text:
			fmt.Fprintf(&sb, "T[%s]", tok.Value)
		case tokens.Comment:
			fmt.Fprintf(&sb, "C[%s]", tok.Value)
		case tokens.PI:
			target, _ := dict.Lookup(tok.Name.Local)
			fmt.Fprintf(&sb, "PI[%s %s]", target, tok.Value)
		}
	}
	return sb.String(), nil
}

func TestSimpleElement(t *testing.T) {
	got, err := trace(t, `<a>hello</a>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := "D(<aT[hello]>)D"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestNested(t *testing.T) {
	got, err := trace(t, `<a><b>x</b><c/></a>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := "D(<a<bT[x]><c>>)D"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestAttributesSorted(t *testing.T) {
	// Attribute order is adjusted: sorted by name (§3.2).
	got, err := trace(t, `<a z="1" b="2" m="3"/>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := `D(<a @b=2 @m=3 @z=1>)D`
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestNamespaces(t *testing.T) {
	doc := `<p:a xmlns:p="urn:one" xmlns="urn:def"><b p:x="1"/></p:a>`
	got, err := trace(t, doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := `D(<{urn:one}a ns:=urn:def ns:p=urn:one<{urn:def}b @{urn:one}x=1>>)D`
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestNamespaceScoping(t *testing.T) {
	doc := `<a xmlns:p="urn:outer"><b xmlns:p="urn:inner"><p:c/></b><p:d/></a>`
	got, err := trace(t, doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "<{urn:inner}c") || !strings.Contains(got, "<{urn:outer}d") {
		t.Errorf("scoping broken: %q", got)
	}
}

func TestUnboundPrefix(t *testing.T) {
	if _, err := trace(t, `<q:a/>`, Options{}); err == nil {
		t.Error("unbound prefix should fail")
	}
}

func TestEntities(t *testing.T) {
	got, err := trace(t, `<a>&lt;x&gt; &amp; &#65;&#x42;&apos;&quot;</a>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := `D(<aT[<x> & AB'"]>)D`
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestCDATA(t *testing.T) {
	got, err := trace(t, `<a><![CDATA[<not & parsed>]]></a>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := `D(<aT[<not & parsed>]>)D`
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestCommentAndPI(t *testing.T) {
	got, err := trace(t, `<?xml version="1.0"?><!-- pre --><a><?app do it?><!-- in --></a>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := `D(C[ pre ]<aPI[app do it]C[ in ]>)D`
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestWhitespaceHandling(t *testing.T) {
	doc := "<a>\n  <b>x</b>\n</a>"
	got, _ := trace(t, doc, Options{})
	if strings.Contains(got, "T[\n") {
		t.Errorf("whitespace not stripped: %q", got)
	}
	got, _ = trace(t, doc, Options{PreserveWhitespace: true})
	if !strings.Contains(got, "T[\n  ]") {
		t.Errorf("whitespace not preserved: %q", got)
	}
	// Mixed content text is never stripped.
	got, _ = trace(t, "<a>hi <b>x</b></a>", Options{})
	if !strings.Contains(got, "T[hi ]") {
		t.Errorf("significant text lost: %q", got)
	}
}

func TestDoctypeSkipped(t *testing.T) {
	got, err := trace(t, `<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>x</a>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != "D(<aT[x]>)D" {
		t.Errorf("got %q", got)
	}
}

func TestWellFormednessErrors(t *testing.T) {
	bad := []string{
		``,
		`<a>`,
		`<a></b>`,
		`<a><b></a></b>`,
		`<a x=1/>`,
		`<a x="1" x="2"/>`,
		`<a>&unknown;</a>`,
		`<a/><b/>`,
		`<a><!-- unterminated</a>`,
		`text only`,
		`<a b="x</a>`,
		`<a><![CDATA[open</a>`,
		`<1bad/>`,
	}
	for _, doc := range bad {
		if _, err := trace(t, doc, Options{}); err == nil {
			t.Errorf("expected error for %q", doc)
		} else {
			var se *SyntaxError
			if !asSyntaxError(err, &se) {
				t.Errorf("%q: error %v is not a SyntaxError", doc, err)
			}
		}
	}
}

func asSyntaxError(err error, out **SyntaxError) bool {
	se, ok := err.(*SyntaxError)
	if ok {
		*out = se
	}
	return ok
}

func TestDuplicateAttrAfterNSResolution(t *testing.T) {
	// p:x and q:x with p and q bound to the same URI are duplicates.
	doc := `<a xmlns:p="urn:u" xmlns:q="urn:u" p:x="1" q:x="2"/>`
	if _, err := trace(t, doc, Options{}); err == nil {
		t.Error("post-resolution duplicate attribute should fail")
	}
}

func TestXMLPrefix(t *testing.T) {
	got, err := trace(t, `<a xml:lang="en"/>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "@{http://www.w3.org/XML/1998/namespace}lang=en") {
		t.Errorf("xml: prefix not predeclared: %q", got)
	}
}

func TestDeepNesting(t *testing.T) {
	var sb strings.Builder
	const depth = 500
	for i := 0; i < depth; i++ {
		sb.WriteString("<a>")
	}
	sb.WriteString("x")
	for i := 0; i < depth; i++ {
		sb.WriteString("</a>")
	}
	got, err := trace(t, sb.String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(got, strings.Repeat(">", depth)+")D") {
		t.Error("deep nesting mangled")
	}
}

func TestLargeText(t *testing.T) {
	big := strings.Repeat("lorem ipsum ", 10000)
	got, err := trace(t, "<a>"+big+"</a>", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < len(big) {
		t.Error("large text truncated")
	}
}
