package vsax

import (
	"errors"
	"strings"
	"testing"

	"rx/internal/dom"
	"rx/internal/nodeid"
	"rx/internal/pack"
	"rx/internal/quickxscan"
	"rx/internal/serialize"
	"rx/internal/tokens"
	"rx/internal/xml"
	"rx/internal/xmlparse"
	"rx/internal/xpath"
)

// TestTokensToSerializer: the token iterator drives the shared serializer.
func TestTokensToSerializer(t *testing.T) {
	dict := xml.NewDict()
	doc := `<a x="1"><b>hi</b><!--c--></a>`
	stream, err := xmlparse.Parse([]byte(doc), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	s := serialize.New(&sb, dict)
	if err := FromTokens(stream, s); err != nil {
		t.Fatal(err)
	}
	if sb.String() != doc {
		t.Errorf("got %s", sb.String())
	}
}

// TestDOMToSerializer: the in-memory iterator drives the same serializer.
func TestDOMToSerializer(t *testing.T) {
	dict := xml.NewDict()
	doc := `<r><p a="v">text</p></r>`
	stream, _ := xmlparse.Parse([]byte(doc), dict, xmlparse.Options{})
	tree, err := dom.Build(stream)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	s := serialize.New(&sb, dict)
	if err := FromDOM(tree, s); err != nil {
		t.Fatal(err)
	}
	if sb.String() != doc {
		t.Errorf("got %s", sb.String())
	}
}

// TestTokenSinkRoundTrip: tokens → events → tokens is the identity (the
// shared tree-construction input of Figure 8).
func TestTokenSinkRoundTrip(t *testing.T) {
	dict := xml.NewDict()
	doc := `<p:r xmlns:p="urn:x"><p:a k="1">v</p:a><?pi data?></p:r>`
	stream, _ := xmlparse.Parse([]byte(doc), dict, xmlparse.Options{})
	w := tokens.NewWriter(len(stream))
	sink := &TokenSink{W: w}
	if err := FromTokens(stream, sink); err != nil {
		t.Fatal(err)
	}
	if string(w.Bytes()) != string(stream) {
		t.Error("token round trip through virtual SAX is not the identity")
	}
}

// TestIDsSynthesized: the token iterator assigns packer-identical IDs.
func TestIDsSynthesized(t *testing.T) {
	dict := xml.NewDict()
	stream, _ := xmlparse.Parse([]byte(`<a><b/><c/></a>`), dict, xmlparse.Options{})
	var ids []string
	h := &idCollector{ids: &ids}
	if err := FromTokens(stream, h); err != nil {
		t.Fatal(err)
	}
	want := []string{"02", "0202", "0204"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("id %d = %s, want %s", i, ids[i], want[i])
		}
	}
}

type idCollector struct{ ids *[]string }

func (c *idCollector) StartDocument() error { return nil }
func (c *idCollector) EndDocument() error   { return nil }
func (c *idCollector) StartElement(_ xml.QName, id nodeid.ID) error {
	*c.ids = append(*c.ids, id.String())
	return nil
}
func (c *idCollector) EndElement(nodeid.ID) error                               { return nil }
func (c *idCollector) NSDecl(_, _ xml.NameID, _ nodeid.ID) error                { return nil }
func (c *idCollector) Attribute(xml.QName, []byte, xml.TypeID, nodeid.ID) error { return nil }
func (c *idCollector) Text([]byte, xml.TypeID, nodeid.ID) error                 { return nil }
func (c *idCollector) Comment([]byte, nodeid.ID) error                          { return nil }
func (c *idCollector) PI(xml.NameID, []byte, nodeid.ID) error                   { return nil }

// kindIDs records every node event's kind and ID.
type kindIDs struct{ out []string }

func (c *kindIDs) add(kind string, id nodeid.ID) error {
	c.out = append(c.out, kind+" "+id.String())
	return nil
}
func (c *kindIDs) StartDocument() error                            { return nil }
func (c *kindIDs) EndDocument() error                              { return nil }
func (c *kindIDs) StartElement(_ xml.QName, id nodeid.ID) error    { return c.add("elem", id) }
func (c *kindIDs) EndElement(id nodeid.ID) error                   { return c.add("end", id) }
func (c *kindIDs) NSDecl(_, _ xml.NameID, id nodeid.ID) error      { return c.add("ns", id) }
func (c *kindIDs) Text(_ []byte, _ xml.TypeID, id nodeid.ID) error { return c.add("text", id) }
func (c *kindIDs) Comment(_ []byte, id nodeid.ID) error            { return c.add("comment", id) }
func (c *kindIDs) PI(_ xml.NameID, _ []byte, id nodeid.ID) error   { return c.add("pi", id) }
func (c *kindIDs) Attribute(_ xml.QName, _ []byte, _ xml.TypeID, id nodeid.ID) error {
	return c.add("attr", id)
}

// packIDs is kindIDs as a pack.Visitor.
type packIDs struct{ kindIDs }

func (c *packIDs) Enter(n *pack.Node) (bool, error) {
	kind := map[xml.Kind]string{xml.Element: "elem", xml.Attribute: "attr", xml.Namespace: "ns",
		xml.Text: "text", xml.Comment: "comment", xml.ProcessingInstruction: "pi"}[n.Kind]
	return true, c.add(kind, n.Abs)
}
func (c *packIDs) Leave(n *pack.Node) (bool, error) { return true, c.add("end", n.Abs) }

// TestIDSynthesizersAgree: the three users of nodeid.Stack — the token
// iterator here, the stored-record walker, and QuickXScan's token driver —
// label one document identically, node for node, across every node kind and
// across a fan-out wide enough for multi-byte relative IDs.
func TestIDSynthesizersAgree(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`<r xmlns:p="urn:p" a="1"><?pi x?><!--c-->`)
	for i := 0; i < 300; i++ {
		sb.WriteString(`<p:k b="2">t<i/></p:k>`)
	}
	sb.WriteString(`tail</r>`)
	dict := xml.NewDict()
	stream, err := xmlparse.Parse([]byte(sb.String()), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}

	var fromTokens kindIDs
	if err := FromTokens(stream, &fromTokens); err != nil {
		t.Fatal(err)
	}

	var root *pack.Record
	if err := pack.PackStream(stream, 1<<20, func(r pack.EncodedRecord) error {
		root, err = pack.Decode(append([]byte(nil), r.Payload...))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var stored packIDs
	noProxies := func(nodeid.ID) (*pack.Record, func(), error) { return nil, nil, errors.New("single record") }
	if err := pack.Walk(root, nil, noProxies, &stored); err != nil {
		t.Fatal(err)
	}
	if len(stored.out) != len(fromTokens.out) {
		t.Fatalf("stored walk saw %d events, token iterator %d", len(stored.out), len(fromTokens.out))
	}
	for i := range stored.out {
		if stored.out[i] != fromTokens.out[i] {
			t.Fatalf("event %d: stored walk %q, token iterator %q", i, stored.out[i], fromTokens.out[i])
		}
	}

	// QuickXScan reports IDs only for what it matches: elements, text and
	// comments through //node(), attributes through //*/@*.
	matched := func(expr string) []string {
		q, err := xpath.Parse(expr)
		if err != nil {
			t.Fatal(err)
		}
		e, err := quickxscan.Compile(q, dict, nil, quickxscan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ms, err := quickxscan.EvalTokens(e, stream)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, m := range ms {
			out = append(out, m.ID.String())
		}
		return out
	}
	want := map[bool][]string{}
	for _, ev := range fromTokens.out {
		kind, id, _ := strings.Cut(ev, " ")
		switch kind {
		case "elem", "text", "comment":
			want[false] = append(want[false], id)
		case "attr":
			want[true] = append(want[true], id)
		}
	}
	for attrs, expr := range map[bool]string{false: `//node()`, true: `//*/@*`} {
		got := matched(expr)
		if len(got) != len(want[attrs]) {
			t.Fatalf("%s matched %d nodes, the token iterator labelled %d", expr, len(got), len(want[attrs]))
		}
		for i := range got {
			if got[i] != want[attrs][i] {
				t.Fatalf("%s match %d has ID %s, the token iterator gave %s", expr, i, got[i], want[attrs][i])
			}
		}
	}
}
