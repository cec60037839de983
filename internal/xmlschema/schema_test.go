package xmlschema

import (
	"strings"
	"testing"

	"rx/internal/tokens"
	"rx/internal/xml"
)

const catalogXSD = `
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="catalog">
    <xs:complexType>
      <xs:sequence>
        <xs:element ref="product" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
      <xs:attribute name="version" type="xs:string"/>
    </xs:complexType>
  </xs:element>
  <xs:element name="product">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="name" type="xs:string"/>
        <xs:element name="price" type="xs:double"/>
        <xs:element name="released" type="xs:date" minOccurs="0"/>
        <xs:element name="tag" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
      <xs:attribute name="id" type="xs:integer" use="required"/>
      <xs:attribute name="active" type="xs:boolean"/>
    </xs:complexType>
  </xs:element>
</xs:schema>`

func compileCatalog(t *testing.T) *Schema {
	t.Helper()
	s, err := Compile([]byte(catalogXSD))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCompileAndEncodeRoundTrip(t *testing.T) {
	s := compileCatalog(t)
	if len(s.Global) != 2 {
		t.Fatalf("globals = %v", s.Global)
	}
	bin := s.Encode()
	s2, err := Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Elems) != len(s.Elems) || len(s2.Global) != len(s.Global) {
		t.Errorf("round trip lost declarations")
	}
	prodIdx := s2.Global["product"]
	prod := s2.Elems[prodIdx]
	if len(prod.Attrs) != 2 || prod.DFA == nil {
		t.Errorf("product decl = %+v", prod)
	}
}

func validate(t *testing.T, doc string) ([]byte, error) {
	t.Helper()
	s := compileCatalog(t)
	dict := xml.NewDict()
	return Validate([]byte(doc), s, dict, nil)
}

func TestValidDocuments(t *testing.T) {
	valid := []string{
		`<catalog/>`,
		`<catalog version="2"/>`,
		`<catalog><product id="1"><name>Anvil</name><price>10.5</price></product></catalog>`,
		`<catalog><product id="1"><name>A</name><price>1</price><released>2005-06-16</released></product></catalog>`,
		`<catalog><product id="1" active="true"><name>A</name><price>1</price><tag>x</tag><tag>y</tag></product>` +
			`<product id="2"><name>B</name><price>2</price></product></catalog>`,
	}
	for _, doc := range valid {
		if _, err := validate(t, doc); err != nil {
			t.Errorf("%s: unexpected error %v", doc, err)
		}
	}
}

func TestInvalidDocuments(t *testing.T) {
	invalid := []struct{ doc, why string }{
		{`<shop/>`, "undeclared root"},
		{`<catalog><product id="1"><price>1</price><name>A</name></product></catalog>`, "wrong order"},
		{`<catalog><product id="1"><name>A</name></product></catalog>`, "missing price"},
		{`<catalog><product><name>A</name><price>1</price></product></catalog>`, "missing required id"},
		{`<catalog><product id="x"><name>A</name><price>1</price></product></catalog>`, "bad integer"},
		{`<catalog><product id="1"><name>A</name><price>cheap</price></product></catalog>`, "bad double"},
		{`<catalog><product id="1" color="red"><name>A</name><price>1</price></product></catalog>`, "undeclared attribute"},
		{`<catalog><product id="1"><name>A</name><price>1</price><bogus/></product></catalog>`, "undeclared child"},
		{`<catalog>text here</catalog>`, "text in element-only content"},
		{`<catalog><product id="1"><name>A</name><price>1</price><released>soon</released></product></catalog>`, "bad date"},
		{`<catalog><product id="1" active="maybe"><name>A</name><price>1</price></product></catalog>`, "bad boolean"},
	}
	for _, c := range invalid {
		if _, err := validate(t, c.doc); err == nil {
			t.Errorf("%s (%s): validation should fail", c.doc, c.why)
		} else if _, ok := err.(*ValidationError); !ok {
			t.Errorf("%s: error %T is not a ValidationError", c.doc, err)
		}
	}
}

func TestTypeAnnotations(t *testing.T) {
	stream, err := validate(t, `<catalog><product id="7" active="1"><name>Anvil</name><price>9.99</price></product></catalog>`)
	if err != nil {
		t.Fatal(err)
	}
	r := tokens.NewReader(stream)
	types := map[tokens.Kind][]xml.TypeID{}
	for r.More() {
		tok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind == tokens.Attr || tok.Kind == tokens.Text {
			types[tok.Kind] = append(types[tok.Kind], tok.Type)
		}
	}
	wantAttrs := []xml.TypeID{xml.TBoolean, xml.TInteger} // sorted: active, id
	if len(types[tokens.Attr]) != 2 || types[tokens.Attr][0] != wantAttrs[0] || types[tokens.Attr][1] != wantAttrs[1] {
		t.Errorf("attr types = %v", types[tokens.Attr])
	}
	wantTexts := []xml.TypeID{xml.TString, xml.TDouble}
	if len(types[tokens.Text]) != 2 || types[tokens.Text][0] != wantTexts[0] || types[tokens.Text][1] != wantTexts[1] {
		t.Errorf("text types = %v", types[tokens.Text])
	}
}

func TestChoiceContent(t *testing.T) {
	xsd := `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
	  <xs:element name="msg">
	    <xs:complexType>
	      <xs:sequence>
	        <xs:element name="to" type="xs:string"/>
	        <xs:choice>
	          <xs:element name="text" type="xs:string"/>
	          <xs:element name="binary" type="xs:string"/>
	        </xs:choice>
	      </xs:sequence>
	    </xs:complexType>
	  </xs:element>
	</xs:schema>`
	s, err := Compile([]byte(xsd))
	if err != nil {
		t.Fatal(err)
	}
	dict := xml.NewDict()
	for _, good := range []string{
		`<msg><to>a</to><text>hi</text></msg>`,
		`<msg><to>a</to><binary>0101</binary></msg>`,
	} {
		if _, err := Validate([]byte(good), s, dict, nil); err != nil {
			t.Errorf("%s: %v", good, err)
		}
	}
	for _, bad := range []string{
		`<msg><to>a</to></msg>`,
		`<msg><to>a</to><text>x</text><binary>y</binary></msg>`,
	} {
		if _, err := Validate([]byte(bad), s, dict, nil); err == nil {
			t.Errorf("%s: should fail", bad)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		`<notschema/>`,
		`<xs:schema xmlns:xs="u"><xs:element/></xs:schema>`,
		`<xs:schema xmlns:xs="u"><xs:element name="a" type="xs:float"/></xs:schema>`,
		`<xs:schema xmlns:xs="u"></xs:schema>`,
		`<xs:schema xmlns:xs="u"><xs:element name="a"><xs:complexType><xs:sequence>` +
			`<xs:element ref="missing"/></xs:sequence></xs:complexType></xs:element></xs:schema>`,
		`<xs:schema xmlns:xs="u"><xs:element name="a"><xs:complexType><xs:sequence>` +
			`<xs:element name="b" maxOccurs="3"/></xs:sequence></xs:complexType></xs:element></xs:schema>`,
	}
	for _, doc := range bad {
		if _, err := Compile([]byte(doc)); err == nil {
			t.Errorf("Compile should fail for %.60s", doc)
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := Decode([]byte{0xFF, 0xFF, 0xFF}); err == nil {
		t.Error("corrupt binary should fail")
	}
	s := compileCatalog(t)
	bin := s.Encode()
	if _, err := Decode(bin[:len(bin)/2]); err == nil {
		t.Error("truncated binary should fail")
	}
}

func TestValidationErrorHasPath(t *testing.T) {
	_, err := validate(t, `<catalog><product id="1"><name>A</name><price>bad</price></product></catalog>`)
	ve, ok := err.(*ValidationError)
	if !ok {
		t.Fatalf("err = %T", err)
	}
	if !strings.Contains(ve.Path, "/catalog/product") {
		t.Errorf("path = %s", ve.Path)
	}
}
