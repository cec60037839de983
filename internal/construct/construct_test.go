package construct

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rx/internal/xml"
)

// paperTemplate builds the §4.1 example:
//
//	XMLELEMENT(NAME "Emp",
//	  XMLATTRIBUTES(e.id AS "id", e.fname||' '||e.lname AS "name"),
//	  XMLFOREST(e.hire, e.dept AS "department"))
func paperTemplate(t *testing.T, names xml.Names) *Template {
	t.Helper()
	expr := Element("Emp",
		Attributes(Attr("id", 0), Attr("name", 1)),
		Forest(As("HIRE", 2), As("department", 3)),
	)
	tpl, err := Compile(expr, names)
	if err != nil {
		t.Fatal(err)
	}
	return tpl
}

func TestPaperExample(t *testing.T) {
	dict := xml.NewDict()
	tpl := paperTemplate(t, dict)
	if tpl.NArgs() != 4 {
		t.Errorf("NArgs = %d", tpl.NArgs())
	}
	row := Row{[]byte("1234"), []byte("John Doe"), []byte("2000-05-24"), []byte("Accting")}
	out, err := tpl.String(dict, row)
	if err != nil {
		t.Fatal(err)
	}
	want := `<Emp id="1234" name="John Doe"><HIRE>2000-05-24</HIRE><department>Accting</department></Emp>`
	if out != want {
		t.Errorf("got  %s\nwant %s", out, want)
	}
	// The template is shared across rows: a second row reuses it unchanged.
	row2 := Row{[]byte("99"), []byte("Jane Roe"), []byte("2001-01-01"), []byte("Eng")}
	out2, _ := tpl.String(dict, row2)
	if !strings.Contains(out2, `id="99"`) || !strings.Contains(out2, "Eng") {
		t.Errorf("second row: %s", out2)
	}
}

func TestNestedAndConcat(t *testing.T) {
	dict := xml.NewDict()
	expr := Element("r",
		Element("a", Text(0)),
		Concat(Lit("mid"), Element("b", Lit("x"))),
		Element("c"),
	)
	tpl, err := Compile(expr, dict)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tpl.String(dict, Row{[]byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	if out != `<r><a>v</a>mid<b>x</b><c/></r>` {
		t.Errorf("got %s", out)
	}
}

func TestCompileErrors(t *testing.T) {
	dict := xml.NewDict()
	if _, err := Compile(Attributes(Attr("a", 0)), dict); err == nil {
		t.Error("bare XMLATTRIBUTES should fail")
	}
	if _, err := Compile(Element("e", Text(0), Attributes(Attr("a", 1))), dict); err == nil {
		t.Error("late XMLATTRIBUTES should fail")
	}
}

func TestRowArityChecked(t *testing.T) {
	dict := xml.NewDict()
	tpl, _ := Compile(Element("e", Text(3)), dict)
	if _, err := tpl.String(dict, Row{[]byte("only-one")}); err == nil {
		t.Error("short row should fail")
	}
}

func TestEscapingThroughTemplate(t *testing.T) {
	dict := xml.NewDict()
	tpl, _ := Compile(Element("e", Attributes(Attr("a", 0)), Text(1)), dict)
	out, err := tpl.String(dict, Row{[]byte(`x"<&`), []byte("a<b&c")})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `a="x&quot;&lt;&amp;"`) || !strings.Contains(out, "a&lt;b&amp;c") {
		t.Errorf("escaping broken: %s", out)
	}
}

func TestXMLAggOrderBy(t *testing.T) {
	dict := xml.NewDict()
	tpl, _ := Compile(Element("emp", Attributes(Attr("id", 0)), Text(1)), dict)
	agg := NewAgg(tpl)
	// Insert in random order; ORDER BY name.
	rows := []struct{ id, name string }{
		{"3", "carol"}, {"1", "alice"}, {"4", "dave"}, {"2", "bob"}, {"5", "erin"},
	}
	for _, r := range rows {
		agg.Add(Row{[]byte(r.id), []byte(r.name)}, []byte(r.name))
	}
	var buf bytes.Buffer
	if err := agg.SerializeInto(&buf, dict, "emps"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	order := []string{"alice", "bob", "carol", "dave", "erin"}
	last := -1
	for _, n := range order {
		i := strings.Index(out, ">"+n+"<")
		if i < 0 || i < last {
			t.Fatalf("order wrong at %s: %s", n, out)
		}
		last = i
	}
	if !strings.HasPrefix(out, "<emps>") || !strings.HasSuffix(out, "</emps>") {
		t.Errorf("wrapper missing: %s", out)
	}
}

func TestQuicksortMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		keys := make([][]byte, n)
		rows := make([]Row, n)
		var want []string
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("%04d", rng.Intn(50)))
			keys[i] = k
			rows[i] = Row{k}
			want = append(want, string(k))
		}
		sort.Strings(want)
		quicksort(rows, keys, 0, n-1)
		for i := 0; i < n; i++ {
			if string(keys[i]) != want[i] {
				t.Fatalf("trial %d: position %d = %s, want %s", trial, i, keys[i], want[i])
			}
			if string(rows[i][0]) != want[i] {
				t.Fatalf("trial %d: rows not permuted with keys", trial)
			}
		}
	}
}

func TestTokenStreamInsertable(t *testing.T) {
	dict := xml.NewDict()
	tpl, _ := Compile(Element("doc", Element("v", Text(0))), dict)
	stream, err := tpl.TokenStream(Row{[]byte("42")})
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) == 0 {
		t.Fatal("empty stream")
	}
	// The stream round-trips through the serializer.
	tpl2out, _ := tpl.String(dict, Row{[]byte("42")})
	if tpl2out != `<doc><v>42</v></doc>` {
		t.Errorf("got %s", tpl2out)
	}
}
