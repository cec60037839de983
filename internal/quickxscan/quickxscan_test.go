package quickxscan

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rx/internal/dom"
	"rx/internal/nodeid"
	"rx/internal/tokens"
	"rx/internal/xml"
	"rx/internal/xmlparse"
	"rx/internal/xpath"
	"rx/internal/xpathdom"
)

// run evaluates query over doc with QuickXScan and returns node IDs as hex.
func run(t testing.TB, doc, query string) []string {
	t.Helper()
	dict := xml.NewDict()
	stream, err := xmlparse.Parse([]byte(doc), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := xpath.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Compile(q, dict, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := EvalTokens(e, stream)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range ms {
		out = append(out, m.ID.String())
	}
	return out
}

// oracle evaluates with the DOM baseline.
func oracle(t testing.TB, doc, query string) []string {
	t.Helper()
	dict := xml.NewDict()
	stream, err := xmlparse.Parse([]byte(doc), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := dom.Build(stream)
	if err != nil {
		t.Fatal(err)
	}
	q, err := xpath.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	c, err := xpathdom.Compile(q, dict, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, n := range c.Evaluate(tree) {
		out = append(out, n.ID.String())
	}
	return out
}

func expectAgree(t *testing.T, doc, query string) []string {
	t.Helper()
	got := run(t, doc, query)
	want := oracle(t, doc, query)
	if !eqStrings(got, want) {
		t.Errorf("query %q:\n quickxscan = %v\n dom oracle = %v\n doc: %.200s", query, got, want, doc)
	}
	return got
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSimplePaths(t *testing.T) {
	doc := `<a><b>one</b><c><b>two</b></c><b>three</b></a>`
	if got := expectAgree(t, doc, "/a/b"); len(got) != 2 {
		t.Errorf("got %v", got)
	}
	if got := expectAgree(t, doc, "//b"); len(got) != 3 {
		t.Errorf("got %v", got)
	}
	expectAgree(t, doc, "/a/c/b")
	expectAgree(t, doc, "/a/*")
	expectAgree(t, doc, "//b/text()")
	expectAgree(t, doc, "/x")     // no match
	expectAgree(t, doc, "/a/b/c") // no match
	expectAgree(t, doc, "//node()")
}

func TestAttributes(t *testing.T) {
	doc := `<r><p id="1" class="x"/><p id="2"/><q id="3"/></r>`
	if got := expectAgree(t, doc, "//p/@id"); len(got) != 2 {
		t.Errorf("got %v", got)
	}
	expectAgree(t, doc, "/r/p/@*")
	// A descendant step straight onto the attribute axis: the oracle shares
	// the parser, so the counts are pinned too.
	for query, want := range map[string]int{"//@id": 3, "//@*": 4, "/r//@class": 1, "/r/p//@id": 2, "//p[.//@class]": 1} {
		if got := expectAgree(t, doc, query); len(got) != want {
			t.Errorf("%s: %d matches %v, want %d", query, len(got), got, want)
		}
	}
}

func TestPaperFigure6(t *testing.T) {
	// The paper's running example: b//s[.//t = 'XML' and f/@w > 300],
	// adapted as a rooted query over a document shaped like Figure 6(b).
	doc := `<b>
	  <s><p><t>XML</t></p><f w="500"/></s>
	  <s><t>other</t><f w="500"/></s>
	  <s><t>XML</t><f w="100"/></s>
	  <s><s><t>XML</t><f w="400"/></s><f w="50"/></s>
	</b>`
	got := expectAgree(t, doc, "//s[.//t = 'XML' and f/@w > 300]")
	if len(got) != 2 {
		t.Errorf("expected 2 matches (first s and inner nested s), got %v", got)
	}
}

func TestPredicatesValueComparisons(t *testing.T) {
	doc := `<catalog>
	  <product><regprice>150</regprice><discount>0.2</discount></product>
	  <product><regprice>80</regprice><discount>0.2</discount></product>
	  <product><regprice>200</regprice><discount>0.05</discount></product>
	  <product><regprice>120</regprice></product>
	</catalog>`
	cases := []struct {
		q    string
		want int
	}{
		{"/catalog/product[regprice > 100]", 3},
		{"/catalog/product[regprice > 100 and discount > 0.1]", 1},
		{"/catalog/product[regprice > 100 or discount > 0.1]", 4},
		{"/catalog/product[not(discount)]", 1},
		{"/catalog/product[discount]", 3},
		{"/catalog/product[regprice = 120]", 1},
		{"/catalog/product[regprice != 120]", 3},
		{"/catalog/product[regprice <= 120]", 2},
		{"/catalog/product[regprice < 80.5]", 1},
		{"/catalog/product[regprice >= 200]", 1},
	}
	for _, c := range cases {
		got := expectAgree(t, doc, c.q)
		if len(got) != c.want {
			t.Errorf("%s: got %d matches %v, want %d", c.q, len(got), got, c.want)
		}
	}
}

func TestStringComparison(t *testing.T) {
	doc := `<r><e name="alpha"/><e name="beta"/><e>alpha</e></r>`
	got := expectAgree(t, doc, "/r/e[@name = 'alpha']")
	if len(got) != 1 {
		t.Errorf("got %v", got)
	}
	expectAgree(t, doc, "/r/e[. = 'alpha']")
	expectAgree(t, doc, "/r/e[@name != 'alpha']")
}

func TestRecursiveDescendants(t *testing.T) {
	// Nested a elements: the //a//a class that explodes automaton state.
	doc := `<a><a><a><b>x</b></a><b>y</b></a></a>`
	expectAgree(t, doc, "//a")
	expectAgree(t, doc, "//a//a")
	expectAgree(t, doc, "//a//a//a")
	expectAgree(t, doc, "//a//b")
	expectAgree(t, doc, "//a/a/b")
	expectAgree(t, doc, "//a[b]")
	expectAgree(t, doc, "//a[b = 'x']")
	expectAgree(t, doc, "//a//a[b = 'y']")
}

// TestTable1Propagation exercises all four Table-1 configurations.
func TestTable1Propagation(t *testing.T) {
	// Row 1: a/b — single a, b children propagate upward.
	expectAgree(t, `<a><b>1</b><b>2</b></a>`, "/a/b")
	// Row 2: a/b with repeated (sibling) a matchings — no sideways for s.
	expectAgree(t, `<r><a><b>1</b></a><a><b>2</b></a></r>`, "//a/b")
	// Row 3: a//b with nested b — t propagates sideways then upward.
	expectAgree(t, `<a><b><b>inner</b></b></a>`, "//a//b")
	// Row 4: a//b with nested a and nested b — both propagations.
	expectAgree(t, `<a><a><b><b>x</b></b></a><b>y</b></a>`, "//a//b")
}

// TestPredicateOnOuterOnly: a nested match whose inner instance fails its
// predicate must still be validated by an outer instance (the sideways raw
// move for loose candidates).
func TestPredicateOnOuterOnly(t *testing.T) {
	// //a[c]//b: the inner a has no c child, but the outer a does; b must
	// match through the outer a.
	doc := `<a><c/><a><b>target</b></a></a>`
	got := expectAgree(t, doc, "//a[c]//b")
	if len(got) != 1 {
		t.Errorf("expected 1 match via the outer a, got %v", got)
	}
	// Inner passes, outer fails: still one match, validated at the inner.
	doc2 := `<a><a><c/><b>target</b></a></a>`
	got2 := expectAgree(t, doc2, "//a[c]//b")
	if len(got2) != 1 {
		t.Errorf("expected 1 match via the inner a, got %v", got2)
	}
	// Neither passes: no match.
	doc3 := `<a><a><b>target</b></a></a>`
	if got3 := expectAgree(t, doc3, "//a[c]//b"); len(got3) != 0 {
		t.Errorf("expected no match, got %v", got3)
	}
	// Child-axis candidates are tight: //a[c]/b must NOT retarget b to an
	// outer a.
	doc4 := `<a><c/><a><b>target</b></a></a>`
	if got4 := expectAgree(t, doc4, "//a[c]/b"); len(got4) != 0 {
		t.Errorf("child-axis candidate wrongly retargeted: %v", got4)
	}
}

func TestNestedPredicates(t *testing.T) {
	doc := `<lib>
	  <shelf><book lang="en"><title>A</title></book></shelf>
	  <shelf><book lang="de"><title>B</title></book></shelf>
	  <shelf><box/></shelf>
	</lib>`
	expectAgree(t, doc, "/lib/shelf[book[@lang = 'en']]")
	expectAgree(t, doc, "/lib/shelf[book]/book/title")
	expectAgree(t, doc, "//shelf[not(book)]")
	expectAgree(t, doc, "//book[@lang = 'en' or @lang = 'de']/title")
}

func TestNamespaceQueries(t *testing.T) {
	doc := `<p:r xmlns:p="urn:one" xmlns:q="urn:two"><p:x>1</p:x><q:x>2</q:x><x>3</x></p:r>`
	dict := xml.NewDict()
	stream, err := xmlparse.Parse([]byte(doc), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := xpath.Parse("//v:x")
	if err != nil {
		t.Fatal(err)
	}
	e, err := Compile(q, dict, map[string]string{"v": "urn:one"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := EvalTokens(e, stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Errorf("namespaced query matched %d nodes", len(ms))
	}
	// Unprefixed name matches only no-namespace x.
	q2, _ := xpath.Parse("//x")
	e2, _ := Compile(q2, dict, nil, Options{})
	ms2, _ := EvalTokens(e2, stream)
	if len(ms2) != 1 {
		t.Errorf("unprefixed query matched %d nodes", len(ms2))
	}
	// Unbound prefix fails at compile.
	if _, err := Compile(q, dict, nil, Options{}); err == nil {
		t.Error("unbound prefix should fail to compile")
	}
}

func TestValues(t *testing.T) {
	doc := `<r><p id="42"/><q>hello <b>world</b></q></r>`
	dict := xml.NewDict()
	stream, _ := xmlparse.Parse([]byte(doc), dict, xmlparse.Options{})
	q, _ := xpath.Parse("//p/@id")
	e, _ := Compile(q, dict, nil, Options{NeedValues: true})
	ms, err := EvalTokens(e, stream)
	if err != nil || len(ms) != 1 {
		t.Fatalf("ms=%v err=%v", ms, err)
	}
	if string(ms[0].Value) != "42" {
		t.Errorf("attr value = %q", ms[0].Value)
	}
	// Element string value concatenates descendant text.
	q2, _ := xpath.Parse("/r/q")
	e2, _ := Compile(q2, dict, nil, Options{NeedValues: true})
	ms2, _ := EvalTokens(e2, stream)
	if len(ms2) != 1 || string(ms2[0].Value) != "hello world" {
		t.Errorf("element value = %q", ms2[0].Value)
	}
}

func TestStatsBounded(t *testing.T) {
	// Recursion depth r controls live instances: O(|Q|*r), not exponential.
	build := func(depth int) string {
		return strings.Repeat("<a>", depth) + "<b>x</b>" + strings.Repeat("</a>", depth)
	}
	dict := xml.NewDict()
	q, _ := xpath.Parse("//a//a//a")
	for _, depth := range []int{4, 8, 16, 32} {
		stream, _ := xmlparse.Parse([]byte(build(depth)), dict, xmlparse.Options{})
		e, _ := Compile(q, dict, nil, Options{})
		if _, err := EvalTokens(e, stream); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		bound := st.QueryNodes*depth + depth + 2
		if st.MaxLive > bound {
			t.Errorf("depth %d: MaxLive %d exceeds O(|Q|*r) bound %d", depth, st.MaxLive, bound)
		}
	}
}

func TestSelfAxis(t *testing.T) {
	doc := `<a><b>x</b></a>`
	expectAgree(t, doc, "/a/b/self::b")
	expectAgree(t, doc, "/a/self::a/b")
	expectAgree(t, doc, "/descendant-or-self::b")
}

func TestMixedContentAndComments(t *testing.T) {
	doc := `<r>pre<a>in</a><!--note-->post</r>`
	expectAgree(t, doc, "/r/text()")
	expectAgree(t, doc, "/r/comment()")
	expectAgree(t, doc, "//text()")
}

// TestOracleProperty: QuickXScan agrees with the DOM oracle on random
// documents and a battery of queries.
func TestOracleProperty(t *testing.T) {
	queries := []string{
		"//a", "//a//b", "//a/b", "/e0/e1", "//e1[e2]", "//e1[@a0 = '5']",
		"//e2//text()", "//*[@a1]", "//e3[not(e1)]", "//e1[e2 or @a0]",
		"//e0//e0", "//e0//e0//e0", "//e1/@a0", "//e2[. = 'x']",
		"//e1[e0 and e2]", "/e0//e1/e2", "//@a0", "//@*", "/e0//@a1", "//e1[.//@a0 = '5']",
		// predicate paths through descendant steps, under nested anchors
		"//e1[.//e2]", "//e0[e1//e2]", "//e0[.//e1[.//e2]]/e3", "//e0[not(.//e3)]//e1[.//e0//@a1]",
	}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 0, 5)
		for _, q := range queries {
			got := run(t, doc, q)
			want := oracle(t, doc, q)
			if !eqStrings(got, want) {
				t.Fatalf("seed %d query %q:\n quickxscan = %v\n oracle     = %v\n doc %s", seed, q, got, want, doc)
			}
		}
	}
}

func randomDoc(rng *rand.Rand, depth, maxDepth int) string {
	var sb strings.Builder
	name := fmt.Sprintf("e%d", rng.Intn(4))
	sb.WriteString("<" + name)
	for a := 0; a < rng.Intn(3); a++ {
		fmt.Fprintf(&sb, ` a%d="%d"`, a, rng.Intn(10))
	}
	sb.WriteString(">")
	if depth < maxDepth {
		for k := 0; k < rng.Intn(5); k++ {
			if rng.Intn(4) == 0 {
				fmt.Fprintf(&sb, "t%d", rng.Intn(10))
			} else {
				sb.WriteString(randomDoc(rng, depth+1, maxDepth))
			}
		}
	}
	sb.WriteString("</" + name + ">")
	return sb.String()
}

// TestElementValueAfterAttributeMatch: an attribute (or text) match lives
// for one event and must not stay registered as a string-value accumulator —
// its recycled instance used to be handed to the next element match while
// still listed, so that element's text was appended twice.
func TestElementValueAfterAttributeMatch(t *testing.T) {
	dict := xml.NewDict()
	stream, _ := xmlparse.Parse([]byte(`<a k="v"><b>x</b></a>`), dict, xmlparse.Options{})
	q, _ := xpath.Parse(`/a[@k = "v"]/b`)
	e, _ := Compile(q, dict, nil, Options{NeedValues: true})
	ms, err := EvalTokens(e, stream)
	if err != nil || len(ms) != 1 {
		t.Fatalf("ms=%v err=%v", ms, err)
	}
	if string(ms[0].Value) != "x" {
		t.Errorf("element value = %q, want %q", ms[0].Value, "x")
	}
}

// evalTokensSkipping is EvalTokens for a driver that believes CanSkip: after
// every StartElement it asks, and on true feeds the evaluator nothing until
// the matching EndElement — what the stored-record walker does with the
// element's byte length.
func evalTokensSkipping(e *Eval, stream []byte) (ms []Match, skipped int, err error) {
	e.Reset()
	var ids nodeid.Stack
	ids.Reset(nodeid.Root)
	r := tokens.NewReader(stream)
	for r.More() {
		t, err := r.Next()
		if err != nil {
			return nil, 0, err
		}
		switch t.Kind {
		case tokens.StartDocument:
			e.StartDocument()
		case tokens.StartElement:
			id := ids.PushNext() // stays valid while the stack is not touched
			e.StartElement(t.Name, id)
			if !e.CanSkip() {
				ids.Descend()
				continue
			}
			for depth := 1; depth > 0; {
				t, err := r.Next()
				if err != nil {
					return nil, 0, err
				}
				switch t.Kind {
				case tokens.StartElement:
					depth++
				case tokens.EndElement:
					depth--
				}
				skipped++
			}
			e.EndElement(id)
		case tokens.EndElement:
			e.EndElement(ids.Ascend())
		case tokens.Attr:
			e.Attribute(t.Name, t.Value, ids.PushNext())
		case tokens.NSDecl, tokens.PI:
			ids.SkipSlot()
		case tokens.Text:
			e.Text(t.Value, ids.PushNext())
		case tokens.Comment:
			e.Comment(t.Value, ids.PushNext())
		}
	}
	ms, err = e.EndDocument()
	return ms, skipped, err
}

// TestCanSkipNeverChangesResults: over random documents and a query set that
// covers every axis, node test, value accumulation and boolean predicate
// shape, a scan that skips whenever CanSkip allows returns the very matches
// (IDs and values) of the full scan — and does skip on the child-axis
// queries.
func TestCanSkipNeverChangesResults(t *testing.T) {
	queries := []string{
		"/e0/e1", "/e0/e1/e2", "/e0/e1[e2]/e3", "/e0/e1/@a0", "/e0/*/e2", "/e0/e1/text()",
		"/e0/e1[@a0 = '5']", "/e0/e1[e2 = 't3']", "/e0[e1 and e2]/e3", "/e0[e1 or @a1]/e2",
		"/e0[not(e1)]/e2", "/e0/e1[. = 't1']", "/e0/e1//e2", "/e0//e1/e2", "/e0/e1[.//e3]/e2",
		"/e0/e1/self::e1/e2", "/e0/e1/node()", "/e0/e1[e2/e3 = 't2']",
		"//e1", "//e1/e2", "//e1[e2]/@a0", "//e2//text()", "/e9/e1", "/e0/e9//e1",
	}
	skippedAny := false
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 0, 5)
		dict := xml.NewDict()
		stream, err := xmlparse.Parse([]byte(doc), dict, xmlparse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, query := range queries {
			q, err := xpath.Parse(query)
			if err != nil {
				t.Fatalf("%s: %v", query, err)
			}
			for _, needValues := range []bool{false, true} {
				e, err := Compile(q, dict, nil, Options{NeedValues: needValues})
				if err != nil {
					t.Fatalf("%s: %v", query, err)
				}
				want, err := EvalTokens(e, stream)
				if err != nil {
					t.Fatal(err)
				}
				got, skipped, err := evalTokensSkipping(e, stream)
				if err != nil {
					t.Fatal(err)
				}
				skippedAny = skippedAny || skipped > 0
				if len(got) != len(want) {
					t.Fatalf("seed %d %s values=%v: %d matches skipping, %d full\n doc %s",
						seed, query, needValues, len(got), len(want), doc)
				}
				for i := range got {
					if !nodeid.Equal(got[i].ID, want[i].ID) || string(got[i].Value) != string(want[i].Value) {
						t.Fatalf("seed %d %s values=%v: match %d = %s %q skipping, %s %q full\n doc %s",
							seed, query, needValues, i, got[i].ID, got[i].Value, want[i].ID, want[i].Value, doc)
					}
				}
			}
		}
	}
	if !skippedAny {
		t.Error("no subtree was ever skipped: the test exercises nothing")
	}
}

// TestEvalAllocsIndependentOfDocumentSize is the evaluator half of the
// scan-kernel allocation tripwire: with no match to keep, a scan allocates
// nothing per node, whatever the document's size.
func TestEvalAllocsIndependentOfDocumentSize(t *testing.T) {
	build := func(products int) []byte {
		var sb strings.Builder
		sb.WriteString("<catalog>")
		for i := 0; i < products; i++ {
			fmt.Fprintf(&sb, `<product id="%d"><name>W%d</name><price> %d </price><note>n<!--c--></note></product>`, i, i, i%50)
		}
		sb.WriteString("</catalog>")
		return []byte(sb.String())
	}
	dict := xml.NewDict()
	for _, query := range []string{
		`/catalog/product[price > 100 and @id != "x"]/name`,
		`//product[price > 100 or not(name)]//note/text()`,
	} {
		q, _ := xpath.Parse(query)
		e, err := Compile(q, dict, nil, Options{NeedValues: true})
		if err != nil {
			t.Fatal(err)
		}
		var allocs [2]float64
		for i, products := range []int{20, 400} {
			stream, err := xmlparse.Parse(build(products), dict, xmlparse.Options{})
			if err != nil {
				t.Fatal(err)
			}
			allocs[i] = testing.AllocsPerRun(20, func() {
				ms, err := EvalTokens(e, stream)
				if err != nil || len(ms) != 0 {
					t.Fatalf("ms=%d err=%v", len(ms), err)
				}
			})
		}
		if allocs[1] > allocs[0] || allocs[1] > 4 {
			t.Errorf("%s: %v allocs for 20 products, %v for 400; want the same small constant", query, allocs[0], allocs[1])
		}
	}
}

// TestNeed: the required signature holds the names of the result spine and
// of predicate paths joined by and only.
func TestNeed(t *testing.T) {
	dict := xml.NewDict()
	bits := func(names ...string) uint64 {
		var b uint64
		for _, n := range names {
			id, _ := dict.Intern(n)
			b |= xml.SigBit(id)
		}
		return b
	}
	for _, c := range []struct {
		query string
		need  uint64
	}{
		{`/a/b`, bits("a", "b")},
		{`//a//a//b`, bits("a", "b")},
		{`/a/b[c and d/e]/f`, bits("a", "b", "c", "d", "e", "f")},
		{`/a[b or c]`, bits("a")},
		{`/a[b and (c or d)]`, bits("a", "b")},
		{`//a[not(b)]`, bits("a")},
		{`/a/*/@x`, bits("a")},
		{`/a/node()`, bits("a")},
		{`/a[b[c or d] and e = 1]`, bits("a", "b", "e")},
		{`/a[@x = 1]/text()`, bits("a")},
		{`/a[. = 'v']`, bits("a")},
		{`//*`, 0},
	} {
		q, err := xpath.Parse(c.query)
		if err != nil {
			t.Fatal(err)
		}
		e, err := Compile(q, dict, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if e.Need() != c.need {
			t.Errorf("%s: Need %x, want %x", c.query, e.Need(), c.need)
		}
	}
}

// TestNeedRulesOutOnlyEmptyResults: over random documents, a query whose
// required signature the document's element names do not cover has no
// matches there.
func TestNeedRulesOutOnlyEmptyResults(t *testing.T) {
	queries := []string{
		"//e1", "//e1/e2", "/e0/e1[e2]/e3", "/e0[e1 and e2]/e3", "/e0[e1 or e9]/e2",
		"/e0[not(e9)]/e2", "//e1[e2 and .//e3]", "//e9", "/e0//e9", "//e1[e9 = 't1']",
		"//e4//e4//e5", "//*[e5]/@a0", "//e2//text()", "/e0/e1[e2/e5 = 't2']",
	}
	ruledOut := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 0, 5)
		dict := xml.NewDict()
		stream, err := xmlparse.Parse([]byte(doc), dict, xmlparse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var sig uint64
		for r := tokens.NewReader(stream); r.More(); {
			tok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if tok.Kind == tokens.StartElement {
				sig |= xml.SigBit(tok.Name.Local)
			}
		}
		for _, query := range queries {
			q, _ := xpath.Parse(query)
			e, err := Compile(q, dict, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if e.Need()&^sig == 0 {
				continue
			}
			ruledOut++
			if ms, err := EvalTokens(e, stream); err != nil || len(ms) != 0 {
				t.Fatalf("seed %d %s: ruled out by the signature, but %d matches (err %v)\n doc %s", seed, query, len(ms), err, doc)
			}
		}
	}
	if ruledOut == 0 {
		t.Fatal("no document was ever ruled out: the test exercises nothing")
	}
}
