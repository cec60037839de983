package xpath

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestParseSimple(t *testing.T) {
	q := mustParse(t, "/catalog/product")
	if !q.Rooted {
		t.Error("should be rooted")
	}
	s := q.Steps
	if s.Axis != Child || s.Test != TestName || s.Local != "catalog" {
		t.Errorf("step1 = %+v", s)
	}
	s = s.Next
	if s.Axis != Child || s.Local != "product" || s.Next != nil {
		t.Errorf("step2 = %+v", s)
	}
}

func TestParseDescendantAndAttr(t *testing.T) {
	q := mustParse(t, "//product/@id")
	if q.Steps.Axis != Descendant {
		t.Errorf("axis = %v", q.Steps.Axis)
	}
	a := q.Steps.Next
	if a.Axis != Attribute || a.Local != "id" {
		t.Errorf("attr step = %+v", a)
	}
}

func TestParseKindTests(t *testing.T) {
	q := mustParse(t, "/a/text()")
	if q.Steps.Next.Test != TestText {
		t.Error("text() not parsed")
	}
	q = mustParse(t, "//node()")
	if q.Steps.Test != TestNode {
		t.Error("node() not parsed")
	}
	q = mustParse(t, "/a/comment()")
	if q.Steps.Next.Test != TestComment {
		t.Error("comment() not parsed")
	}
	q = mustParse(t, "/a/*")
	if q.Steps.Next.Test != TestStar {
		t.Error("* not parsed")
	}
}

func TestParseExplicitAxes(t *testing.T) {
	q := mustParse(t, "/child::a/descendant::b/self::c/attribute::d")
	want := []Axis{Child, Descendant, Self, Attribute}
	s := q.Steps
	for i, ax := range want {
		if s.Axis != ax {
			t.Errorf("step %d axis = %v, want %v", i, s.Axis, ax)
		}
		s = s.Next
	}
	q = mustParse(t, "/descendant-or-self::a")
	if q.Steps.Axis != DescendantOrSelf {
		t.Error("descendant-or-self:: not parsed")
	}
	// An axis named after "//" must not swallow it: //@k is
	// /descendant-or-self::node()/@k, not /@k.
	for _, src := range []string{"//@k", "/a//@k", "/a[.//@k = 'v']", "//self::a", "/a//."} {
		if got, lost := mustParse(t, src).String(), mustParse(t, strings.Replace(src, "//", "/", 1)).String(); got == lost {
			t.Errorf("%q parsed as %q: the // is lost", src, got)
		}
	}
	q = mustParse(t, "//@k")
	if s := q.Steps; s.Axis != DescendantOrSelf || s.Test != TestNode || s.Next == nil || s.Next.Axis != Attribute || s.Next.Local != "k" {
		t.Errorf("//@k = %q", q.String())
	}
}

func TestParsePrefixedName(t *testing.T) {
	q := mustParse(t, "/p:a//q:b")
	if q.Steps.Prefix != "p" || q.Steps.Local != "a" {
		t.Errorf("step1 = %+v", q.Steps)
	}
	if q.Steps.Next.Prefix != "q" || q.Steps.Next.Local != "b" {
		t.Errorf("step2 = %+v", q.Steps.Next)
	}
}

func TestParsePredicates(t *testing.T) {
	// The paper's running example (§4.2).
	q := mustParse(t, `//s[.//t = 'XML' and f/@w > 300]`)
	s := q.Steps
	if s.Local != "s" || len(s.Preds) != 1 {
		t.Fatalf("step = %+v", s)
	}
	and, ok := s.Preds[0].(And)
	if !ok {
		t.Fatalf("pred = %T", s.Preds[0])
	}
	l, ok := and.L.(Cmp)
	if !ok || l.Op != EQ || l.Lit.Str != "XML" {
		t.Errorf("left = %+v", and.L)
	}
	if l.Path.Axis != Descendant || l.Path.Local != "t" {
		t.Errorf("left path = %+v", l.Path)
	}
	r, ok := and.R.(Cmp)
	if !ok || r.Op != GT || !r.Lit.IsNum || r.Lit.Num != 300 {
		t.Errorf("right = %+v", and.R)
	}
	if r.Path.Local != "f" || r.Path.Next.Axis != Attribute || r.Path.Next.Local != "w" {
		t.Errorf("right path = %+v", r.Path)
	}
}

func TestParseTable2Queries(t *testing.T) {
	// All three Table 2 query shapes must parse.
	for _, src := range []string{
		"/Catalog/Categories/Product[RegPrice > 100]",
		"/Catalog/Categories/Product[Discount > 0.1]",
		"/Catalog/Categories/Product[RegPrice > 100 and Discount > 0.1]",
		"/catalog//productname",
		"//Discount",
	} {
		mustParse(t, src)
	}
}

func TestParseOrNotNested(t *testing.T) {
	q := mustParse(t, `/a[b = 1 or not(c) and d != 'x']`)
	or, ok := q.Steps.Preds[0].(Or)
	if !ok {
		t.Fatalf("pred = %T", q.Steps.Preds[0])
	}
	and, ok := or.R.(And)
	if !ok {
		t.Fatalf("or.R = %T (and should bind tighter)", or.R)
	}
	if _, ok := and.L.(Not); !ok {
		t.Errorf("and.L = %T", and.L)
	}
}

func TestParseExistencePredicate(t *testing.T) {
	q := mustParse(t, "/a[b/c]")
	ex, ok := q.Steps.Preds[0].(Exists)
	if !ok {
		t.Fatalf("pred = %T", q.Steps.Preds[0])
	}
	if ex.Path.Local != "b" || ex.Path.Next.Local != "c" {
		t.Errorf("path = %+v", ex.Path)
	}
}

func TestParseSelfValuePredicate(t *testing.T) {
	q := mustParse(t, "/a/b[. = 'v']")
	cmp, ok := q.Steps.Next.Preds[0].(Cmp)
	if !ok || cmp.Path.Axis != Self {
		t.Fatalf("pred = %+v", q.Steps.Next.Preds[0])
	}
}

func TestParseRelative(t *testing.T) {
	q := mustParse(t, "b/c")
	if q.Rooted {
		t.Error("relative path marked rooted")
	}
	q = mustParse(t, ".//x")
	if q.Rooted || q.Steps.Axis != Descendant {
		t.Errorf("got %+v", q)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"", "/", "/a[", "/a[]", "/a[b=]", "/a/'x'", "//", "/a]b", "/a[not b]",
		"/a[b='x]", "/a[1bad]", "/a[b ! c]",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, src := range []string{
		"/catalog/product",
		"//a//b",
		"/a/@id",
		"/a/text()",
		"/Catalog/Categories/Product[RegPrice > 100 and Discount > 0.1]",
		"//s[.//t = 'XML']",
		"//@k",
		"/a//@k",
		"/a/descendant-or-self::b",
	} {
		q := mustParse(t, src)
		q2 := mustParse(t, q.String())
		if q.String() != q2.String() {
			t.Errorf("%q: unstable rendering %q -> %q", src, q.String(), q2.String())
		}
	}
}

func TestResult(t *testing.T) {
	q := mustParse(t, "/a/b/c")
	if q.Result().Local != "c" {
		t.Errorf("Result = %+v", q.Result())
	}
}

func TestCovers(t *testing.T) {
	cases := []struct {
		index, query string
		want         bool
	}{
		// The paper's Table 2 example: //Discount contains the concrete path.
		{"//Discount", "/Catalog/Categories/Product/Discount", true},
		{"/Catalog/Categories/Product/RegPrice", "/Catalog/Categories/Product/RegPrice", true},
		{"/Catalog/Categories/Product/RegPrice", "/Catalog/Categories/Product/Discount", false},
		{"//Product/RegPrice", "/Catalog/Categories/Product/RegPrice", true},
		{"/Catalog//RegPrice", "/Catalog/Categories/Product/RegPrice", true},
		{"//RegPrice", "//RegPrice", true},
		{"/a/RegPrice", "//RegPrice", false}, // query matches more than the index
		{"//a/b", "/x/a/b", true},
		{"//a/b", "/a/x/b", false},
		{"//*", "/anything", true},
		{"/catalog//productname", "/catalog/x/y/productname", true},
		{"/catalog//productname", "/shop/x/productname", false},
		{"//a/@id", "/r/a/@id", true},
		{"//a/@id", "/r/a/id", false}, // attribute vs element
		{"//a", "//a/b", false},
	}
	for _, c := range cases {
		iq := mustParse(t, c.index)
		qq := mustParse(t, c.query)
		if got := Covers(iq, qq); got != c.want {
			t.Errorf("Covers(%q, %q) = %v, want %v", c.index, c.query, got, c.want)
		}
	}
}

func TestEquivalent(t *testing.T) {
	a := mustParse(t, "/a/b/c")
	b := mustParse(t, "/a/b/c")
	c := mustParse(t, "//c")
	if !Equivalent(a, b) {
		t.Error("identical paths should be equivalent")
	}
	if Equivalent(a, c) {
		t.Error("different paths should not be equivalent")
	}
}

// TestCoversAllocs is the planner's tripwire: Covers and Equivalent run per
// index and conjunct on every execution and must not allocate for paths of
// usual length. Paths past the stack buffers still decide correctly.
func TestCoversAllocs(t *testing.T) {
	pairs := [][2]*Query{
		{mustParse(t, "//Discount"), mustParse(t, "/Catalog/Categories/Product/Discount")},
		{mustParse(t, "/Catalog//RegPrice"), mustParse(t, "/Catalog/Categories/Product/RegPrice")},
		{mustParse(t, "//a/@id"), mustParse(t, "/r/a/id")},
		{mustParse(t, "/Order/Customer"), mustParse(t, "/Order[Customer = 'c']/Customer")},
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range pairs {
			Covers(p[0], p[1])
			Equivalent(p[0], p[1])
		}
	})
	if allocs != 0 {
		t.Errorf("Covers and Equivalent: %v allocs per round, want 0", allocs)
	}
	deep := "/r" + strings.Repeat("/x", 30) + "/leaf"
	if !Covers(mustParse(t, "//x//leaf"), mustParse(t, deep)) || Covers(mustParse(t, "//y//leaf"), mustParse(t, deep)) {
		t.Errorf("Covers over a %d-step path decided wrong", 32)
	}
}

func TestHasPredicates(t *testing.T) {
	if mustParse(t, "/a/b").HasPredicates() {
		t.Error("no preds expected")
	}
	if !mustParse(t, "/a[b]/c").HasPredicates() {
		t.Error("preds expected")
	}
}
