package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"rx/internal/dom"
	"rx/internal/nodeid"
	"rx/internal/pagestore"
	"rx/internal/quickxscan"
	"rx/internal/serialize"
	"rx/internal/vsax"
	"rx/internal/xml"
	"rx/internal/xmlgen"
	"rx/internal/xmlparse"
	"rx/internal/xpath"
	"rx/internal/xpathdom"
)

// fuzzDoc turns fuzz bytes into a document and a PackThreshold small enough
// that the document spans records: byte 0 picks the shape (a differentialDocs
// document or an xmlgen generator), byte 1 its size, byte 2 the threshold;
// all of the bytes seed the generator.
func fuzzDoc(data []byte) (doc []byte, threshold int) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	h := fnv.New64a()
	h.Write(data)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	size := at(1)
	switch at(0) % 5 {
	case 0:
		docs := differentialDocs(rng)
		doc = []byte(docs[size%len(docs)])
	case 1:
		doc = xmlgen.Catalog(rng, 1+size%40, 300)
	case 2:
		doc = xmlgen.Recursive(1 + size%24)
	case 3:
		doc = xmlgen.Shaped(1+size%120, 1+at(3)%48)
	default:
		doc = xmlgen.Product(size)
	}
	return doc, 48 + 4*at(2) // 48 … 1068 bytes
}

// FuzzStoredRead drives every stored-read entry over one document, on a plain
// and on a versioned collection, against three oracles: the canonical input
// text (Serialize), the token-stream evaluator (evalStored), and the DOM
// (evalStored again, NodeString, SerializeNode) — and no frame stays pinned.
func FuzzStoredRead(f *testing.F) {
	for shape := byte(0); shape < 5; shape++ {
		// Shape 0 is differentialDocs: an order, a catalog, an archive.
		f.Add([]byte{shape, 0, 0, 7})   // the shape's smallest, 48-byte records
		f.Add([]byte{shape, 61, 26, 3}) // 152-byte records
		f.Add([]byte{shape, 76, 90, 9}) // 408-byte records
	}
	f.Add([]byte{0, 70, 250, 1}) // differentialDocs' recursive a/b shape in one record
	f.Fuzz(func(t *testing.T, data []byte) {
		text, threshold := fuzzDoc(data)
		for _, versioned := range []bool{false, true} {
			db, err := Open(pagestore.NewMemStore(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			col, err := db.CreateCollection("c", CollectionOptions{Versioned: versioned, PackThreshold: threshold})
			if err != nil {
				t.Fatal(err)
			}
			doc := mustInsert(t, col, text)
			fuzzStoredRead(t, db, col, doc, text)
			if pinned := db.pool.Stats().Pinned; pinned != 0 {
				t.Fatalf("versioned=%v: %d frames still pinned", versioned, pinned)
			}
		}
	})
}

func fuzzStoredRead(t *testing.T, db *DB, col *Collection, doc xml.DocID, text []byte) {
	stream, err := xmlparse.Parse(text, db.cat, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := dom.Build(stream)
	if err != nil {
		t.Fatal(err)
	}
	// serializeDOM is the oracle's text for a subtree (or the document).
	serializeDOM := func(n *dom.Node) string {
		var buf bytes.Buffer
		s := serialize.New(&buf, db.cat)
		if err := vsax.FromDOM(n, s); err != nil || s.Err() != nil {
			t.Fatal(err, s.Err())
		}
		return buf.String()
	}

	// (a) Serialize round-trips the canonical input.
	var got bytes.Buffer
	if err := col.Serialize(doc, &got); err != nil {
		t.Fatal(err)
	}
	if want := serializeDOM(tree); got.String() != want {
		t.Fatalf("Serialize:\n got  %.300s\n want %.300s", got.String(), want)
	}

	byID := map[string]*dom.Node{}
	tree.Walk(func(n *dom.Node) bool { byID[string(n.ID)] = n; return true })
	for _, expr := range differentialQueries {
		q, err := xpath.Parse(expr)
		if err != nil {
			t.Fatal(err)
		}
		ce, err := xpathdom.Compile(q, db.cat, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := ce.Evaluate(tree)
		// (b) stored driver == token driver == DOM, with and without values.
		var stored []quickxscan.Match
		for _, needValues := range []bool{false, true} {
			e, err := quickxscan.Compile(q, db.cat, nil, quickxscan.Options{NeedValues: needValues})
			if err != nil {
				t.Fatal(err)
			}
			if stored, err = col.evalStored(doc, e); err != nil {
				t.Fatalf("%s: %v", expr, err)
			}
			stored = append([]quickxscan.Match(nil), stored...)
			streamed, err := quickxscan.EvalTokens(e, stream)
			if err != nil {
				t.Fatalf("%s: %v", expr, err)
			}
			if !sameMatches(stored, streamed) {
				t.Fatalf("%s values=%v: evalStored %v, EvalTokens %v", expr, needValues, stored, streamed)
			}
			agree := len(stored) == len(want)
			for i := 0; agree && i < len(want); i++ {
				agree = nodeid.Equal(stored[i].ID, want[i].ID) &&
					(!needValues || bytes.Equal(stored[i].Value, want[i].StringValue()))
			}
			if !agree {
				t.Fatalf("%s values=%v: evalStored returned %d matches %v, the DOM %d", expr, needValues, len(stored), stored, len(want))
			}
		}
		// (c) the node entries agree with the DOM for every result.
		for _, m := range stored {
			n := byID[string(m.ID)]
			val, err := col.NodeString(doc, m.ID)
			if err != nil || !bytes.Equal(val, n.StringValue()) {
				t.Fatalf("%s: NodeString(%s) = %q (err %v), the DOM %q", expr, m.ID, val, err, n.StringValue())
			}
			if kind, name, err := col.NodeKind(doc, m.ID); err != nil || kind != n.Kind || name != n.Name {
				t.Fatalf("%s: NodeKind(%s) = %v %v (err %v), the DOM %v %v", expr, m.ID, kind, name, err, n.Kind, n.Name)
			}
			if n.Kind != xml.Element {
				continue
			}
			var buf bytes.Buffer
			if err := col.SerializeNode(doc, m.ID, &buf); err != nil || buf.String() != serializeDOM(n) {
				t.Fatalf("%s: SerializeNode(%s) = %.200s (err %v), the DOM %.200s", expr, m.ID, buf.String(), err, serializeDOM(n))
			}
		}
	}
}

// FuzzShapeBind holds a prepared shape to a whole parse: for any text,
// lifting its literals and binding them through the shape a text of the same
// shape prepared gives the query xpath.Parse gives (the same String()) or
// Parse's error, and the plan of a fresh parse. The sibling text that
// prepares the shape has each literal replaced by another of its kind. The
// index set holds a string, a number and a date index, so a string literal
// bound against the date index exercises a range that binding can refuse.
// Seeds: every query of testdata/planner.golden and the benchmark's lookup
// templates, beside malformed numbers, quotes inside literals, names with
// digits and date literals.
func FuzzShapeBind(f *testing.F) {
	golden, err := os.ReadFile("testdata/planner.golden")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(golden), "\n") {
		if line == "" || line[0] == ' ' {
			continue
		}
		_, rest, _ := strings.Cut(line, " ")
		if i := strings.LastIndex(rest, " values="); i >= 0 {
			f.Add(rest[:i])
		}
	}
	for _, q := range []string{
		`/Order[Customer="cust-0003"]/Total`,
		`/Order[Total >= 10.5 and Total < 20.25]/Customer`,
		`/Order[Customer="cust-0007" and Total > 99.99]/Total`,
		`/r[b = 1.2.3]`, `/r[b = -]`, `/r[b = +.]`, `/r[b = -4]/a`, `/r[b=.5]`,
		`/r[a = "it's"]`, `/r[a = '"q"' or b != 2]`, `/r[a = 'x]`, `/r[a = ]`, `/r[a <= = 1]`,
		`/a1[b2 = 3]/c3`, `/r[a1-b.2 >= 10]`, `/r[d = '2004-05-06']`, `/r[d < 'not a date']`,
		`/r[not(a = 1) and b[c = 'x'] = 2]`, `//r[. = 5]`, `r[a = 1]`, "/r[a = '\x00']", "/r\x00[a = 1]",
	} {
		f.Add(q)
	}
	db := newDB(f)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	for i := 0; i < 8; i++ {
		mustInsert(f, col, []byte(fmt.Sprintf(`<r><a>%d</a><b>%d</b><d>2004-05-%02d</d></r>`, i%3, i, 1+i)))
	}
	for _, ix := range []struct {
		name, path string
		typ        xml.TypeID
	}{{"ix_a", "/r/a", xml.TString}, {"ix_b", "/r/b", xml.TDouble}, {"ix_d", "/r/d", xml.TDate}} {
		if err := col.CreateValueIndex(ix.name, ix.path, ix.typ); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, text string) {
		want, wantErr := xpath.Parse(text)
		if wantErr == nil && !want.Rooted {
			wantErr = errors.New("core: collection queries must be rooted paths")
		}
		set := &indexSet{ixs: col.indexSnapshot()}
		key, slots, lifted := xpath.Lift(text, nil, nil)
		var primed *shape
		if lifted {
			// Prime the shape with a sibling text: each literal replaced.
			sibling, at := "", 0
			for _, sl := range slots {
				lit := "7"
				if sl.Quote != 0 {
					lit = string(sl.Quote) + "s" + string(sl.Quote)
				}
				sibling += text[at:sl.Pos] + lit
				at = sl.End
			}
			sibling += text[at:]
			if k, _, ok := xpath.Lift(sibling, nil, nil); !ok || string(k) != string(key) {
				t.Fatalf("%q: sibling %q lifts to %q, not %q", text, sibling, k, key)
			}
			if _, _, err := set.prepare(sibling); err == nil {
				if primed = set.shapes[string(key)]; primed == nil {
					t.Fatalf("%q: sibling %q prepared, but its shape was not kept", text, sibling)
				}
			}
		}
		sh, lits, err := set.prepare(text)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%q: prepared error %v, parse %v", text, err, wantErr)
		}
		if err != nil {
			return
		}
		if primed != nil && sh != primed {
			t.Fatalf("%q: parsed whole, not bound through the shape its sibling prepared", text)
		}
		if got := bindQuery(sh.q, lits).String(); got != want.String() {
			t.Fatalf("%q: bound %s, parsed %s", text, got, want)
		}
		got, err := col.selectAccessPath(sh, lits, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := col.selectAccessPath(newShape(want, set.ixs), want.Lits, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var gb, fb strings.Builder
		renderPlan(&gb, "c", text, false, got)
		renderPlan(&fb, "c", text, false, fresh)
		if gb.String() != fb.String() {
			t.Fatalf("%q: prepared plan\n%s\nfresh parse\n%s", text, gb.String(), fb.String())
		}
	})
}

// bindQuery copies q with each comparison's literal replaced by lits[Slot]:
// the query a text of q's shape with literals lits parses to.
func bindQuery(q *xpath.Query, lits []xpath.Literal) *xpath.Query {
	var steps func(s *xpath.Step) *xpath.Step
	var expr func(e xpath.Expr) xpath.Expr
	steps = func(s *xpath.Step) *xpath.Step {
		if s == nil {
			return nil
		}
		cp := *s
		cp.Preds = nil
		for _, p := range s.Preds {
			cp.Preds = append(cp.Preds, expr(p))
		}
		cp.Next = steps(s.Next)
		return &cp
	}
	expr = func(e xpath.Expr) xpath.Expr {
		switch x := e.(type) {
		case xpath.And:
			return xpath.And{L: expr(x.L), R: expr(x.R)}
		case xpath.Or:
			return xpath.Or{L: expr(x.L), R: expr(x.R)}
		case xpath.Not:
			return xpath.Not{E: expr(x.E)}
		case xpath.Exists:
			return xpath.Exists{Path: steps(x.Path)}
		case xpath.Cmp:
			x.Path, x.Lit = steps(x.Path), lits[x.Slot]
			return x
		}
		return e
	}
	return &xpath.Query{Rooted: q.Rooted, Steps: steps(q.Steps)}
}
