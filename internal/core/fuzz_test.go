package core

import (
	"bytes"
	"hash/fnv"
	"math/rand"
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
