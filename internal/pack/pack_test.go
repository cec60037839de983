package pack

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rx/internal/nodeid"
	"rx/internal/tokens"
	"rx/internal/xml"
	"rx/internal/xmlparse"
)

// packDoc parses and packs a document, returning the emitted records in
// emission order (bottom-up; root record last) and the dictionary.
func packDoc(t testing.TB, doc string, threshold int) ([]EncodedRecord, *xml.Dict) {
	t.Helper()
	dict := xml.NewDict()
	stream, err := xmlparse.Parse([]byte(doc), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var recs []EncodedRecord
	err = PackStream(stream, threshold, func(r EncodedRecord) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, dict
}

// fetcher builds a FetchBorrow over a set of (owned) records using their intervals,
// emulating the NodeID index with a linear scan (tests only).
func fetcher(t testing.TB, recs []EncodedRecord) FetchBorrow {
	type entry struct {
		upper nodeid.ID
		rec   *Record
	}
	var entries []entry
	for i := range recs {
		r, err := Decode(recs[i].Payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range recs[i].Intervals {
			entries = append(entries, entry{u, r})
		}
	}
	return func(first nodeid.ID) (*Record, func(), error) {
		var best *entry
		for i := range entries {
			e := &entries[i]
			if nodeid.Compare(e.upper, first) >= 0 && (best == nil || nodeid.Compare(e.upper, best.upper) < 0) {
				best = e
			}
		}
		if best == nil {
			return nil, nil, fmt.Errorf("no record for %s", first)
		}
		return best.rec, nil, nil
	}
}

// collector records walk events as a compact trace.
type collector struct {
	dict *xml.Dict
	sb   strings.Builder
	ids  []nodeid.ID
}

func (c *collector) Enter(n *Node) (bool, error) {
	c.ids = append(c.ids, nodeid.Clone(n.Abs))
	switch n.Kind {
	case xml.Element:
		name, _ := c.dict.Lookup(n.Name.Local)
		fmt.Fprintf(&c.sb, "<%s", name)
	case xml.Attribute:
		name, _ := c.dict.Lookup(n.Name.Local)
		fmt.Fprintf(&c.sb, " @%s=%s", name, n.Value)
	case xml.Text:
		fmt.Fprintf(&c.sb, "T[%s]", n.Value)
	case xml.Comment:
		fmt.Fprintf(&c.sb, "C[%s]", n.Value)
	case xml.ProcessingInstruction:
		name, _ := c.dict.Lookup(n.Name.Local)
		fmt.Fprintf(&c.sb, "PI[%s %s]", name, n.Value)
	case xml.Namespace:
		pfx, _ := c.dict.Lookup(n.Name.Local)
		uri, _ := c.dict.Lookup(n.Name.URI)
		fmt.Fprintf(&c.sb, " ns:%s=%s", pfx, uri)
	}
	return true, nil
}

func (c *collector) Leave(n *Node) (bool, error) {
	c.sb.WriteString(">")
	return true, nil
}

// walkTrace walks a packed document and returns the trace.
func walkTrace(t testing.TB, recs []EncodedRecord, dict *xml.Dict) (string, []nodeid.ID) {
	t.Helper()
	root, err := Decode(recs[len(recs)-1].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(root.ContextID) != 0 {
		t.Fatalf("last emitted record is not the root record (context %s)", root.ContextID)
	}
	c := &collector{dict: dict}
	if err := Walk(root, nil, fetcher(t, recs), c); err != nil {
		t.Fatal(err)
	}
	return c.sb.String(), c.ids
}

// tokenTrace renders the original token stream in the same compact form.
func tokenTrace(t testing.TB, doc string, dict *xml.Dict) string {
	t.Helper()
	stream, err := xmlparse.Parse([]byte(doc), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	r := tokens.NewReader(stream)
	for r.More() {
		tok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch tok.Kind {
		case tokens.StartElement:
			name, _ := dict.Lookup(tok.Name.Local)
			fmt.Fprintf(&sb, "<%s", name)
		case tokens.EndElement:
			sb.WriteString(">")
		case tokens.Attr:
			name, _ := dict.Lookup(tok.Name.Local)
			fmt.Fprintf(&sb, " @%s=%s", name, tok.Value)
		case tokens.NSDecl:
			pfx, _ := dict.Lookup(tok.Prefix)
			uri, _ := dict.Lookup(tok.URI)
			fmt.Fprintf(&sb, " ns:%s=%s", pfx, uri)
		case tokens.Text:
			fmt.Fprintf(&sb, "T[%s]", tok.Value)
		case tokens.Comment:
			fmt.Fprintf(&sb, "C[%s]", tok.Value)
		case tokens.PI:
			name, _ := dict.Lookup(tok.Name.Local)
			fmt.Fprintf(&sb, "PI[%s %s]", name, tok.Value)
		}
	}
	return sb.String()
}

func TestSingleRecordRoundTrip(t *testing.T) {
	doc := `<a x="1"><b>hi</b><c><d>deep</d></c><!--note--><?app data?></a>`
	recs, dict := packDoc(t, doc, 0)
	if len(recs) != 1 {
		t.Fatalf("expected 1 record, got %d", len(recs))
	}
	got, _ := walkTrace(t, recs, dict)
	want := tokenTrace(t, doc, dict)
	if got != want {
		t.Errorf("walk = %q\nwant   %q", got, want)
	}
}

func TestMultiRecordRoundTrip(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<catalog>")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, `<product id="%d"><name>Item %d with some padding text</name><price>%d.50</price></product>`, i, i, i)
	}
	sb.WriteString("</catalog>")
	doc := sb.String()
	recs, dict := packDoc(t, doc, 600)
	if len(recs) < 5 {
		t.Fatalf("expected many records at threshold 600, got %d", len(recs))
	}
	got, ids := walkTrace(t, recs, dict)
	want := tokenTrace(t, doc, dict)
	if got != want {
		a, b := got, want
		if len(a) > 200 {
			a = a[:200]
		}
		if len(b) > 200 {
			b = b[:200]
		}
		t.Errorf("walk != tokens:\n got %q\nwant %q", a, b)
	}
	// Node IDs strictly increase in document order.
	for i := 1; i < len(ids); i++ {
		if nodeid.Compare(ids[i-1], ids[i]) >= 0 {
			t.Fatalf("node IDs out of order at %d: %s >= %s", i, ids[i-1], ids[i])
		}
	}
}

func TestRecordSizesRespectThreshold(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&sb, "<e>%030d</e>", i)
	}
	sb.WriteString("</r>")
	for _, th := range []int{300, 1000, 4000} {
		recs, _ := packDoc(t, sb.String(), th)
		for i, r := range recs {
			// Records may exceed the threshold only by one node's overhead
			// (a single entry larger than the threshold is kept whole).
			if len(r.Payload) > th+200 {
				t.Errorf("threshold %d: record %d is %d bytes", th, i, len(r.Payload))
			}
		}
	}
}

func TestFindEveryNode(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&sb, `<s k="%d"><t>v%d</t></s>`, i, i)
	}
	sb.WriteString("</r>")
	recs, dict := packDoc(t, sb.String(), 400)
	_ = dict
	_, ids := walkTrace(t, recs, dict)
	fetch := fetcher(t, recs)
	for _, id := range ids {
		rec, _, err := fetch(id)
		if err != nil {
			t.Fatalf("fetch %s: %v", id, err)
		}
		n, found, err := rec.Find(id, nil)
		for err == nil && !found && n.IsProxy() {
			rec, _, err = fetch(id)
			if err != nil {
				break
			}
			n, found, err = rec.Find(id, nil)
			break // fetch is interval-exact in this harness; one hop is enough
		}
		if err != nil {
			t.Fatalf("find %s: %v", id, err)
		}
		if !found {
			t.Fatalf("node %s not found in its record", id)
		}
		if !nodeid.Equal(n.Abs, id) {
			t.Fatalf("found %s, want %s", n.Abs, id)
		}
	}
	// A non-existent ID is not found.
	bogus := nodeid.Append(nodeid.ID{0x02}, nodeid.Rel{0xEE})
	rec, _, err := fetch(bogus)
	if err == nil {
		if _, found, _ := rec.Find(bogus, nil); found {
			t.Error("bogus node reported found")
		}
	}
}

func TestIntervalsSingleRecord(t *testing.T) {
	recs, _ := packDoc(t, `<a><b/><c/></a>`, 0)
	if len(recs) != 1 {
		t.Fatal("want 1 record")
	}
	if len(recs[0].Intervals) != 1 {
		t.Fatalf("single record should have 1 interval, got %d", len(recs[0].Intervals))
	}
	// Upper endpoint is the last node in document order: <c> = 02 04.
	want := nodeid.ID{0x02, 0x04}
	if !nodeid.Equal(recs[0].Intervals[0], want) {
		t.Errorf("upper = %s, want %s", recs[0].Intervals[0], want)
	}
	if !nodeid.Equal(recs[0].MinNodeID, nodeid.ID{0x02}) {
		t.Errorf("min = %s", recs[0].MinNodeID)
	}
}

func TestIntervalsBreakAtProxies(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r><head/>")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, "<e>%050d</e>", i)
	}
	sb.WriteString("<tail/></r>")
	recs, _ := packDoc(t, sb.String(), 500)
	if len(recs) < 3 {
		t.Fatalf("expected multiple records, got %d", len(recs))
	}
	root := recs[len(recs)-1]
	if len(root.Intervals) < 2 {
		t.Errorf("root record should have multiple intervals (proxy breaks), got %d", len(root.Intervals))
	}
	// Intervals across all records are disjoint and each upper endpoint is
	// >= its record's min.
	for _, r := range recs {
		if len(r.Intervals) == 0 {
			t.Error("record with no intervals")
		}
		for i := 1; i < len(r.Intervals); i++ {
			if nodeid.Compare(r.Intervals[i-1], r.Intervals[i]) >= 0 {
				t.Error("record intervals not ascending")
			}
		}
	}
}

func TestHeaderSelfContained(t *testing.T) {
	doc := `<a xmlns:p="urn:x"><b><c><p:d attr="v">text</p:d></c></b></a>`
	recs, dict := packDoc(t, doc, 40) // force aggressive splitting
	if len(recs) < 2 {
		t.Skipf("threshold did not split (got %d records)", len(recs))
	}
	// Every non-root record's header carries its context path and in-scope
	// namespaces.
	for _, er := range recs[:len(recs)-1] {
		r, err := Decode(er.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.ContextID) == 0 {
			continue
		}
		if len(r.Path) != nodeidLevel(t, r.ContextID) {
			t.Errorf("context path length %d != level %d", len(r.Path), nodeidLevel(t, r.ContextID))
		}
		for _, q := range r.Path {
			if _, err := dict.Lookup(q.Local); err != nil {
				t.Errorf("bad name in path: %v", err)
			}
		}
	}
}

func nodeidLevel(t *testing.T, id nodeid.ID) int {
	lvl := nodeid.Level(id)
	if lvl < 0 {
		t.Fatalf("bad id %s", id)
	}
	return lvl
}

func TestNamespaceInScope(t *testing.T) {
	// A record split below a namespace declaration must carry the binding.
	var sb strings.Builder
	sb.WriteString(`<a xmlns:p="urn:deep">`)
	sb.WriteString("<b>")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&sb, "<p:e>%040d</p:e>", i)
	}
	sb.WriteString("</b></a>")
	recs, dict := packDoc(t, sb.String(), 400)
	if len(recs) < 2 {
		t.Fatal("expected split")
	}
	urnID, _ := dict.Intern("urn:deep")
	pID, _ := dict.Intern("p")
	foundChild := false
	for _, er := range recs[:len(recs)-1] {
		r, _ := Decode(er.Payload)
		if len(r.ContextID) == 0 {
			continue
		}
		foundChild = true
		ok := false
		for _, ns := range r.NS {
			if ns.Prefix == pID && ns.URI == urnID {
				ok = true
			}
		}
		if !ok {
			t.Errorf("record context %s missing in-scope namespace p=urn:deep (has %v)", r.ContextID, r.NS)
		}
	}
	if !foundChild {
		t.Error("no child records to check")
	}
}

func TestCountNodes(t *testing.T) {
	doc := `<a><b x="1">t</b><c/></a>` // a, b, @x, t, c = 5 nodes
	recs, _ := packDoc(t, doc, 0)
	r, _ := Decode(recs[0].Payload)
	n, err := r.CountNodes()
	if err != nil || n != 5 {
		t.Errorf("CountNodes = %d, %v; want 5", n, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{0xFF}); err == nil {
		t.Error("garbage header should fail")
	}
	recs, _ := packDoc(t, `<a>x</a>`, 0)
	// Truncate the payload.
	if _, err := Decode(recs[0].Payload[:2]); err == nil {
		t.Error("truncated payload should fail")
	}
	r, _ := Decode(recs[0].Payload)
	if _, err := r.DecodeNodeAt(len(r.body)+5, nodeid.Root); err == nil {
		t.Error("out-of-range decode should fail")
	}
}

func TestPackerStreamErrors(t *testing.T) {
	p := NewPacker(0, func(EncodedRecord) error { return nil })
	if err := p.Feed(&tokens.Token{Kind: tokens.EndElement}); err == nil {
		t.Error("EndElement before document should fail")
	}
	p2 := NewPacker(0, func(EncodedRecord) error { return nil })
	p2.Feed(&tokens.Token{Kind: tokens.StartDocument})
	if err := p2.Close(); err == nil {
		t.Error("Close before EndDocument should fail")
	}
}

// Property: for random documents and random thresholds, pack+walk
// reproduces the exact token trace and node IDs are strictly increasing.
func TestPackWalkProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 0, 4)
		threshold := 100 + rng.Intn(3000)
		dict := xml.NewDict()
		stream, err := xmlparse.Parse([]byte(doc), dict, xmlparse.Options{})
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		var recs []EncodedRecord
		if err := PackStream(stream, threshold, func(r EncodedRecord) error {
			recs = append(recs, r)
			return nil
		}); err != nil {
			t.Fatalf("seed %d: pack: %v", seed, err)
		}
		got, ids := walkTrace(t, recs, dict)
		want := tokenTrace(t, doc, dict)
		if got != want {
			t.Fatalf("seed %d threshold %d: round trip mismatch\ndoc: %.120s", seed, threshold, doc)
		}
		for i := 1; i < len(ids); i++ {
			if nodeid.Compare(ids[i-1], ids[i]) >= 0 {
				t.Fatalf("seed %d: IDs out of order", seed)
			}
		}
	}
}

func randomDoc(rng *rand.Rand, depth, maxDepth int) string {
	var sb strings.Builder
	name := fmt.Sprintf("e%d", rng.Intn(8))
	sb.WriteString("<" + name)
	for a := 0; a < rng.Intn(3); a++ {
		fmt.Fprintf(&sb, ` a%d="%d"`, a, rng.Intn(1000))
	}
	sb.WriteString(">")
	kids := rng.Intn(6)
	if depth >= maxDepth {
		kids = 0
	}
	for k := 0; k < kids; k++ {
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&sb, "text%d ", rng.Intn(100))
		case 1:
			fmt.Fprintf(&sb, "<!--c%d-->", rng.Intn(10))
		default:
			sb.WriteString(randomDoc(rng, depth+1, maxDepth))
		}
	}
	fmt.Fprintf(&sb, "padding%020d", rng.Intn(1000))
	sb.WriteString("</" + name + ">")
	return sb.String()
}

// TestRootSignature: the root record's header carries the signature of every
// element in the document, whichever record the element was packed into;
// run records carry none; re-encoding an edited record keeps it.
func TestRootSignature(t *testing.T) {
	multi := 0
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 0, 4)
		recs, dict := packDoc(t, doc, 100+rng.Intn(600))
		if len(recs) > 1 {
			multi++
		}
		want := uint64(0)
		stream, err := xmlparse.Parse([]byte(doc), dict, xmlparse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for r := tokens.NewReader(stream); r.More(); {
			tok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if tok.Kind == tokens.StartElement {
				want |= xml.SigBit(tok.Name.Local)
			}
		}
		for i, er := range recs {
			r, err := Decode(er.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if root := i == len(recs)-1; root && r.Sig != want {
				t.Fatalf("seed %d: root signature %x, the document's elements make %x", seed, r.Sig, want)
			} else if !root && r.Sig != 0 {
				t.Fatalf("seed %d: run record %d carries signature %x", seed, i, r.Sig)
			}
			tops, err := r.Mutable()
			if err != nil {
				t.Fatal(err)
			}
			again, err := Decode(r.Encode(tops))
			if err != nil || again.Sig != r.Sig || !nodeid.Equal(again.ContextID, r.ContextID) || len(again.Path) != len(r.Path) {
				t.Fatalf("seed %d record %d: re-encoding changed the header (err %v)", seed, i, err)
			}
		}
	}
	if multi == 0 {
		t.Fatal("every document packed into one record: no run record was checked")
	}
}

// TestWalkProxyCountMismatch: a proxy that claims one subtree more than its
// run holds fails Walk with ErrCorrupt, while WalkPartial — salvage — walks
// the run by its own count and loses nothing.
func TestWalkProxyCountMismatch(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<catalog>")
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&sb, `<product id="%d"><name>Item %d with some padding text</name></product>`, i, i)
	}
	sb.WriteString("</catalog>")
	recs, dict := packDoc(t, sb.String(), 600)
	want, _ := walkTrace(t, recs, dict)

	last := len(recs) - 1
	root, err := Decode(recs[last].Payload)
	if err != nil {
		t.Fatal(err)
	}
	tops, err := root.Mutable()
	if err != nil {
		t.Fatal(err)
	}
	var bump func(list []*MutNode) bool
	bump = func(list []*MutNode) bool {
		for _, m := range list {
			if m.Kind == xml.Proxy {
				m.ProxyCount++
				return true
			}
			if bump(m.Children) {
				return true
			}
		}
		return false
	}
	if !bump(tops) {
		t.Fatal("the root record holds no proxy")
	}
	recs[last].Payload = root.Encode(tops)
	if root, err = Decode(recs[last].Payload); err != nil {
		t.Fatal(err)
	}

	if err := Walk(root, nil, fetcher(t, recs), &collector{dict: dict}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Walk over a proxy counting one subtree too many: %v, want ErrCorrupt", err)
	}
	c := &collector{dict: dict}
	lost, err := WalkPartial(root, nil, fetcher(t, recs), c)
	if err != nil || lost != 0 {
		t.Fatalf("WalkPartial: lost %d, %v; want 0, nil", lost, err)
	}
	if got := c.sb.String(); got != want {
		t.Fatal("WalkPartial did not walk the whole document")
	}
}
