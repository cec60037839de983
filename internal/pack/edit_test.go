package pack

import (
	"bytes"
	"testing"

	"rx/internal/nodeid"
	"rx/internal/tokens"
	"rx/internal/xml"
	"rx/internal/xmlparse"
)

func singleRecord(t *testing.T, doc string) (*Record, *xml.Dict) {
	t.Helper()
	dict := xml.NewDict()
	stream, err := xmlparse.Parse([]byte(doc), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var recs []EncodedRecord
	if err := PackStream(stream, 0, func(r EncodedRecord) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("want 1 record, got %d", len(recs))
	}
	r, err := Decode(recs[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	return r, dict
}

func TestMutableRoundTrip(t *testing.T) {
	rec, _ := singleRecord(t, `<a x="1"><b>hi</b><c><d/></c></a>`)
	tops, err := rec.Mutable()
	if err != nil {
		t.Fatal(err)
	}
	payload := rec.Encode(tops)
	rec2, err := Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	tops2, err := rec2.Mutable()
	if err != nil {
		t.Fatal(err)
	}
	if len(tops) != len(tops2) || !EqualMut(tops[0], tops2[0]) {
		t.Error("mutable round trip changed the record")
	}
}

func TestFindMut(t *testing.T) {
	rec, _ := singleRecord(t, `<a><b>hi</b><c><d/></c></a>`)
	tops, _ := rec.Mutable()
	// /a/c/d = 02 04 02
	target := nodeid.ID{0x02, 0x04, 0x02}
	parent, idx, node, err := FindMut(tops, rec.ContextID, target)
	if err != nil {
		t.Fatal(err)
	}
	if node.Kind != xml.Element || parent == nil || idx != 0 {
		t.Errorf("node=%+v parent=%v idx=%d", node, parent, idx)
	}
	// Root of the record.
	p2, idx2, n2, err := FindMut(tops, rec.ContextID, nodeid.ID{0x02})
	if err != nil || p2 != nil || idx2 != 0 || n2.Kind != xml.Element {
		t.Errorf("root find: %v %d %+v %v", p2, idx2, n2, err)
	}
	// Missing node.
	if _, _, _, err := FindMut(tops, rec.ContextID, nodeid.ID{0x02, 0xEE}); err == nil {
		t.Error("missing node should fail")
	}
}

func TestBuildMutFromTokens(t *testing.T) {
	dict := xml.NewDict()
	stream, err := xmlparse.Parse([]byte(`<frag k="v">text<inner/></frag>`), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rel := nodeid.Rel{0x06}
	m, err := BuildMutFromTokens(stream, rel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Rel, rel) || m.Kind != xml.Element || len(m.Children) != 3 {
		t.Errorf("m = %+v", m)
	}
	if m.Children[0].Kind != xml.Attribute || m.Children[1].Kind != xml.Text || m.Children[2].Kind != xml.Element {
		t.Errorf("children = %v %v %v", m.Children[0].Kind, m.Children[1].Kind, m.Children[2].Kind)
	}
	// Two roots rejected.
	bad, _ := xmlparse.Parse([]byte(`<x/>`), dict, xmlparse.Options{})
	two := append(append([]byte(nil), bad...), bad...)
	_ = two // a stream with two documents is not constructible via Parse; test the nil case instead
	if _, err := BuildMutFromTokens(nil, rel); err == nil {
		t.Error("empty fragment should fail")
	}
	// A stream holding one leaf: a stored node re-encoded on its own.
	w := tokens.NewWriter(16)
	w.Text([]byte("alone"), 0)
	leaf, err := BuildMutFromTokens(w.Bytes(), rel)
	if err != nil || leaf.Kind != xml.Text || string(leaf.Value) != "alone" || !bytes.Equal(leaf.Rel, rel) {
		t.Errorf("lone leaf = %+v, %v", leaf, err)
	}
}
