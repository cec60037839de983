package nodeindex

import (
	"testing"

	"rx/internal/buffer"
	"rx/internal/heap"
	"rx/internal/nodeid"
	"rx/internal/pagestore"
	"rx/internal/xml"
)

func newIndex(t *testing.T) *Index {
	t.Helper()
	pool := buffer.New(pagestore.NewMemStore(), 128)
	ix, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func rid(p uint32, s uint16) heap.RID {
	return heap.RID{Page: pagestore.PageID(p), Slot: s}
}

// TestPaperExample reproduces the exact Figure-3 example: two records with
// three interval entries (02, rid1), (020206, rid2), (020602, rid1).
func TestPaperExample(t *testing.T) {
	ix := newIndex(t)
	rid1, rid2 := rid(10, 0), rid(10, 1)
	doc := xml.DocID(7)
	mustPut := func(id string, r heap.RID) {
		nid, err := nodeid.Parse(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Put(doc, nid, r); err != nil {
			t.Fatal(err)
		}
	}
	mustPut("02", rid1)
	mustPut("020206", rid2)
	mustPut("020602", rid1)

	cases := []struct {
		node string
		want heap.RID
	}{
		{"00", rid1},     // root → first interval's record
		{"02", rid1},     // Node1
		{"0202", rid2},   // Node2 (packed subtree)
		{"020204", rid2}, // Node4
		{"020206", rid2}, // Node5
		{"0204", rid1},   // Node6
		{"0206", rid1},   // Node7
		{"020602", rid1}, // Node8
	}
	for _, c := range cases {
		nid, _ := nodeid.Parse(c.node)
		got, err := ix.Lookup(doc, nid)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", c.node, err)
		}
		if got != c.want {
			t.Errorf("Lookup(%s) = %v, want %v", c.node, got, c.want)
		}
	}
	// Beyond the last interval: not found.
	past, _ := nodeid.Parse("04")
	if _, err := ix.Lookup(doc, past); err == nil {
		t.Error("lookup past the document should fail")
	}
	// Other documents don't interfere.
	if _, err := ix.Lookup(doc+1, nodeid.Root); err == nil {
		t.Error("lookup in a different doc should fail")
	}
}

func TestRootRID(t *testing.T) {
	ix := newIndex(t)
	doc := xml.DocID(3)
	up, _ := nodeid.Parse("0208")
	ix.Put(doc, up, rid(5, 2))
	got, err := ix.RootRID(doc)
	if err != nil || got != rid(5, 2) {
		t.Errorf("RootRID = %v, %v", got, err)
	}
}

func TestDeleteDocIsolation(t *testing.T) {
	ix := newIndex(t)
	for d := xml.DocID(1); d <= 3; d++ {
		for i := 0; i < 10; i++ {
			ix.Put(d, nodeid.Append(nodeid.Root, nodeid.RelAt(i)), rid(uint32(d), uint16(i)))
		}
	}
	var rows []heap.RID
	n, err := ix.DeleteDoc(2, func(r heap.RID) error { rows = append(rows, r); return nil })
	if err != nil || n != 10 {
		t.Fatalf("DeleteDoc = %d, %v", n, err)
	}
	if len(rows) != 10 || rows[0] != rid(2, 0) || rows[9] != rid(2, 9) {
		t.Errorf("DeleteDoc passed rows %v", rows)
	}
	if _, err := ix.Lookup(2, nodeid.Root); err == nil {
		t.Error("doc 2 entries remain")
	}
	if _, err := ix.Lookup(1, nodeid.Root); err != nil {
		t.Errorf("doc 1 damaged: %v", err)
	}
	if _, err := ix.Lookup(3, nodeid.Root); err != nil {
		t.Errorf("doc 3 damaged: %v", err)
	}
	count := 0
	ix.ScanDoc(3, func(upper nodeid.ID, r heap.RID) bool { count++; return true })
	if count != 10 {
		t.Errorf("ScanDoc(3) = %d entries", count)
	}
}

func TestPutDelete(t *testing.T) {
	ix := newIndex(t)
	up := nodeid.ID{0x02, 0x04}
	ix.Put(1, up, rid(1, 1))
	if err := ix.Delete(1, up); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Lookup(1, up); err == nil {
		t.Error("entry survives delete")
	}
	total, _ := ix.Count()
	if total != 0 {
		t.Errorf("Count = %d", total)
	}
}
