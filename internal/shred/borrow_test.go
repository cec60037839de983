package shred

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"rx/internal/buffer"
	"rx/internal/heap"
	"rx/internal/pagestore"
	"rx/internal/xml"
	"rx/internal/xmlgen"
	"rx/internal/xmlparse"
)

// TestTraverseSurvivesEviction: Traverse keeps the key each successor search
// lends it — for the node's ID and for the next search — while it fetches
// the row and runs fn. On an 8-frame pool whose fn fetches other heap pages,
// every frame moves to another page in between, and fn keeps every node it
// is given. The traversal must be byte-equal to the same store's traversal
// on a pool large enough never to evict.
func TestTraverseSurvivesEviction(t *testing.T) {
	dict := xml.NewDict()
	stream, err := xmlparse.Parse(xmlgen.Catalog(rand.New(rand.NewSource(5)), 40, 100), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	traverse := func(frames int, churn bool) []Node {
		pool := buffer.New(pagestore.NewMemStore(), frames)
		s, err := Create(pool)
		if err != nil {
			t.Fatal(err)
		}
		for _, doc := range []xml.DocID{6, 7, 8} {
			if _, err := s.Insert(doc, stream); err != nil {
				t.Fatal(err)
			}
		}
		other, err := heap.Create(pool)
		if err != nil {
			t.Fatal(err)
		}
		var rows []heap.RID
		for i := 0; i < 16; i++ {
			r, err := other.Insert(bytes.Repeat([]byte{byte(i)}, 6000))
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, r)
		}
		var out []Node
		if err := s.Traverse(7, func(n Node) error {
			out = append(out, n)
			for _, r := range rows {
				if _, err := other.Fetch(r); !churn || err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want, got := traverse(512, false), traverse(8, true)
	if len(want) < 200 {
		t.Fatalf("reference traversal visited %d nodes", len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("traversal under eviction visited %d nodes, want %d byte-equal to the reference", len(got), len(want))
	}
}
