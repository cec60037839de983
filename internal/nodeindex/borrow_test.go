package nodeindex

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"rx/internal/btree"
	"rx/internal/buffer"
	"rx/internal/heap"
	"rx/internal/nodeid"
	"rx/internal/pagestore"
	"rx/internal/xml"
)

// TestLookupAllocs: a NodeID lookup builds its search key on the stack and
// reads the entry it finds in place, so Lookup, LookupV and a scan of one
// document's entries allocate nothing.
func TestLookupAllocs(t *testing.T) {
	ix := newIndex(t)
	uppers := []nodeid.ID{{0x02}, {0x02, 0x04, 0x06}, {0x04}, {0x06, 0x02}}
	for doc := xml.DocID(1); doc <= 300; doc++ {
		for i, u := range uppers {
			if err := ix.Put(doc, u, rid(uint32(doc), uint16(i))); err != nil {
				t.Fatal(err)
			}
			if err := ix.PutV(doc+1000, 1, u, rid(uint32(doc), uint16(i))); err != nil {
				t.Fatal(err)
			}
			if err := ix.PutV(doc+1000, 2, u, rid(uint32(doc)+1, uint16(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	node := nodeid.ID{0x02, 0x04}
	cases := []struct {
		name string
		run  func()
	}{
		{"Lookup", func() {
			if r, err := ix.Lookup(150, node); err != nil || r != rid(150, 1) {
				t.Fatalf("Lookup = %v, %v", r, err)
			}
		}},
		{"LookupV", func() {
			if r, err := ix.LookupV(1150, 1, node); err != nil || r != rid(150, 1) {
				t.Fatalf("LookupV = %v, %v", r, err)
			}
		}},
		{"ScanDoc", func() {
			n := 0
			if err := ix.ScanDoc(150, func(nodeid.ID, heap.RID) bool { n++; return true }); err != nil || n != len(uppers) {
				t.Fatalf("ScanDoc saw %d, %v", n, err)
			}
		}},
		{"ScanVersion", func() {
			n := 0
			if err := ix.ScanVersion(1150, 2, func(nodeid.ID, heap.RID) bool { n++; return true }); err != nil || n != len(uppers) {
				t.Fatalf("ScanVersion saw %d, %v", n, err)
			}
		}},
	}
	for _, c := range cases {
		if a := testing.AllocsPerRun(100, c.run); a != 0 {
			t.Errorf("%s allocates %.0f", c.name, a)
		}
	}
}

// churnPool returns a function that fetches every row of a new heap table
// of one-row pages in pool: on a small pool, one call moves every frame to
// another page.
func churnPool(t *testing.T, pool *buffer.Pool, pages int) func() {
	t.Helper()
	tbl, err := heap.Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	var rows []heap.RID
	for i := 0; i < pages; i++ {
		r, err := tbl.Insert(bytes.Repeat([]byte{byte(i)}, 6000))
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}
	return func() {
		for _, r := range rows {
			if _, err := tbl.Fetch(r); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// entriesOf copies every entry of the index into a map from key to RID.
func entriesOf(t *testing.T, ix *Index) map[string]heap.RID {
	t.Helper()
	out := map[string]heap.RID{}
	if err := ix.Tree().Scan(nil, nil, func(e btree.Entry) bool {
		out[string(e.Key)] = heap.RIDFromBytes(e.Value)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func upperAt(i int) nodeid.ID { return nodeid.ID(fmt.Sprintf("n%07d", i)) }

// TestDeleteCopiesSurviveEviction: DeleteDoc and DropVersionsBefore keep the
// keys a scan lends them and delete them once the scan's leaves have left
// the pool. On an 8-frame pool the document's entries span more leaves than
// there are frames, and DeleteDoc's row callback fetches heap pages between
// the scan and the deletes; a key kept without its copy would name whatever
// its frame holds by then. Against a map oracle the document's entries are
// gone, and every other document's are intact.
func TestDeleteCopiesSurviveEviction(t *testing.T) {
	t.Run("DeleteDoc", func(t *testing.T) {
		pool := buffer.New(pagestore.NewMemStore(), 8)
		ix, err := Create(pool)
		if err != nil {
			t.Fatal(err)
		}
		churn := churnPool(t, pool, 16)
		oracle := map[string]heap.RID{}
		var want []heap.RID // doc 2's distinct RIDs, in key order
		for doc := xml.DocID(1); doc <= 3; doc++ {
			n := 300
			if doc == 2 {
				n = 4000
			}
			for i := 0; i < n; i++ {
				r := heap.RID{Page: pagestore.PageID(1000 + doc), Slot: uint16(i / 40)}
				if err := ix.Put(doc, upperAt(i), r); err != nil {
					t.Fatal(err)
				}
				if doc != 2 {
					oracle[string(Key(doc, upperAt(i)))] = r
				} else if i%40 == 0 {
					want = append(want, r)
				}
			}
		}
		var got []heap.RID
		n, err := ix.DeleteDoc(2, func(r heap.RID) error {
			got = append(got, r)
			churn()
			return nil
		})
		if err != nil || n != 4000 {
			t.Fatalf("DeleteDoc = %d, %v; want 4000", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("row saw %d RIDs %v..., want %d", len(got), got[:min(3, len(got))], len(want))
		}
		if left := entriesOf(t, ix); !reflect.DeepEqual(left, oracle) {
			t.Fatalf("index holds %d entries after DeleteDoc, want the other documents' %d", len(left), len(oracle))
		}
	})
	t.Run("DropVersionsBefore", func(t *testing.T) {
		pool := buffer.New(pagestore.NewMemStore(), 8)
		ix, err := Create(pool)
		if err != nil {
			t.Fatal(err)
		}
		const keep = 3
		oracle := map[string]heap.RID{}
		wantKept, dropped := map[heap.RID]bool{}, map[heap.RID]bool{}
		for doc := xml.DocID(1); doc <= 3; doc++ {
			n := 100
			if doc == 2 {
				n = 1000
			}
			for ver := uint64(1); ver <= 4; ver++ {
				for i := 0; i < n; i++ {
					// Versions 3 and 4 carry version 2's records over at
					// even slots, so dropping version 2 releases only half.
					page := 100*int(doc) + int(ver)
					if ver > 2 && i%2 == 0 {
						page = 100*int(doc) + 2
					}
					r := heap.RID{Page: pagestore.PageID(page), Slot: uint16(i)}
					if err := ix.PutV(doc, ver, upperAt(i), r); err != nil {
						t.Fatal(err)
					}
					switch {
					case doc != 2 || ver >= keep:
						oracle[string(VKey(doc, ver, upperAt(i)))] = r
						if doc == 2 {
							wantKept[r] = true
						}
					default:
						dropped[r] = true
					}
				}
			}
		}
		wantReleased := map[heap.RID]bool{}
		for r := range dropped {
			if !wantKept[r] {
				wantReleased[r] = true
			}
		}
		kept, released, err := ix.DropVersionsBefore(2, keep)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(kept, wantKept) || !reflect.DeepEqual(released, wantReleased) {
			t.Fatalf("kept %d, released %d RIDs; want %d and %d", len(kept), len(released), len(wantKept), len(wantReleased))
		}
		if left := entriesOf(t, ix); !reflect.DeepEqual(left, oracle) {
			t.Fatalf("index holds %d entries after DropVersionsBefore, want %d", len(left), len(oracle))
		}
	})
}
