package valueindex

import (
	"fmt"
	"reflect"
	"testing"

	"rx/internal/buffer"
	"rx/internal/keycodec"
	"rx/internal/pagestore"
	"rx/internal/xml"
)

// TestDeleteValueCopiesSurviveEviction: DeleteValue keeps the keys its scan
// lends it and deletes them once the scan's leaves have left the pool. On an
// 8-frame pool the document's entries for the value span more leaves than
// there are frames, so a key kept without its copy would name whatever its
// frame holds by then. Against a map oracle the document's entries for the
// value are gone, and every other entry is intact.
func TestDeleteValueCopiesSurviveEviction(t *testing.T) {
	ix, err := Create(buffer.New(pagestore.NewMemStore(), 8), "//v", xml.TString)
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[string]bool{}
	put := func(val string, doc xml.DocID, n int) {
		for i := 0; i < n; i++ {
			if err := ix.Put([]byte(val), doc, nid(i), rid(i)); err != nil {
				t.Fatal(err)
			}
			if val != "shared" || doc != 2 {
				oracle[fmt.Sprintf("%s/%d/%s", val, doc, nid(i))] = true
			}
		}
	}
	put("shared", 1, 300)
	put("shared", 2, 4000)
	put("shared", 3, 300)
	put("other", 2, 300)
	n, err := ix.DeleteValue([]byte("shared"), 2)
	if err != nil || n != 4000 {
		t.Fatalf("DeleteValue = %d, %v; want 4000", n, err)
	}
	left := map[string]bool{}
	if err := ix.Scan(Range{}, func(e Entry) bool {
		val, _, err := keycodec.DecodeString(e.EncodedValue)
		if err != nil {
			t.Fatal(err)
		}
		left[fmt.Sprintf("%s/%d/%s", val, e.Doc, e.Node)] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(left, oracle) {
		t.Fatalf("index holds %d entries after DeleteValue, want %d", len(left), len(oracle))
	}
}
