package stats

import (
	"encoding/json"
	"fmt"
	"testing"
)

func TestCollectionStatsCloneIsolation(t *testing.T) {
	cs := New()
	cs.DocCount = 5
	cs.PathCounts = map[string]int64{"/a": 5}
	cl := cs.Clone()
	cl.DocCount = 9
	cl.PathCounts["/a"] = 99
	if cs.DocCount != 5 || cs.PathCounts["/a"] != 5 {
		t.Errorf("clone mutated the original: %+v", cs)
	}
}

// TestCoarsen: each step halves the path counts, rarest first, without
// touching the original, and the steps run out.
func TestCoarsen(t *testing.T) {
	cs := New()
	for i := 0; i < 10; i++ {
		cs.PathCounts[fmt.Sprintf("/p%d", i)] = int64(i)
	}
	cl := cs.Clone()
	if !cl.Coarsen() {
		t.Fatal("nothing shed from a full-resolution snapshot")
	}
	if _, ok := cl.PathCounts["/p9"]; !ok || len(cl.PathCounts) != 5 || len(cs.PathCounts) != 10 {
		t.Fatalf("path trim kept %v (original %d paths)", cl.PathCounts, len(cs.PathCounts))
	}
	steps := 1
	for cl.Coarsen() {
		if steps++; steps > 64 {
			t.Fatal("Coarsen never runs out")
		}
	}
	if len(cl.PathCounts) != 0 {
		t.Fatalf("floor: %d paths", len(cl.PathCounts))
	}
}

func TestCollectionStatsJSONRoundTrip(t *testing.T) {
	cs := New()
	cs.DocCount = 3
	cs.RecordCount = 12
	cs.TotalDocBytes = 3000
	cs.PathCounts = map[string]int64{"/a/b": 6}
	blob, err := json.Marshal(cs)
	if err != nil {
		t.Fatal(err)
	}
	var back CollectionStats
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.DocCount != 3 || back.RecordCount != 12 || back.TotalDocBytes != 3000 || back.PathCounts["/a/b"] != 6 {
		t.Errorf("round trip lost scalars: %+v", back)
	}
}
