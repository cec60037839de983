package btree

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"rx/internal/keycodec"
	"rx/internal/pagestore"
)

// viKey is a value-index-shaped key: an 8-byte encoded double, an 8-byte
// DocID and a short NodeID.
func viKey(val float64, doc, node int) []byte {
	k, err := keycodec.Float64(nil, val)
	if err != nil {
		panic(err)
	}
	k = binary.BigEndian.AppendUint64(k, uint64(doc))
	return append(k, 2, byte(node))
}

// loadShapes are the insert orders an index sees, each a document at a time
// in DocID order with 12 value-index entries per document (a 6-byte RID
// each):
//   - random: every entry's value is one of 9,500, so keys arrive in random
//     order (a price index);
//   - nine-runs: every entry's value is one of 9, so the keys are nine
//     ascending runs of DocIDs, interleaved (a quantity index);
//   - append: one value, so every key lands past the last (a DocID index).
var loadShapes = []struct {
	name   string
	values int
}{{"random", 9500}, {"nine-runs", 9}, {"append", 1}}

// loadShape builds a tree of docs documents' entries by Put.
func loadShape(t *testing.T, rng *rand.Rand, values, docs int) *Tree {
	t.Helper()
	tr := newTree(t, 256)
	rid := make([]byte, 6)
	for d := 0; d < docs; d++ {
		for j := 0; j < 12; j++ {
			if err := tr.Put(viKey(float64(1+rng.Intn(values)), d, j), rid); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tr
}

// leafFill is the tree's live leaf bytes (cells and their slots) over its
// leaf pages' bytes.
func leafFill(t *testing.T, tr *Tree) float64 {
	t.Helper()
	pages, err := tr.Pages()
	if err != nil {
		t.Fatal(err)
	}
	used, leaves := 0, 0
	for _, pg := range pages[1:] { // the first is the meta page
		if err := tr.read(pg, func(d []byte) {
			if isLeaf(d) {
				leaves++
				used += pagestore.PageSize - hdrSize - slotSize - liveFree(d)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	return float64(used) / float64(leaves*pagestore.PageSize)
}

// A leaf splits where its run grows: an index fed in key order, one run or
// nine interleaved ones, ends with full leaves instead of the half-full ones
// an even split leaves behind it, and one fed in random order fills as the
// even split did.
func TestSplitFillByShape(t *testing.T) {
	// randomFill is what a split at n/2 gives the random shape at these
	// seeds (0.6948 when leaves stored whole keys: front-coded cells shrink
	// as a leaf's keys grow denser); the run rule and the quiet cut must not
	// move it by more than 2 %.
	const randomFill = 0.7652
	for _, sh := range loadShapes {
		fill := 0.0
		const seeds = 4
		for seed := int64(1); seed <= seeds; seed++ {
			fill += leafFill(t, loadShape(t, rand.New(rand.NewSource(seed)), sh.values, 2000)) / seeds
		}
		t.Logf("%s: leaf fill %.4f", sh.name, fill)
		switch {
		case sh.name == "random" && math.Abs(fill-randomFill) > 0.02*randomFill:
			t.Errorf("random order: leaf fill %.4f, want within 2%% of %.4f", fill, randomFill)
		case sh.name == "nine-runs" && fill < 0.85:
			t.Errorf("nine interleaved runs: leaf fill %.4f, want >= 0.85", fill)
		case sh.name == "append" && fill < 0.9:
			t.Errorf("append: leaf fill %.4f, want >= 0.9", fill)
		}
	}
}

// Index dives stay close on every load shape, also where the leaf a run
// grows in holds a cell or two. Over whole ranges, and over tail ranges from
// the last value and from a random value and DocID on, whose ends lie
// outside the exact window, the mean |log(estimate/count)| is at most 0.1
// and no estimate is off by more than 1.35x either way. Random order is the
// loosest (about 1.2x): adjacent leaves fill alike, which is why the dive
// also samples leaves spread across the range, not just the walked ones and
// the right end's sibling.
//
// Deletes leave emptied leaves linked (no leaf is reclaimed), so once the
// entries of the older half of the documents are deleted a dive from the
// left end may walk empty leaves only. They are no sample of the fill: the
// right end leaf's left sibling then carries it, and the estimate reads
// high, within 2.5x, rather than near zero.
func TestEstimateRangeShapes(t *testing.T) {
	for _, sh := range loadShapes {
		t.Run(sh.name, func(t *testing.T) {
			sum, ranges, worst := 0.0, 0, 1.0
			for seed := int64(1); seed <= 24; seed++ {
				rng := rand.New(rand.NewSource(seed))
				tr := loadShape(t, rng, sh.values, 2000)
				froms := [][]byte{nil, viKey(float64(sh.values), 0, 0)}
				for q := 0; q < 4; q++ {
					froms = append(froms, viKey(float64(1+rng.Intn(sh.values)), rng.Intn(2000), 0))
				}
				for _, from := range froms {
					if r, ok := estimateRatio(t, tr, from); ok {
						sum += math.Abs(math.Log(r))
						worst = max(worst, r, 1/r)
						ranges++
					}
				}
			}
			if ranges < 48 {
				t.Fatalf("only %d ranges outside the exact window", ranges)
			}
			mean := sum / float64(ranges)
			t.Logf("%d ranges: mean |log(est/count)| %.3f, worst %.3fx", ranges, mean, worst)
			if mean > 0.1 || worst > 1.35 {
				t.Errorf("%d ranges: mean |log(est/count)| %.3f (want <= 0.1), worst %.3fx (want <= 1.35x)", ranges, mean, worst)
			}
		})
		t.Run(sh.name+"/purged", func(t *testing.T) {
			lowest, highest, ranges := 1.0, 1.0, 0
			for seed := int64(1); seed <= 24; seed++ {
				rng := rand.New(rand.NewSource(seed))
				tr := loadShape(t, rng, sh.values, 2000)
				var old [][]byte
				if err := tr.Scan(nil, nil, func(e Entry) bool {
					if binary.BigEndian.Uint64(e.Key[8:16]) < 1000 { // the key's DocID
						old = append(old, bytes.Clone(e.Key))
					}
					return true
				}); err != nil {
					t.Fatal(err)
				}
				for _, k := range old {
					if err := tr.Delete(k); err != nil {
						t.Fatal(err)
					}
				}
				for _, from := range [][]byte{nil, viKey(float64(1+rng.Intn(sh.values)), rng.Intn(2000), 0)} {
					if r, ok := estimateRatio(t, tr, from); ok {
						lowest, highest = min(lowest, r), max(highest, r)
						ranges++
					}
				}
			}
			t.Logf("%d ranges: est/count from %.3f to %.3f", ranges, lowest, highest)
			if ranges < 24 || lowest < 1/2.5 || highest > 2.5 {
				t.Errorf("%d ranges: est/count from %.3f to %.3f, want within 2.5x", ranges, lowest, highest)
			}
		})
	}
}

// estimateRatio returns EstimateRange(from, nil) over the count of the tail
// range from from, and false when the range's ends lie inside the exact
// window.
func estimateRatio(t *testing.T, tr *Tree, from []byte) (float64, bool) {
	t.Helper()
	if leavesBetween(t, tr, leafFor(t, tr, from, false), leafFor(t, tr, nil, true)) <= exactLeaves {
		return 0, false
	}
	want := 0
	if err := tr.Scan(from, nil, func(Entry) bool { want++; return true }); err != nil {
		t.Fatal(err)
	}
	got, err := tr.EstimateRange(from, nil)
	if err != nil {
		t.Fatal(err)
	}
	return got / float64(want), true
}
