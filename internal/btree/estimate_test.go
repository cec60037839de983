package btree

import (
	"bytes"
	"math/rand"
	"testing"

	"rx/internal/pagestore"
)

// padKey is key(i) padded to n bytes: long keys shrink the fanout, so a few
// hundred entries already make a tree of height 3.
func padKey(i, n int) []byte {
	return append(key(i), bytes.Repeat([]byte{'k'}, n-8)...)
}

// randomTree builds trial's tree of 0 to 3000 entries: keys padKey(2i,
// keyLen) for a random keyLen, inserted by Put in random order on even
// trials and by PutSorted in random-length runs on odd ones.
func randomTree(t *testing.T, rng *rand.Rand, trial int, val func(i int) []byte) (n, keyLen int, tr *Tree) {
	t.Helper()
	n = []int{0, 1 + rng.Intn(20), 200 + rng.Intn(300), 1500 + rng.Intn(1500)}[trial%4]
	keyLen = 8 + rng.Intn(200)
	tr = newTree(t, 4096)
	perm := rng.Perm(n)
	if trial%2 == 0 {
		for _, i := range perm {
			if err := tr.Put(padKey(2*i, keyLen), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		return n, keyLen, tr
	}
	ents := make([]Entry, n)
	for i := range ents {
		ents[i] = Entry{Key: padKey(2*i, keyLen), Value: val(i)}
	}
	for len(ents) > 0 {
		m := min(len(ents), 1+rng.Intn(400))
		if err := tr.PutSorted(ents[:m]); err != nil {
			t.Fatal(err)
		}
		ents = ents[m:]
	}
	return n, keyLen, tr
}

// leafFor returns the leaf a range end routes to (nil: the first leaf as a
// from, the last as a to).
func leafFor(t *testing.T, tr *Tree, k []byte, end bool) pagestore.PageID {
	t.Helper()
	pg := tr.root
	for {
		f, err := tr.pool.Fetch(pg)
		if err != nil {
			t.Fatal(err)
		}
		d := f.Data
		leaf := isLeaf(d)
		if !leaf {
			pg = slotChild(d, childSlot(d, k, end))
		}
		tr.pool.Unpin(f, false)
		if leaf {
			return pg
		}
	}
}

// leavesBetween counts the leaves strictly between two leaves, following the
// links from lo (-1 when hi does not follow lo).
func leavesBetween(t *testing.T, tr *Tree, lo, hi pagestore.PageID) int {
	t.Helper()
	n := -1
	for pg := lo; pg != pagestore.InvalidPage; n++ {
		if pg == hi {
			return max(n, 0)
		}
		f, err := tr.pool.Fetch(pg)
		if err != nil {
			t.Fatal(err)
		}
		pg = link(f.Data)
		tr.pool.Unpin(f, false)
	}
	return -1
}

// TestEstimateRangeMatchesScan: on random trees of height 1 to 3, built by
// Put in random order and by PutSorted, a range whose ends lie within
// exactLeaves leaves is counted exactly, and a wider one is estimated within
// 2x of what Scan visits. Nil ends, the empty tree and inverted ranges (0)
// are among the draws.
func TestEstimateRangeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	heights := map[int]bool{}
	var exact, estimated int
	for trial := 0; trial < 24; trial++ {
		n, keyLen, tr := randomTree(t, rng, trial, func(int) []byte { return []byte("v") })
		h, err := tr.Height()
		if err != nil {
			t.Fatal(err)
		}
		heights[h] = true
		// A range end is nil, a stored key, or a short key that falls
		// between two stored ones.
		end := func() []byte {
			switch rng.Intn(6) {
			case 0:
				return nil
			case 1:
				return padKey(2*(rng.Intn(n+4)-2), keyLen)
			default:
				return key(rng.Intn(2*n + 4))
			}
		}
		for q := 0; q < 200; q++ {
			from, to := end(), end()
			want := 0
			if err := tr.Scan(from, to, func(Entry) bool { want++; return true }); err != nil {
				t.Fatal(err)
			}
			got, err := tr.EstimateRange(from, to)
			if err != nil {
				t.Fatal(err)
			}
			if from != nil && to != nil && bytes.Compare(from, to) >= 0 {
				if got != 0 || want != 0 {
					t.Fatalf("trial %d: inverted range [%x, %x): estimate %v, scan %d", trial, from, to, got, want)
				}
				continue
			}
			if b := leavesBetween(t, tr, leafFor(t, tr, from, false), leafFor(t, tr, to, true)); b >= 0 && b <= exactLeaves {
				exact++
				if got != float64(want) {
					t.Fatalf("trial %d (n=%d, height %d): [%x, %x) spans %d leaves between: estimate %v, scan %d",
						trial, n, h, from, to, b, got, want)
				}
				continue
			}
			estimated++
			if got < float64(want)/2 || got > float64(want)*2 {
				t.Fatalf("trial %d (n=%d, height %d): [%x, %x): estimate %v, scan %d, not within 2x",
					trial, n, h, from, to, got, want)
			}
		}
	}
	for h := 1; h <= 3; h++ {
		if !heights[h] {
			t.Fatalf("no tree of height %d built (heights %v)", h, heights)
		}
	}
	if exact == 0 || estimated == 0 {
		t.Fatalf("%d exact and %d estimated ranges: both paths must run", exact, estimated)
	}
}
