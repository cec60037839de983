package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rx/internal/pagestore"
)

// leafKeys returns each leaf's keys, leaves in link order.
func leafKeys(t *testing.T, tr *Tree) [][][]byte {
	t.Helper()
	f, _, err := tr.descend(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out [][][]byte
	for {
		var ks [][]byte
		for i := 0; i < nKeys(f.Data); i++ {
			ks = append(ks, leafKey(f.Data, i, nil))
		}
		out = append(out, ks)
		next := link(f.Data)
		tr.pool.Unpin(f, false)
		if next == pagestore.InvalidPage {
			return out
		}
		if f, err = tr.pool.Fetch(next); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCeilingMatchesScan: on random trees of height 1 to 3, built by Put in
// random order and by PutSorted, Ceiling returns the first entry of a Scan
// from the same key, or ErrNotFound when the Scan is empty. Probes fall
// before, on, between and after stored keys, on each leaf's last slot and
// just past it, inside leaves that deletes emptied, and past the end.
func TestCeilingMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	heights := map[int]bool{}
	crossed := 0 // probes answered from beyond an emptied leaf
	for trial := 0; trial < 16; trial++ {
		n, keyLen, tr := randomTree(t, rng, trial, func(i int) []byte { return []byte(fmt.Sprint("v", i)) })
		h, err := tr.Height()
		if err != nil {
			t.Fatal(err)
		}
		heights[h] = true
		probes := [][]byte{nil, {}, {0}, bytes.Repeat([]byte{0xff}, 9), padKey(2*n, keyLen)}
		leaves := leafKeys(t, tr)
		var emptied [][]byte
		for li, ks := range leaves {
			if len(ks) == 0 {
				continue
			}
			last := ks[len(ks)-1]
			probes = append(probes, ks[0], last, append(bytes.Clone(last), 0))
			// Empty every third leaf but the last, so a probe into it must
			// follow the right link.
			if li%3 == 1 && li < len(leaves)-1 {
				for _, k := range ks {
					if err := tr.Delete(k); err != nil {
						t.Fatal(err)
					}
				}
				emptied = append(emptied, ks...)
			}
		}
		probes = append(probes, emptied...)
		for q := 0; q < 100; q++ {
			probes = append(probes, key(rng.Intn(2*n+4)), padKey(2*rng.Intn(n+2)+1, keyLen))
		}
		for _, p := range probes {
			var want *Entry
			if err := tr.Scan(p, nil, func(e Entry) bool {
				want = &Entry{bytes.Clone(e.Key), bytes.Clone(e.Value)}
				return false
			}); err != nil {
				t.Fatal(err)
			}
			got, err := ceiling(tr, p)
			if want == nil {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("trial %d (height %d): Ceiling(%x) = %x, %v; Scan is empty", trial, h, p, got.Key, err)
				}
				continue
			}
			if err != nil || !bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Value, want.Value) {
				t.Fatalf("trial %d (height %d): Ceiling(%x) = %x/%q, %v; Scan starts at %x/%q",
					trial, h, p, got.Key, got.Value, err, want.Key, want.Value)
			}
		}
		for _, p := range emptied {
			if _, err := ceiling(tr, p); err == nil {
				crossed++
			}
		}
	}
	for h := 1; h <= 3; h++ {
		if !heights[h] {
			t.Fatalf("no tree of height %d built (heights %v)", h, heights)
		}
	}
	if crossed == 0 {
		t.Fatal("no probe crossed an emptied leaf")
	}
}
