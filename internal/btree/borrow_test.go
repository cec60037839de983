package btree

import (
	"testing"
)

// TestScanAllocsFlat: Scan lends its entries, so what a call allocates does
// not grow with the entries it visits.
func TestScanAllocsFlat(t *testing.T) {
	tr := newTree(t, 256)
	const n = 4000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), key(i)); err != nil {
			t.Fatal(err)
		}
	}
	scan := func(limit int) float64 {
		return testing.AllocsPerRun(20, func() {
			seen := 0
			if err := tr.Scan(nil, nil, func(Entry) bool { seen++; return seen < limit }); err != nil {
				t.Fatal(err)
			}
			if seen != limit {
				t.Fatalf("scan saw %d entries, want %d", seen, limit)
			}
		})
	}
	one, all := scan(1), scan(n)
	if all != one {
		t.Fatalf("Scan allocates %.0f visiting one entry and %.0f visiting %d", one, all, n)
	}
	if count := testing.AllocsPerRun(20, func() {
		if c, err := tr.Count(); err != nil || c != n {
			t.Fatalf("Count = %d, %v", c, err)
		}
	}); count != 0 {
		t.Fatalf("Count allocates %.0f", count)
	}
}

// TestCeilingAllocs: Ceiling lends the entry it finds and allocates nothing;
// Get allocates only the copy of the value it returns.
func TestCeilingAllocs(t *testing.T) {
	tr := newTree(t, 256)
	for i := 0; i < 4000; i += 2 {
		if err := tr.Put(key(i), key(i)); err != nil {
			t.Fatal(err)
		}
	}
	probe, hit := key(1001), key(1002)
	if a := testing.AllocsPerRun(100, func() {
		found := false
		if err := tr.Ceiling(probe, func(k, _ []byte) { found = string(k) == string(hit) }); err != nil || !found {
			t.Fatalf("Ceiling(%x): found %v, %v", probe, found, err)
		}
	}); a != 0 {
		t.Fatalf("Ceiling allocates %.0f", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, err := tr.Get(hit); err != nil {
			t.Fatal(err)
		}
	}); a != 1 {
		t.Fatalf("Get allocates %.0f, want 1 (the value's copy)", a)
	}
}
