package arena

import (
	"bytes"
	"testing"
)

func TestNilArena(t *testing.T) {
	var a *Arena
	b := a.Alloc(16)
	if len(b) != 16 {
		t.Fatalf("nil Alloc len = %d", len(b))
	}
	if got := a.Copy([]byte("abc")); !bytes.Equal(got, []byte("abc")) {
		t.Fatalf("nil Copy = %q", got)
	}
	if c := a.Make(8); len(c) != 0 || cap(c) != 8 {
		t.Fatalf("nil Make len/cap = %d/%d", len(c), cap(c))
	}
	a.Reset() // must not panic
	if a.Footprint() != 0 {
		t.Fatal("nil Footprint != 0")
	}
}

func TestAllocDoesNotOverlap(t *testing.T) {
	a := New()
	x := a.Alloc(10)
	y := a.Alloc(10)
	copy(x, "xxxxxxxxxx")
	copy(y, "yyyyyyyyyy")
	if !bytes.Equal(x, []byte("xxxxxxxxxx")) {
		t.Fatalf("x clobbered: %q", x)
	}
	// Appending past x's length must not scribble over y.
	x = append(x, 'z')
	if !bytes.Equal(y, []byte("yyyyyyyyyy")) {
		t.Fatalf("append to x clobbered y: %q", y)
	}
}

func TestAllocZeroed(t *testing.T) {
	a := New()
	b := a.Alloc(64)
	copy(b, "dirty")
	a.Reset()
	c := a.Alloc(64)
	for i, v := range c {
		if v != 0 {
			t.Fatalf("byte %d = %d after Reset, want 0", i, v)
		}
	}
}

func TestOversizedAllocation(t *testing.T) {
	a := New()
	big := a.Alloc(chunkSize * 3)
	if len(big) != chunkSize*3 {
		t.Fatalf("oversized len = %d", len(big))
	}
	small := a.Alloc(8)
	if len(small) != 8 {
		t.Fatalf("small after oversized len = %d", len(small))
	}
}

func TestResetRecyclesChunks(t *testing.T) {
	a := New()
	for i := 0; i < 100; i++ {
		a.Alloc(chunkSize / 2)
	}
	before := a.Footprint()
	a.Reset()
	for i := 0; i < 100; i++ {
		a.Alloc(chunkSize / 2)
	}
	after := a.Footprint()
	if after > before+chunkSize {
		t.Fatalf("footprint grew across Reset: %d -> %d", before, after)
	}
}

func TestCapacityIsExact(t *testing.T) {
	a := New()
	b := a.AllocRaw(5)
	if cap(b) != 5 {
		t.Fatalf("cap = %d, want 5", cap(b))
	}
	m := a.Make(7)
	if len(m) != 0 || cap(m) != 7 {
		t.Fatalf("Make len/cap = %d/%d", len(m), cap(m))
	}
}
