package fault

import (
	"bytes"
	"errors"
	"testing"

	"rx/internal/pagestore"
	"rx/internal/rxerr"
	"rx/internal/wal"
)

func TestDiskBudgetReserveDenyRefill(t *testing.T) {
	b := NewDiskBudget(100, Refill{Denial: 2, Bytes: 50})
	if !b.Reserve(60) {
		t.Fatal("60 of 100 denied")
	}
	if b.Reserve(50) {
		t.Fatal("110 of 100 granted")
	}
	if got := b.Denials(); got != 1 {
		t.Fatalf("denials = %d, want 1", got)
	}
	// Second denial triggers the refill — but the denied op still failed.
	if b.Reserve(50) {
		t.Fatal("pre-refill reservation granted")
	}
	if got := b.Capacity(); got != 150 {
		t.Fatalf("capacity after refill = %d, want 150", got)
	}
	// The NEXT attempt sees the refilled capacity.
	if !b.Reserve(50) {
		t.Fatal("post-refill reservation denied")
	}
	b.Release(60)
	if got := b.Used(); got != 50 {
		t.Fatalf("used after release = %d, want 50", got)
	}
	if got := b.Free(); got != 100 {
		t.Fatalf("free = %d, want 100", got)
	}
}

func TestBudgetStoreAllocate(t *testing.T) {
	b := NewDiskBudget(2 * pagestore.PageSize)
	st := NewStore(pagestore.NewMemStore(), NewInjector().WithBudget(b))
	if _, err := st.Allocate(); err != nil {
		t.Fatalf("first allocate: %v", err)
	}
	if _, err := st.Allocate(); err != nil {
		t.Fatalf("second allocate: %v", err)
	}
	_, err := st.Allocate()
	if !errors.Is(err, rxerr.ErrNoSpace) {
		t.Fatalf("third allocate = %v, want ErrNoSpace", err)
	}
	// Overwrites of existing pages stay free on a full device.
	buf := make([]byte, pagestore.PageSize)
	if err := st.WritePage(0, buf); err != nil {
		t.Fatalf("overwrite on full device: %v", err)
	}
	if err := st.Sync(); err != nil {
		t.Fatalf("sync on full device: %v", err)
	}
}

func TestBudgetDevicePartialWrite(t *testing.T) {
	b := NewDiskBudget(10)
	inj := NewInjector().WithBudget(b)
	dev := NewDevice(&wal.MemDevice{}, inj)
	// 16 bytes into an empty device: 10 fit, 6 do not.
	n, err := dev.WriteAt(bytes.Repeat([]byte{0xaa}, 16), 0)
	if !errors.Is(err, rxerr.ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	if n != 10 {
		t.Fatalf("accepted prefix = %d, want 10", n)
	}
	if size, _ := dev.Size(); size != 10 {
		t.Fatalf("size = %d, want 10", size)
	}
	// Overwriting the accepted prefix is free.
	if _, err := dev.WriteAt([]byte{1, 2, 3}, 0); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	// Growth resumes after space frees.
	b.SetCapacity(32)
	if _, err := dev.WriteAt(bytes.Repeat([]byte{0xbb}, 6), 10); err != nil {
		t.Fatalf("post-refill write: %v", err)
	}
	// A kill lands the accepted prefix, the overwrite and the growth.
	if err := inj.Kill(); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{1, 2, 3}, bytes.Repeat([]byte{0xaa}, 7)...), bytes.Repeat([]byte{0xbb}, 6)...)
	got := make([]byte, 16)
	if n, _ := dev.Inner().ReadAt(got, 0); n != 16 || !bytes.Equal(got, want) {
		t.Fatalf("landed device = %x (%d bytes), want %x", got[:n], n, want)
	}
	if got := b.Used(); got != 16 {
		t.Fatalf("charged %d bytes, want 16", got)
	}
}
