package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"rx/internal/buffer"
	"rx/internal/pagestore"
)

// checkLeaf checks leaf d's front coding: its first cell is a restart, no
// run from a restart to the next is longer than restartEvery, a cell that is
// no restart shares with the previous key exactly their common prefix, the
// rebuilt keys ascend strictly from lo (nil: none) and stay below fence
// (nil: none), and the cells lie apart inside the page beside the slots.
func checkLeaf(t *testing.T, pg pagestore.PageID, d, lo, fence []byte) {
	t.Helper()
	n := nKeys(d)
	type span struct{ off, end int }
	cells := make([]span, 0, n)
	var prev, k []byte
	run := 0
	for i := 0; i < n; i++ {
		off := cellOff(d, i)
		if off < hdrSize+n*slotSize || off >= pagestore.PageSize {
			t.Fatalf("page %d cell %d: offset %d outside the cell area [%d, %d)", pg, i, off, hdrSize+n*slotSize, pagestore.PageSize)
		}
		s, x, v := leafCell(d, off)
		end := off + leafCellSize(s, len(x), len(v))
		if end > pagestore.PageSize {
			t.Fatalf("page %d cell %d: ends at %d, past the page", pg, i, end)
		}
		cells = append(cells, span{off, end})
		if isRestart(d, i) {
			if s != 0 {
				t.Fatalf("page %d cell %d: restart shares %d bytes", pg, i, s)
			}
			run = 1
		} else {
			if i == 0 {
				t.Fatalf("page %d: first cell is no restart", pg)
			}
			if run++; run > restartEvery {
				t.Fatalf("page %d cell %d: run of %d cells, longer than %d", pg, i, run, restartEvery)
			}
			if s > len(prev) {
				t.Fatalf("page %d cell %d: shares %d bytes of a %d-byte previous key", pg, i, s, len(prev))
			}
		}
		k = append(append(k[:0], prev[:s]...), x...)
		if !isRestart(d, i) && s != lcp(prev, k) {
			t.Fatalf("page %d cell %d: shares %d bytes, the keys %d", pg, i, s, lcp(prev, k))
		}
		if i > 0 && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("page %d cell %d: key %x after %x", pg, i, k, prev)
		}
		if i == 0 && lo != nil && bytes.Compare(k, lo) < 0 {
			t.Fatalf("page %d: first key %x below its separator %x", pg, k, lo)
		}
		if fence != nil && bytes.Compare(k, fence) >= 0 {
			t.Fatalf("page %d cell %d: key %x at or above the fence %x", pg, i, k, fence)
		}
		if !bytes.Equal(leafKey(d, i, nil), k) {
			t.Fatalf("page %d cell %d: leafKey %x, decoded %x", pg, i, leafKey(d, i, nil), k)
		}
		prev = append(prev[:0], k...)
	}
	used := hdrSize + n*slotSize
	for i, c := range cells {
		used += c.end - c.off
		for _, o := range cells[:i] {
			if c.off < o.end && o.off < c.end {
				t.Fatalf("page %d: cells [%d, %d) and [%d, %d) overlap", pg, c.off, c.end, o.off, o.end)
			}
		}
	}
	if used > pagestore.PageSize {
		t.Fatalf("page %d: header, slots and cells take %d bytes", pg, used)
	}
}

// checkTree checks every leaf of tr with checkLeaf, each between the
// separators that bound it on the way down.
func checkTree(t *testing.T, tr *Tree) {
	t.Helper()
	var visit func(pg pagestore.PageID, lo, fence []byte)
	visit = func(pg pagestore.PageID, lo, fence []byte) {
		f, err := tr.pool.Fetch(pg)
		if err != nil {
			t.Fatal(err)
		}
		d := bytes.Clone(f.Data)
		tr.pool.Unpin(f, false)
		if isLeaf(d) {
			checkLeaf(t, pg, d, lo, fence)
			return
		}
		n := nKeys(d)
		for s := 0; s <= n; s++ {
			clo, cfence := lo, fence
			if s > 0 {
				clo = innerKey(d, s-1)
			}
			if s < n {
				cfence = innerKey(d, s)
			}
			visit(slotChild(d, s), clo, cfence)
		}
	}
	visit(tr.root, nil, nil)
}

// restartKeys returns the keys of tr's restart cells, leaves in link order.
func restartKeys(t *testing.T, tr *Tree) [][]byte {
	t.Helper()
	f, _, err := tr.descend(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for {
		for i := 0; i < nKeys(f.Data); i++ {
			if isRestart(f.Data, i) {
				out = append(out, leafKey(f.Data, i, nil))
			}
		}
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

// Deleting restart cells, first cells among them, hands their runs to the
// next cell stored whole, and every leaf keeps its front coding; the tree
// keeps every other entry.
func TestDeleteRestartCells(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := newTree(t, 64)
	want := map[string][]byte{}
	for i := 0; i < 4000; i++ {
		k := binary.BigEndian.AppendUint32([]byte("a shared stem of a value index key "), uint32(rng.Intn(1<<20)))
		v := bytes.Repeat([]byte{byte(i)}, rng.Intn(12))
		want[string(k)] = v
		if err := tr.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	checkTree(t, tr)
	for round := 0; round < 3; round++ {
		for j, k := range restartKeys(t, tr) {
			if j%2 == round%2 {
				continue
			}
			if err := tr.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(want, string(k))
		}
		checkTree(t, tr)
	}
	n := 0
	if err := tr.Scan(nil, nil, func(e Entry) bool {
		if v, ok := want[string(e.Key)]; !ok || !bytes.Equal(v, e.Value) {
			t.Fatalf("entry %x = %x, want %x (present %v)", e.Key, e.Value, v, ok)
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("scan saw %d entries, want %d", n, len(want))
	}
}

// A tree whose meta page lacks the format byte, as trees with whole-key
// leaves were written, is refused with ErrFormat, and Open dirties nothing.
func TestOpenRefusesOldFormat(t *testing.T) {
	pool := buffer.New(pagestore.NewMemStore(), 16)
	tr, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	f, err := pool.Fetch(tr.MetaPage())
	if err != nil {
		t.Fatal(err)
	}
	err = pool.Modify(f, func(d []byte) error {
		d[metaFormat] = 0
		return nil
	})
	pool.Unpin(f, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	before := pool.Stats().WriteBacks
	if _, err := Open(pool, tr.MetaPage()); !errors.Is(err, ErrFormat) {
		t.Fatalf("Open of an old-format tree: %v, want ErrFormat", err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if after := pool.Stats().WriteBacks; after != before {
		t.Fatalf("Open dirtied %d pages", after-before)
	}
}
