// Package arena provides a chunked bump allocator for the ingest byte path.
//
// Parsing, tree packing, shredding and key generation allocate many small,
// short-lived byte slices per document — attribute values, node encodings,
// key scratch — all of which die together when the document (or batch) has
// been inserted. An Arena turns those N small garbage-collected allocations
// into pointer bumps inside a few large chunks, and one Reset recycles the
// whole lot for the next document. At bulk-load rates this removes the bulk
// of steady-state GC pressure from the ingest path (EXPERIMENTS.md E16/E17).
//
// Lifetime rule: memory returned by an Arena is valid only until the next
// Reset. Anything that must outlive the reset point — bytes stored into heap
// pages, B+tree entries, or the WAL — is copied by those layers on insert,
// so the engine's reset points (per document in Insert, per batch in
// InsertBatch) are safe by construction. See DESIGN.md "The byte path".
//
// A nil *Arena is valid everywhere and falls back to the ordinary Go heap,
// so call sites thread an optional arena without branching.
package arena

// chunkSize is the default allocation granularity. Large enough that a
// typical small document fits in one chunk; small enough that an idle arena
// is cheap to keep around.
const chunkSize = 64 << 10

// Arena is a chunked bump allocator. Not safe for concurrent use; each
// ingest pipeline owns its own arena.
type Arena struct {
	// cur is the active chunk; off its bump pointer.
	cur []byte
	off int
	// full holds exhausted chunks until Reset recycles them.
	full [][]byte
	// free holds recycled chunks ready for reuse after a Reset.
	free [][]byte
}

// New returns an empty arena. The zero value is also ready to use.
func New() *Arena { return &Arena{} }

// Alloc returns a zeroed n-byte slice from the arena, valid until Reset.
// A nil arena allocates from the Go heap.
func (a *Arena) Alloc(n int) []byte {
	b := a.AllocRaw(n)
	for i := range b {
		b[i] = 0
	}
	return b
}

// AllocRaw returns an n-byte slice from the arena without zeroing it. The
// slice's capacity is exactly n, so appending to it cannot scribble over a
// neighbouring allocation. A nil arena allocates from the Go heap.
func (a *Arena) AllocRaw(n int) []byte {
	if a == nil {
		return make([]byte, n)
	}
	if a.off+n > len(a.cur) {
		a.grow(n)
	}
	b := a.cur[a.off : a.off+n : a.off+n]
	a.off += n
	return b
}

// Make returns a zero-length slice with capacity c from the arena, for
// append-style building. The capacity is exact (see AllocRaw). A nil arena
// allocates from the Go heap.
func (a *Arena) Make(c int) []byte {
	return a.AllocRaw(c)[:0]
}

// Copy clones b into the arena.
func (a *Arena) Copy(b []byte) []byte {
	out := a.AllocRaw(len(b))
	copy(out, b)
	return out
}

// grow installs a chunk with room for at least n bytes.
func (a *Arena) grow(n int) {
	if a.cur != nil {
		a.full = append(a.full, a.cur)
	}
	size := chunkSize
	if n > size {
		// Oversized request: dedicated chunk, used once.
		size = n
	}
	// Prefer a recycled chunk when it is big enough.
	if k := len(a.free); k > 0 && len(a.free[k-1]) >= n {
		a.cur = a.free[k-1]
		a.free = a.free[:k-1]
	} else {
		a.cur = make([]byte, size)
	}
	a.off = 0
}

// Reset recycles every chunk for reuse. All previously returned slices
// become invalid: the next allocations will overwrite them. A nil arena
// Reset is a no-op.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.free = append(a.free, a.full...)
	a.full = a.full[:0]
	a.off = 0
}

// InUse reports the bytes of the chunks handed out since the last Reset, the
// current one included: what the arena's user holds, where Footprint also
// counts the recycled chunks kept for reuse. A nil arena reports 0.
func (a *Arena) InUse() int {
	if a == nil {
		return 0
	}
	n := len(a.cur)
	for _, c := range a.full {
		n += len(c)
	}
	return n
}

// Footprint reports the total bytes currently held by the arena's chunks
// (stats, tests).
func (a *Arena) Footprint() int {
	if a == nil {
		return 0
	}
	n := len(a.cur)
	for _, c := range a.full {
		n += len(c)
	}
	for _, c := range a.free {
		n += len(c)
	}
	return n
}
