// Package btree implements the B+tree index manager over the buffer pool.
// It is the single index infrastructure the paper reuses for everything:
// relational-style indexes, the DocID index, the NodeID index, and the XPath
// value indexes are all B+trees with byte-string keys (§2: "Index manager
// ... enhanced to support XPath indexes"; Figure 2 shows three B+trees).
//
// Keys are arbitrary byte strings ordered by bytes.Compare; callers build
// order-preserving composite keys with package keycodec. Keys are unique:
// multi-entry indexes append a discriminating suffix (DocID, NodeID, RID) to
// the key, which is exactly how the paper's value-index entries
// (keyval, DocID, NodeID, RID) are laid out.
//
// Page layout:
//
//	[0:8)   pageLSN (maintained by buffer.Pool.Modify)
//	[8]     flags (bit 0: leaf)
//	[10:12) cell count
//	[12:14) free-space pointer (cells grow down from the page end)
//	[14:18) leaf: right sibling page; internal: leftmost child page
//	[18:..) slot array, 2 bytes per cell: the cell's offset in the low 13
//	        bits (offsets lie below PageSize, 1<<13); on a leaf the top bit
//	        marks a restart cell
//
// Leaf cell:     shared, suffixLen, suffix, valLen, val (lengths as uvarints)
// Internal cell: keyLen u16, key, child u32 — child covers keys >= key.
//
// Leaf keys are front coded (Bayer & Unterauer, "Prefix B-trees", TODS
// 1977): a cell stores the number of leading bytes its key shares with the
// previous cell's key and the rest of the key. A restart cell stores its key
// whole (shared 0); a leaf's first cell is always one, and no run — a
// restart and the cells after it up to the next — is longer than
// restartEvery, so a leaf search is a binary search over restart keys and a
// forward scan of at most one run (the restart points of LevelDB's table
// blocks). The mark lives in the slot, not in the cell index, so an insert
// moves no mark. An insert re-encodes only the cell after it, which only
// shrinks, unless a full run makes it a restart where the page has the room
// (leafPut); a delete re-encodes only the cell after it, which grows by less
// than the deleted cell frees, so a delete never splits; a split stores the
// right page's first key whole. Inner pages keep whole keys.
//
// The meta page holds the root at [8:12) and the format byte at [12]. A tree
// whose meta page lacks the format byte was written with whole-key leaves;
// Open refuses it with ErrFormat. There is no second decoder and no
// conversion.
//
// All page mutations go through buffer.Pool.Modify so the WAL sees them when
// attached; a failed mutation rolls the page back, and a split that fails
// midway leaves at worst an orphan page, never a broken tree.
//
// A leaf splits at the insertion point when the insert extends a run the
// leaf holds from its first cell, other pages at their middle (splitAt):
// DocIDs only grow and a value index over few values is that many ascending
// runs, so an even split would leave a half-full page behind each run's
// edge. The cut reads only the page, the key and the leaf's fence, so Put
// and PutSorted build identical pages, and it is part of the plan read
// before any mutation, so the atomicity above holds unchanged.
//
// Reads have one path, walk: one descent (descend, which a nil key takes to
// the leftmost leaf) and then the leaf links. Scan, Ceiling, Get and Count
// are its callers; Height is the descent's depth. A read lends its entries:
// the walk rebuilds each key into one buffer, taken from a pool for the
// walk, and the value aliases the read-latched leaf; both are valid until
// the callback returns, and a caller that keeps one copies it (Get copies
// its value). EstimateRange is the one reader with its own descents, two of
// them, to both ends of a range.
//
// Inserts have one path, PutSorted: a strictly ascending run enters the tree
// one leaf visit at a time — one descent, one Modify and so one WAL record
// for every key the leaf takes — and Put is a one-entry PutSorted. The tree
// lock is taken per leaf visit, so readers interleave with a long run.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"rx/internal/buffer"
	"rx/internal/pagestore"
)

const (
	hdrFlags   = 8
	hdrNKeys   = 10
	hdrFreePtr = 12
	hdrLink    = 14 // right sibling (leaf) or leftmost child (internal)
	hdrSize    = 18
	slotSize   = 2

	flagLeaf = 1

	slotOff     = 0x1fff // a slot's cell offset
	slotRestart = 0x8000 // a leaf slot's restart mark

	// restartEvery is the longest run of leaf cells from a restart to the
	// next. Of 8, 16 and 32, 16 measured smallest on the benchmark's write
	// workload (EXPERIMENTS.md): a longer run stores fewer whole keys but
	// more mid-run inserts start runs of their own.
	restartEvery = 16

	metaRoot   = 8  // [8:12) the root page
	metaFormat = 12 // the format byte
	// formatFrontCoded is the format byte of a tree with front-coded
	// leaves. Trees written before it have 0 there.
	formatFrontCoded = 1
)

// MaxKey is the largest key the tree accepts; it guarantees a minimum fanout
// of four cells per page.
const MaxKey = 1024

// MaxValue is the largest value payload per entry.
const MaxValue = 512

// ErrNotFound reports a missing key.
var ErrNotFound = errors.New("btree: key not found")

// ErrKeyTooLarge reports a key or value exceeding the size limits.
var ErrKeyTooLarge = errors.New("btree: key or value too large")

// ErrFormat reports a tree written in an older page format, whose leaves
// store whole keys: Open refuses it before anything is written.
var ErrFormat = errors.New("btree: tree written in an older page format")

// Tree is a B+tree index. A tree is durably identified by its meta page,
// which stores the current root (the root moves when it splits).
type Tree struct {
	pool *buffer.Pool

	mu   sync.RWMutex
	meta pagestore.PageID
	root pagestore.PageID
	// fence is PutSorted's copy of a leaf visit's upper bound, and scratch
	// the leaf writers' working space (both guarded by mu, reused so a write
	// does not allocate).
	fence   []byte
	scratch scratch
}

// scratch holds the keys beside a leaf write's insertion point and the cells
// it builds. After a put, at is the place after the key it stored and
// prev[:atLen] that key, where the next, greater key of the same leaf visit
// starts its search; at is 0 at a visit's start.
type scratch struct {
	prev, next [MaxKey]byte
	cell       [maxLeafCell]byte
	at, atLen  int
}

// Create allocates a new empty tree (a meta page plus an empty leaf root).
func Create(pool *buffer.Pool) (*Tree, error) {
	mf, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	rf, err := pool.NewPage()
	if err != nil {
		pool.Unpin(mf, false)
		return nil, err
	}
	err = pool.Modify(rf, func(d []byte) error {
		initNode(d, true)
		return nil
	})
	rootID := rf.ID()
	pool.Unpin(rf, false)
	if err != nil {
		pool.Unpin(mf, false)
		return nil, err
	}
	err = pool.Modify(mf, func(d []byte) error {
		setMeta(d, rootID)
		return nil
	})
	metaID := mf.ID()
	pool.Unpin(mf, false)
	if err != nil {
		return nil, err
	}
	return &Tree{pool: pool, meta: metaID, root: rootID}, nil
}

// Open attaches to an existing tree by its meta page ID. A meta page that
// names a root but lacks the format byte is ErrFormat; one that reads as
// zeros, never written, names no tree to refuse.
func Open(pool *buffer.Pool, meta pagestore.PageID) (*Tree, error) {
	f, err := pool.Fetch(meta)
	if err != nil {
		return nil, err
	}
	f.RLock()
	root := pagestore.PageID(binary.BigEndian.Uint32(f.Data[metaRoot:]))
	format := f.Data[metaFormat]
	f.RUnlock()
	pool.Unpin(f, false)
	if format != formatFrontCoded && root != 0 {
		return nil, fmt.Errorf("%w: meta page %d has format %d", ErrFormat, meta, format)
	}
	return &Tree{pool: pool, meta: meta, root: root}, nil
}

// setMeta writes a meta page: the root and the format byte.
func setMeta(d []byte, root pagestore.PageID) {
	binary.BigEndian.PutUint32(d[metaRoot:], uint32(root))
	d[metaFormat] = formatFrontCoded
}

// MetaPage returns the tree's durable identity for catalog storage.
func (t *Tree) MetaPage() pagestore.PageID { return t.meta }

func initNode(d []byte, leaf bool) {
	for i := 8; i < len(d); i++ {
		d[i] = 0
	}
	if leaf {
		d[hdrFlags] = flagLeaf
	}
	binary.BigEndian.PutUint16(d[hdrNKeys:], 0)
	binary.BigEndian.PutUint16(d[hdrFreePtr:], pagestore.PageSize)
	binary.BigEndian.PutUint32(d[hdrLink:], uint32(pagestore.InvalidPage))
}

func isLeaf(d []byte) bool { return d[hdrFlags]&flagLeaf != 0 }
func nKeys(d []byte) int   { return int(binary.BigEndian.Uint16(d[hdrNKeys:])) }
func link(d []byte) pagestore.PageID {
	return pagestore.PageID(binary.BigEndian.Uint32(d[hdrLink:]))
}
func setLink(d []byte, id pagestore.PageID) {
	binary.BigEndian.PutUint32(d[hdrLink:], uint32(id))
}

func slot(d []byte, i int) int {
	p := hdrSize + i*slotSize
	return int(d[p])<<8 | int(d[p+1])
}

func cellOff(d []byte, i int) int { return slot(d, i) & slotOff }

// isRestart reports whether leaf cell i stores its key whole.
func isRestart(d []byte, i int) bool { return d[hdrSize+i*slotSize]&(slotRestart>>8) != 0 }

// restartAtOrBefore returns the last restart among leaf cells [lo, i], or
// lo-1 when there is none. It reads the marks of four slots at a time.
func restartAtOrBefore(d []byte, i, lo int) int {
	for ; i-3 >= lo; i -= 4 {
		w := binary.BigEndian.Uint64(d[hdrSize+(i-3)*slotSize:]) & 0x8000_8000_8000_8000
		if w != 0 { // slot i's mark is bit 15, slot i-1's bit 31, ...
			return i - bits.TrailingZeros64(w)/16
		}
	}
	for ; i >= lo; i-- {
		if isRestart(d, i) {
			return i
		}
	}
	return lo - 1
}

// setSlot points slot i at off, marked as a restart or not.
func setSlot(d []byte, i, off int, restart bool) {
	if restart {
		off |= slotRestart
	}
	binary.BigEndian.PutUint16(d[hdrSize+i*slotSize:], uint16(off))
}

// innerKey returns the key of internal cell i, aliasing the page buffer.
func innerKey(d []byte, i int) []byte {
	off := cellOff(d, i)
	end := off + 2 + int(binary.BigEndian.Uint16(d[off:]))
	return d[off+2 : end : end]
}

// uvarint decodes the uvarint at d[p:] and returns it and the offset past
// it. Cell lengths are below 1<<14, so two bytes always hold one.
func uvarint(d []byte, p int) (int, int) {
	if b := d[p]; b < 0x80 {
		return int(b), p + 1
	}
	return int(d[p]&0x7f) | int(d[p+1])<<7, p + 2
}

func appendUvarint(b []byte, v int) []byte {
	if v < 0x80 {
		return append(b, byte(v))
	}
	return append(b, byte(v)|0x80, byte(v>>7))
}

func uvarintLen(v int) int {
	if v < 0x80 {
		return 1
	}
	return 2
}

// leafCell decodes the leaf cell at offset off: how many leading bytes its
// key shares with the previous cell's key, the rest of the key, and the
// value, both aliasing d with their capacity ending with them. It is the one
// leaf cell decoder.
func leafCell(d []byte, off int) (shared int, suffix, val []byte) {
	shared, p := uvarint(d, off)
	n, p := uvarint(d, p)
	suffix = d[p : p+n : p+n]
	n, p = uvarint(d, p+n)
	return shared, suffix, d[p : p+n : p+n]
}

// leafCellSize is the size of a leaf cell with a suffix of n bytes and a
// value of v bytes.
func leafCellSize(shared, n, v int) int {
	return uvarintLen(shared) + uvarintLen(n) + n + uvarintLen(v) + v
}

// leafNeed is the most a cell for key and val can take: its key stored
// whole, as in a restart.
func leafNeed(key, val []byte) int { return leafCellSize(0, len(key), len(val)) }

// appendLeafCell appends a leaf cell to b.
func appendLeafCell(b []byte, shared int, suffix, val []byte) []byte {
	b = appendUvarint(b, shared)
	b = appendUvarint(b, len(suffix))
	b = append(b, suffix...)
	b = appendUvarint(b, len(val))
	return append(b, val...)
}

// leafKey returns the key of leaf cell i in buf, decoding forward from the
// restart at or before it.
func leafKey(d []byte, i int, buf []byte) []byte {
	buf = buf[:0]
	for r := max(restartAtOrBefore(d, i, 0), 0); r <= i; r++ {
		s, x, _ := leafCell(d, cellOff(d, r))
		buf = append(buf[:s], x...)
	}
	return buf
}

// nodeKey returns the key of cell i of either kind of page; a leaf's is
// rebuilt in buf.
func nodeKey(d []byte, i int, buf []byte) []byte {
	if isLeaf(d) {
		return leafKey(d, i, buf)
	}
	return innerKey(d, i)
}

// runEnd returns the index of the first restart after leaf cell i, or the
// cell count.
func runEnd(d []byte, i int) int {
	n := nKeys(d)
	for i++; i < n && !isRestart(d, i); i++ {
	}
	return i
}

// restartSize is the size leaf cell i takes stored whole.
func restartSize(d []byte, i int) int {
	s, x, v := leafCell(d, cellOff(d, i))
	return leafCellSize(0, s+len(x), len(v))
}

// childAt returns the child pointer of internal cell i.
func childAt(d []byte, i int) pagestore.PageID {
	off := cellOff(d, i)
	kl := int(binary.BigEndian.Uint16(d[off:]))
	return pagestore.PageID(binary.BigEndian.Uint32(d[off+2+kl:]))
}

func cellSize(d []byte, i int) int {
	off := cellOff(d, i)
	if isLeaf(d) {
		s, x, v := leafCell(d, off)
		return leafCellSize(s, len(x), len(v))
	}
	return 2 + int(binary.BigEndian.Uint16(d[off:])) + 4
}

// search finds the smallest cell index whose key is >= key, i.e. the
// insertion point. Returns (index, exact match).
func search(d []byte, key []byte) (int, bool) {
	if isLeaf(d) {
		var kb [MaxKey]byte
		i, exact, _ := leafSearch(d, key, kb[:0], 0)
		return i, exact
	}
	lo, hi := 0, nKeys(d)
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(innerKey(d, mid), key) {
		case -1:
			lo = mid + 1
		case 0:
			return mid, true
		default:
			hi = mid
		}
	}
	return lo, false
}

// leafSearch is search on a leaf that also returns, rebuilt in buf, the key
// before the insertion point (empty at 0). With at > 0, buf holds the key of
// cell at-1, which is below key: a put hands the next, greater key of its
// leaf visit the place after its own, and the search starts there unless
// the next restart is below key too. Otherwise it starts at the last restart
// below key (lastRestartBelow), from that restart on. The scan forward from there, at most one run
// unless at leads it further, compares each cell's suffix only: m is how
// many leading bytes the previous key, which is below key, shares with key.
// A cell that shares more than m with it agrees with it at byte m and so is
// below key too; one that shares s <= m with it agrees with key for s bytes,
// so its suffix decides.
func leafSearch(d, key, buf []byte, at int) (int, bool, []byte) {
	n, m, lo := nKeys(d), 0, 0
	if at > 0 {
		lo = runEnd(d, at-1)
	}
	if at > 0 && !restartBelow(d, lo, key) {
		m = lcp(buf, key)
	} else {
		at, buf = lastRestartBelow(d, key, lo), buf[:0]
	}
	for i := at; i < n; i++ {
		s, x, _ := leafCell(d, cellOff(d, i))
		if s <= m {
			if c := bytes.Compare(x, key[s:]); c >= 0 {
				return i, c == 0, buf
			}
			m = s + lcp(x, key[s:])
		}
		buf = append(buf[:s], x...)
	}
	return n, false, buf
}

// lastRestartBelow returns the last restart cell of leaf d from lo on whose
// key is below key, or lo (a restart, or 0): a binary search over the
// restart cells, whose keys need no decoding, in which a probe between
// restarts backs up to the one before it.
func lastRestartBelow(d, key []byte, lo int) int {
	from := lo
	for hi := nKeys(d); lo < hi; {
		mid := (lo + hi) / 2
		r := restartAtOrBefore(d, mid, lo)
		switch {
		case r < lo: // no restart in [lo, mid]
			lo = mid + 1
		case restartBelow(d, r, key):
			from, lo = r, mid+1
		default:
			hi = r
		}
	}
	return from
}

// restartBelow reports whether restart cell r of leaf d exists and holds a
// key below key. A restart's shared length is one zero byte.
func restartBelow(d []byte, r int, key []byte) bool {
	if r == nKeys(d) {
		return false
	}
	n, p := uvarint(d, cellOff(d, r)+1)
	return bytes.Compare(d[p:p+n], key) < 0
}

// route returns the child to descend into for key in an internal node — the
// child of the last cell whose key is <= key, or the leftmost child — and the
// index of the cell after that one, whose key (if it exists) bounds the
// child's keys from above.
func route(d []byte, key []byte) (pagestore.PageID, int) {
	i, exact := search(d, key)
	if exact {
		return childAt(d, i), i + 1
	}
	if i == 0 {
		return link(d), 0 // leftmost child
	}
	return childAt(d, i-1), i
}

// freeBytes returns free bytes available for one more cell (incl. its slot).
func freeBytes(d []byte) int {
	n := nKeys(d)
	freePtr := int(binary.BigEndian.Uint16(d[hdrFreePtr:]))
	if freePtr == 0 {
		freePtr = pagestore.PageSize
	}
	return freePtr - hdrSize - n*slotSize - slotSize
}

// allocCell reserves size bytes of cell space and slot i for a new cell,
// shifting later slots, and returns the cell's offset for the caller to
// fill. It returns false when the page is full even after compaction.
func allocCell(d []byte, i, size int, restart bool) (int, bool) {
	if freeBytes(d) < size {
		if !compactNode(d) || freeBytes(d) < size {
			return 0, false
		}
	}
	freePtr := int(binary.BigEndian.Uint16(d[hdrFreePtr:]))
	if freePtr == 0 {
		freePtr = pagestore.PageSize
	}
	off := freePtr - size
	binary.BigEndian.PutUint16(d[hdrFreePtr:], uint16(off))
	n := nKeys(d)
	copy(d[hdrSize+(i+1)*slotSize:hdrSize+(n+1)*slotSize], d[hdrSize+i*slotSize:hdrSize+n*slotSize])
	setSlot(d, i, off, restart)
	binary.BigEndian.PutUint16(d[hdrNKeys:], uint16(n+1))
	return off, true
}

// insertCell places a prebuilt cell at index i (see allocCell).
func insertCell(d []byte, i int, cell []byte, restart bool) bool {
	off, ok := allocCell(d, i, len(cell), restart)
	if ok {
		copy(d[off:], cell)
	}
	return ok
}

// replaceCell stores cell as cell i: in place when it is no larger, else in
// new space (the old cell becomes a hole).
func replaceCell(d []byte, i int, cell []byte, restart bool) bool {
	if off := cellOff(d, i); len(cell) <= cellSize(d, i) {
		copy(d[off:], cell)
		setSlot(d, i, off, restart)
		return true
	}
	removeCell(d, i)
	return insertCell(d, i, cell, restart)
}

// removeCell deletes cell i (slot shift only; bytes reclaimed on compaction).
func removeCell(d []byte, i int) {
	n := nKeys(d)
	copy(d[hdrSize+i*slotSize:hdrSize+(n-1)*slotSize], d[hdrSize+(i+1)*slotSize:hdrSize+n*slotSize])
	binary.BigEndian.PutUint16(d[hdrNKeys:], uint16(n-1))
}

// compactScratch recycles the page-sized scratch buffer node compaction
// packs live cells into, so page defragmentation does not allocate.
var compactScratch = sync.Pool{New: func() any {
	b := make([]byte, pagestore.PageSize)
	return &b
}}

// compactNode re-packs live cells to eliminate holes from removed or replaced
// cells. Returns true if space was reclaimed.
func compactNode(d []byte) bool {
	n := nKeys(d)
	oldFree := int(binary.BigEndian.Uint16(d[hdrFreePtr:]))
	if oldFree == 0 {
		oldFree = pagestore.PageSize
	}
	w := pagestore.PageSize
	for i := 0; i < n; i++ {
		w -= cellSize(d, i)
	}
	if w == oldFree {
		return false
	}
	tb := compactScratch.Get().(*[]byte)
	tmp := *tb
	defer compactScratch.Put(tb)
	// Cell i is packed below cell i-1 and slot i repointed at once: no
	// later step reads slot i, and the cells are read from d until the
	// final copy.
	for i, p := 0, pagestore.PageSize; i < n; i++ {
		off, sz := cellOff(d, i), cellSize(d, i)
		p -= sz
		copy(tmp[p:], d[off:off+sz])
		setSlot(d, i, p, slot(d, i)&slotRestart != 0)
	}
	copy(d[w:], tmp[w:])
	binary.BigEndian.PutUint16(d[hdrFreePtr:], uint16(w))
	return true
}

// maxLeafCell is the largest leaf cell: a MaxKey key stored whole and a
// MaxValue value.
const maxLeafCell = 2 + 2 + MaxKey + 2 + MaxValue

// leafPut stores val under key in leaf d and reports false when the page
// has no room. An equal key's cell takes the new value and keeps its key's
// encoding. A new key's cell goes in at its insertion point, sharing the
// previous key's prefix, and the cell after it, if it continues the same
// run, is re-encoded against key, which shares at least as much with it as
// the previous key did, so it can only shrink. A new first cell is a
// restart, and takes the old first cell into its run while the run stays
// short enough.
//
// A run already restartEvery long is cut. When the new cell ends it, the
// new cell is a restart. When cells of the run follow it, the next one
// becomes the restart instead, stored whole, if the page has the room:
// otherwise every insert at the same place, as a run grows in front of
// another's cells, would start a run of one. Without the room the new cell
// is the restart, which fits wherever the preemptive split made room for
// key stored whole. sc is its working space.
func leafPut(d, key, val []byte, sc *scratch) bool {
	i, ok := leafPutAt(d, key, val, sc)
	sc.at, sc.atLen = i+1, copy(sc.prev[:], key)
	return ok
}

// leafPutAt is leafPut, which hands on the place it stored key at.
func leafPutAt(d, key, val []byte, sc *scratch) (int, bool) {
	nb, cb := &sc.next, &sc.cell
	if n := nKeys(d); sc.at == 0 && n > 0 {
		// A visit's first put tries the last run first, since keys are
		// often appended: a restart's key is stored whole.
		if r := max(restartAtOrBefore(d, n-1, 0), 0); restartBelow(d, r, key) {
			_, x, _ := leafCell(d, cellOff(d, r))
			sc.at, sc.atLen = r+1, copy(sc.prev[:], x)
		}
	}
	i, exact, prev := leafSearch(d, key, sc.prev[:sc.atLen], sc.at)
	if exact {
		s, x, _ := leafCell(d, cellOff(d, i))
		return i, replaceCell(d, i, appendLeafCell(cb[:0], s, x, val), isRestart(d, i))
	}
	n := nKeys(d)
	follows := i < n && !isRestart(d, i) // the next cell continues the run
	restart, promote, shared := true, false, 0
	if i > 0 {
		r := max(restartAtOrBefore(d, i-1, 0), 0)
		restart, shared = false, lcp(prev, key)
		if runEnd(d, i-1)-r >= restartEvery {
			size := leafCellSize(shared, len(key)-shared, len(val))
			if promote = follows && !needsSplit(d, size+restartSize(d, i)-cellSize(d, i)); !promote {
				restart, shared = true, 0
			}
		}
	}
	if follows || i == 0 && n > 0 && runEnd(d, 0) < restartEvery {
		s, x, v := leafCell(d, cellOff(d, i))
		next := append(append(nb[:0], prev[:s]...), x...)
		if s = lcp(key, next); promote {
			s = 0
		}
		if !replaceCell(d, i, appendLeafCell(cb[:0], s, next[s:], v), promote) {
			return i, false
		}
	}
	return i, insertCell(d, i, appendLeafCell(cb[:0], shared, key[shared:], val), restart)
}

// leafDelete removes leaf cell i, whose previous key is prev (see
// leafSearch), in sc. The cell after it, if not a restart,
// becomes one when cell i was one, else it is re-encoded against the cell
// before: it grows by at most cell i's suffix and a length byte, less than
// cell i and its slot free.
func leafDelete(d []byte, i int, prev []byte, sc *scratch) bool {
	nb, cb := &sc.next, &sc.cell
	if i+1 == nKeys(d) || isRestart(d, i+1) {
		removeCell(d, i)
		return true
	}
	s, x, _ := leafCell(d, cellOff(d, i))
	next := append(append(nb[:0], prev[:s]...), x...)
	s, x, v := leafCell(d, cellOff(d, i+1))
	next = append(next[:s], x...)
	restart, s := isRestart(d, i), 0
	if !restart {
		s = lcp(prev, next)
	}
	cell := appendLeafCell(cb[:0], s, next[s:], v)
	removeCell(d, i)
	return replaceCell(d, i, cell, restart)
}

func internalCell(key []byte, child pagestore.PageID) []byte {
	cell := make([]byte, 2+len(key)+4)
	binary.BigEndian.PutUint16(cell, uint16(len(key)))
	copy(cell[2:], key)
	binary.BigEndian.PutUint32(cell[2+len(key):], uint32(child))
	return cell
}

// Get returns a copy of the value stored under key: the first entry at or
// above key, if its key is key.
func (t *Tree) Get(key []byte) ([]byte, error) {
	var out []byte
	found := false
	err := t.Ceiling(key, func(k, v []byte) {
		if found = bytes.Equal(k, key); found {
			out = bytes.Clone(v)
		}
	})
	if err == nil && !found {
		err = fmt.Errorf("%w: %x", ErrNotFound, bytes.Clone(key))
	}
	return out, err
}

// descend walks from the root to the leaf for key — the leftmost leaf for a
// nil key, since separators are never empty — and returns the pinned leaf
// and its depth (a leaf root is 1).
func (t *Tree) descend(key []byte) (*buffer.Frame, int, error) {
	pg := t.root
	for depth := 1; ; depth++ {
		f, err := t.pool.Fetch(pg)
		if err != nil {
			return nil, 0, err
		}
		f.RLock()
		if isLeaf(f.Data) {
			f.RUnlock()
			return f, depth, nil
		}
		next, _ := route(f.Data, key)
		f.RUnlock()
		t.pool.Unpin(f, false)
		pg = next
	}
}

// maxInternalCell is the worst-case internal cell a child split can push
// into its parent: a separator of MaxKey bytes plus the child pointer.
const maxInternalCell = 2 + MaxKey + 4

// liveFree returns the bytes available for one more cell and its slot after
// compaction — the capacity insertCell can actually reach, counting holes
// left by removed cells as free.
func liveFree(d []byte) int {
	n := nKeys(d)
	used := 0
	for i := 0; i < n; i++ {
		used += cellSize(d, i)
	}
	return pagestore.PageSize - hdrSize - (n+1)*slotSize - used
}

// needsSplit reports whether a node cannot take a cell of need bytes even
// after compaction. Cells live in [freePtr, PageSize), so liveFree >=
// freeBytes always holds: the O(1) freeBytes test settles the common case
// exactly, and the O(cells) liveFree walk runs only on a page whose
// contiguous free space is short.
func needsSplit(d []byte, need int) bool {
	return freeBytes(d) < need && liveFree(d) < need
}

// Put inserts or replaces the value under key: a one-entry PutSorted.
func (t *Tree) Put(key, val []byte) error {
	one := [1]Entry{{Key: key, Value: val}}
	return t.PutSorted(one[:])
}

// PutSorted inserts or replaces entries whose keys ascend strictly. A bad
// entry (out of order, or over the size limits) fails the call before the
// tree is touched.
//
// Each leaf visit is one top-down pass with preemptive splits: any node on
// the path that could not absorb its worst-case insertion is split BEFORE
// the descent continues, so each split only ever touches a parent that is
// guaranteed to have room. The page for a split is allocated before the
// first byte of the tree is modified at that level, which makes a visit
// atomic under allocation failure: on a full device it returns the typed
// no-space error with the tree exactly as the previous visit left it,
// instead of leaving a child split whose separator no ancestor could be
// given.
//
// The leaf then takes the visit's first entry and, inside the same Modify
// (one diff, one WAL record), every following entry that routes below the
// path's next separator and passes the leaf's room check. A visit that split
// nothing left every node above the leaf as that check found it, so the
// later entries face exactly the checks and routes a sequential Put of each
// would: the tree comes out byte-identical apart from page LSNs. A visit
// that split stops after its first entry, and the next visit re-checks from
// the root. t.mu is held per visit, not per call, so readers interleave with
// a long run.
func (t *Tree) PutSorted(entries []Entry) error {
	for i, e := range entries {
		if len(e.Key) > MaxKey || len(e.Value) > MaxValue {
			return fmt.Errorf("%w: key %d, value %d", ErrKeyTooLarge, len(e.Key), len(e.Value))
		}
		if i > 0 && bytes.Compare(entries[i-1].Key, e.Key) >= 0 {
			return fmt.Errorf("btree: PutSorted entry %d does not ascend", i)
		}
	}
	for len(entries) > 0 {
		n, err := t.putVisit(entries)
		if err != nil {
			return err
		}
		entries = entries[n:]
	}
	return nil
}

// putVisit is one leaf visit of PutSorted: it descends for run[0], stores
// what the leaf may take, and reports how many entries that was (at least
// one, unless it fails).
func (t *Tree) putVisit(run []Entry) (int, error) {
	key := run[0].Key
	firstNeed := leafNeed(key, run[0].Value)
	t.mu.Lock()
	defer t.mu.Unlock()

	f, err := t.pool.Fetch(t.root)
	if err != nil {
		return 0, err
	}
	f.RLock()
	need := maxInternalCell
	if isLeaf(f.Data) {
		need = firstNeed
	}
	split := needsSplit(f.Data, need)
	f.RUnlock()
	if split {
		if err := t.splitRoot(f, key, need); err != nil {
			t.pool.Unpin(f, false)
			return 0, err
		}
		t.pool.Unpin(f, false)
		if f, err = t.pool.Fetch(t.root); err != nil {
			return 0, err
		}
	}

	// Invariant from here: f has room for whatever this pass inserts into it.
	// fence is the child's exclusive upper bound, nil while there is none
	// (separators are never empty), kept in t.fence's buffer: the separator
	// after the chosen child at the deepest level that has one, since a
	// subtree's separators lie below its parent's.
	var fence []byte
	for {
		f.RLock()
		leaf := isLeaf(f.Data)
		var child pagestore.PageID
		if !leaf {
			var next int
			child, next = route(f.Data, key)
			if next < nKeys(f.Data) {
				t.fence = append(t.fence[:0], innerKey(f.Data, next)...)
				fence = t.fence
			}
		}
		f.RUnlock()
		if leaf {
			n := 0
			err = t.pool.Modify(f, func(d []byte) error {
				t.scratch.at = 0
				for n = 0; n < len(run); n++ {
					e := run[n]
					if n > 0 && (split || fence != nil && bytes.Compare(e.Key, fence) >= 0 ||
						needsSplit(d, leafNeed(e.Key, e.Value))) {
						break
					}
					if !leafPut(d, e.Key, e.Value, &t.scratch) {
						return errors.New("btree: leaf full after preemptive split")
					}
				}
				return nil
			})
			t.pool.Unpin(f, false)
			if err != nil {
				return 0, err
			}
			return n, nil
		}
		cf, err := t.pool.Fetch(child)
		if err != nil {
			t.pool.Unpin(f, false)
			return 0, err
		}
		cf.RLock()
		need := maxInternalCell
		if isLeaf(cf.Data) {
			need = firstNeed
		}
		full := needsSplit(cf.Data, need)
		cf.RUnlock()
		if full {
			if err := t.splitChild(f, cf, key, fence, need); err != nil {
				t.pool.Unpin(cf, false)
				t.pool.Unpin(f, false)
				return 0, err
			}
			split = true
			// The separator may route key into the new right sibling, or
			// become the fence of the left one.
			f.RLock()
			next, nx := route(f.Data, key)
			if nx < nKeys(f.Data) {
				t.fence = append(t.fence[:0], innerKey(f.Data, nx)...)
				fence = t.fence
			}
			f.RUnlock()
			if next != cf.ID() {
				t.pool.Unpin(cf, false)
				if cf, err = t.pool.Fetch(next); err != nil {
					t.pool.Unpin(f, false)
					return 0, err
				}
			}
		}
		t.pool.Unpin(f, false)
		f = cf
	}
}

// splitPlan captures everything a split writes, read from the left page
// before any mutation so the mutations themselves cannot fail. For a leaf,
// the separator is the right node's first key (copied up); for an internal
// node, the middle key moves up and its child becomes the right node's
// leftmost child. A leaf's first cell to move right is stored whole there.
type splitPlan struct {
	leaf     bool
	mid      int
	sep      []byte
	leftmost pagestore.PageID // internal: the promoted cell's child
	oldLink  pagestore.PageID
	cells    [][]byte // copies of the cells that move right
	restarts []bool   // which of them are restarts
}

// planSplit plans the split of page d for an insert of key, whose cell needs
// need bytes, below fence (nil: none), at the cell splitAt picks.
func planSplit(d, key, fence []byte, need int) (*splitPlan, error) {
	n := nKeys(d)
	if n < 2 {
		return nil, errors.New("btree: cannot split page with fewer than 2 cells")
	}
	p := &splitPlan{leaf: isLeaf(d), mid: splitAt(d, key, fence, need), oldLink: link(d)}
	p.sep = bytes.Clone(nodeKey(d, p.mid, nil))
	first := p.mid
	if p.leaf {
		_, _, v := leafCell(d, cellOff(d, first))
		p.cells, p.restarts = [][]byte{appendLeafCell(nil, 0, p.sep, v)}, []bool{true}
		first++
	} else {
		p.leftmost = childAt(d, p.mid)
		first = p.mid + 1
	}
	for i := first; i < n; i++ {
		off := cellOff(d, i)
		sz := cellSize(d, i)
		p.cells = append(p.cells, append([]byte(nil), d[off:off+sz]...))
		p.restarts = append(p.restarts, p.leaf && isRestart(d, i))
	}
	return p, nil
}

// splitAt returns the cell at which the full page d splits for an insert of
// key: a leaf's first cell to move right, an inner page's promoted cell.
// When key extends a run a leaf holds from its first cell — key shares more
// leading bytes with cell 0 than with the key to its right, the cell at
// key's insertion point i or else the fence, and with neither it always
// does — the leaf is cut at i, so the run's cells stay on a full page the
// run will not revisit: at the leaf's end only the last cell moves right
// and key follows it, inside it cells [i, n) move right if i is at least
// n/2, so the left page is never emptier than after an even split (a value
// repeated a few times in a random-order index is no run to wait for), and
// keeps room for need bytes. Every other split is even: an inner page's at
// n/2, a leaf's at quietCut, unless skewed cell sizes leave the page key
// routes to short of room; then the cut goes beside i, where one side always
// has room.
func splitAt(d, key, fence []byte, need int) int {
	n := nKeys(d)
	i, _ := search(d, key)
	if isLeaf(d) {
		right := fence
		if i < n {
			right = leafKey(d, i, nil)
		}
		if right == nil || lcp(key, leafKey(d, 0, nil)) > lcp(key, right) {
			if i == n {
				return n - 1
			}
			if i >= n/2 && cutFits(d, key, i, need) {
				return i
			}
		}
	}
	mid := n / 2
	if isLeaf(d) {
		mid = quietCut(d)
	}
	for _, m := range [...]int{mid, max(i, 1), i - 1} {
		if m >= 1 && m < n && cutFits(d, key, m, need) {
			return m
		}
	}
	return mid
}

// quietCut returns where an even split cuts leaf d: within an eighth of its
// cells of the middle, at the cut whose two neighbouring keys share the
// fewest leading bytes, a byte shared costing as much as n/128 cells of
// distance from the middle. It is the split interval of Bayer & Unterauer's
// prefix B-trees: in an index of interleaved runs the cut lands between two
// values, not inside a run, whose head would stay behind on a page the run
// no longer grows in; in a random-order index it stays a few cells from the
// middle.
func quietCut(d []byte) int {
	n := nKeys(d)
	lo, hi := max(n/2-n/8, 1), min(n/2+n/8, n-1)
	best, bestCost := n/2, -1
	k := leafKey(d, lo-1, nil)
	for m := lo; m <= hi; m++ {
		s, x, _ := leafCell(d, cellOff(d, m))
		if isRestart(d, m) {
			s, k = lcp(k, x), append(k[:0], x...)
		} else {
			k = append(k[:s], x...)
		}
		if cost := s*n + 128*max(m-n/2, n/2-m); bestCost < 0 || cost < bestCost {
			best, bestCost = m, cost
		}
	}
	return best
}

// cutFits reports whether, once page d is cut at cell m, the page key routes
// to has room for a cell of need bytes. A leaf's cell m counts on the right
// at the size it takes there, stored whole.
func cutFits(d, key []byte, m, need int) bool {
	lo, hi := 0, m
	room := pagestore.PageSize - hdrSize
	if bytes.Compare(key, nodeKey(d, m, nil)) >= 0 {
		lo, hi = m, nKeys(d)
		if !isLeaf(d) {
			lo = m + 1 // the promoted cell moves up
		} else {
			room -= restartSize(d, m) - cellSize(d, m)
		}
	}
	room -= (hi - lo + 1) * slotSize
	for j := lo; j < hi; j++ {
		room -= cellSize(d, j)
	}
	return room >= need
}

// lcp returns the length of the longest common prefix of a and b.
func lcp(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func (p *splitPlan) fillRight(rd []byte) error {
	initNode(rd, p.leaf)
	if p.leaf {
		setLink(rd, p.oldLink)
	} else {
		setLink(rd, p.leftmost)
	}
	for i, c := range p.cells {
		if !insertCell(rd, i, c, p.restarts[i]) {
			return errors.New("btree: split target overflow")
		}
	}
	return nil
}

func (p *splitPlan) truncateLeft(d []byte, rightID pagestore.PageID) {
	binary.BigEndian.PutUint16(d[hdrNKeys:], uint16(p.mid))
	compactNode(d)
	if p.leaf {
		setLink(d, rightID)
	}
}

// splitChild splits the full child cf, whose keys lie below fence (nil:
// none), for an insert of key needing need bytes, and installs the
// separator in its parent pf, which the preemptive invariant guarantees has
// room. The right page is allocated before any mutation; a failed
// allocation aborts with the tree untouched. The mutations that follow are
// pure in-page edits — no fetches, no allocations — so they cannot fail
// halfway.
func (t *Tree) splitChild(pf, cf *buffer.Frame, key, fence []byte, need int) error {
	cf.RLock()
	plan, err := planSplit(cf.Data, key, fence, need)
	cf.RUnlock()
	if err != nil {
		return err
	}
	rf, err := t.pool.NewPage()
	if err != nil {
		return fmt.Errorf("btree: split: %w", err)
	}
	rightID := rf.ID()
	err = t.pool.Modify(rf, plan.fillRight)
	t.pool.Unpin(rf, false)
	if err != nil {
		return err
	}
	if err := t.pool.Modify(cf, func(d []byte) error {
		plan.truncateLeft(d, rightID)
		return nil
	}); err != nil {
		return err
	}
	return t.pool.Modify(pf, func(pd []byte) error {
		i, _ := search(pd, plan.sep)
		if !insertCell(pd, i, internalCell(plan.sep, rightID), false) {
			return errors.New("btree: parent cannot absorb separator")
		}
		return nil
	})
}

// splitRoot splits the full root rootf, which has no fence, for an insert of
// key needing need bytes, under a brand-new internal root and repoints the
// meta page. Both pages (right sibling, new root) and the meta frame are
// acquired before any mutation, for the same atomicity as splitChild.
func (t *Tree) splitRoot(rootf *buffer.Frame, key []byte, need int) error {
	rootf.RLock()
	plan, err := planSplit(rootf.Data, key, nil, need)
	rootf.RUnlock()
	if err != nil {
		return err
	}
	mf, err := t.pool.Fetch(t.meta)
	if err != nil {
		return err
	}
	rf, err := t.pool.NewPage()
	if err != nil {
		t.pool.Unpin(mf, false)
		return fmt.Errorf("btree: root split: %w", err)
	}
	nrf, err := t.pool.NewPage()
	if err != nil {
		t.pool.Unpin(rf, false)
		t.pool.Unpin(mf, false)
		return fmt.Errorf("btree: root split: %w", err)
	}
	rightID, newRootID, oldRootID := rf.ID(), nrf.ID(), rootf.ID()

	err = t.pool.Modify(rf, plan.fillRight)
	t.pool.Unpin(rf, false)
	if err == nil {
		err = t.pool.Modify(nrf, func(d []byte) error {
			initNode(d, false)
			setLink(d, oldRootID)
			if !insertCell(d, 0, internalCell(plan.sep, rightID), false) {
				return errors.New("btree: root cell does not fit")
			}
			return nil
		})
	}
	t.pool.Unpin(nrf, false)
	if err == nil {
		err = t.pool.Modify(rootf, func(d []byte) error {
			plan.truncateLeft(d, rightID)
			return nil
		})
	}
	if err == nil {
		err = t.pool.Modify(mf, func(d []byte) error {
			setMeta(d, newRootID)
			return nil
		})
	}
	t.pool.Unpin(mf, false)
	if err != nil {
		return err
	}
	t.root = newRootID
	return nil
}

// Delete removes key from the tree. Underflowing nodes are not merged (lazy
// deletion, as in many production systems' online path), and a delete never
// splits (see leafDelete).
func (t *Tree) Delete(key []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, _, err := t.descend(key)
	if err != nil {
		return err
	}
	found := false
	err = t.pool.Modify(f, func(d []byte) error {
		i, exact, prev := leafSearch(d, key, t.scratch.prev[:0], 0)
		if !exact {
			return nil
		}
		found = true
		if !leafDelete(d, i, prev, &t.scratch) {
			return errors.New("btree: leaf cannot re-encode after a delete")
		}
		return nil
	})
	t.pool.Unpin(f, false)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: %x", ErrNotFound, key)
	}
	return nil
}

// Entry is one key/value pair: an entry PutSorted stores, or one Scan lends.
type Entry struct {
	Key   []byte
	Value []byte
}

// keyBufs recycles the buffer a walk rebuilds its keys in, so a walk does
// not allocate.
var keyBufs = sync.Pool{New: func() any { return new([MaxKey]byte) }}

// walk calls fn with the entries whose keys lie in [from, to), in ascending
// order (nil from: from the first entry; nil to: to the last), until fn
// returns false. It is the tree's one leaf walk: one descent, then right
// links, which also carry it past leaves that deletes emptied. The tree is
// read-locked throughout and each leaf read-latched while fn sees its
// entries. k is rebuilt in one buffer for the whole walk and v aliases the
// latched leaf, so both are valid only until fn returns: a caller that keeps
// one copies it. fn must not call writers on the same tree.
func (t *Tree) walk(from, to []byte, fn func(k, v []byte) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	f, _, err := t.descend(from)
	if err != nil {
		return err
	}
	kb := keyBufs.Get().(*[MaxKey]byte)
	defer keyBufs.Put(kb)
	f.RLock()
	i, _, k := leafSearch(f.Data, from, kb[:0], 0)
	for {
		d := f.Data
		for n := nKeys(d); i < n; i++ {
			s, x, v := leafCell(d, cellOff(d, i))
			k = append(k[:s], x...)
			if to != nil && bytes.Compare(k, to) >= 0 || !fn(k[:len(k):len(k)], v) {
				f.RUnlock()
				t.pool.Unpin(f, false)
				return nil
			}
		}
		next := link(d)
		f.RUnlock()
		t.pool.Unpin(f, false)
		if next == pagestore.InvalidPage {
			return nil
		}
		if f, err = t.pool.Fetch(next); err != nil {
			return err
		}
		f.RLock()
		i, k = 0, kb[:0]
	}
}

// Scan visits entries with key in [from, to) in ascending order (nil from =
// from the start; nil to = to the end) and calls fn for each. fn returning
// false stops the scan. The entry is borrowed: its Key is rebuilt in the
// walk's buffer and its Value aliases the read-latched leaf, both valid only
// until fn returns, so fn copies what it keeps. The tree is read-locked for
// the duration; fn must not call writers on the same tree.
func (t *Tree) Scan(from, to []byte, fn func(e Entry) bool) error {
	return t.walk(from, to, func(k, v []byte) bool { return fn(Entry{Key: k, Value: v}) })
}

// Ceiling calls fn with the smallest entry whose key is >= from, or returns
// ErrNotFound. This is the NodeID-index primitive: the paper finds a node's
// record by searching for the successor entry among interval upper
// endpoints (§3.4). It is the leaf walk's first entry, borrowed like Scan's:
// k and v are valid until fn returns.
func (t *Tree) Ceiling(from []byte, fn func(k, v []byte)) error {
	found := false
	err := t.walk(from, nil, func(k, v []byte) bool {
		fn(k, v)
		found = true
		return false
	})
	if err == nil && !found {
		err = fmt.Errorf("%w: no key >= %x", ErrNotFound, bytes.Clone(from))
	}
	return err
}

// exactLeaves is how many leaf links EstimateRange follows from the left
// end: a range whose ends lie at most this many leaves apart is counted
// exactly, a wider one estimated from the leaves walked.
const exactLeaves = 4

// spreadSamples is how many more leaves a wide range's estimate samples, the
// leftmost leaves of child slots spread evenly between the two paths where
// they part.
const spreadSamples = 4

// EstimateRange estimates how many entries have keys in [from, to) (nil ends
// unbounded) from a descent to each end, under the tree's read lock: InnoDB's
// "index dives" (records_in_range); compare Olken & Rotem, "Random Sampling
// from B+ Trees", VLDB 1989. The two paths share pages down to the level
// where they part. A range inside one leaf is counted there. Otherwise the
// walk follows up to exactLeaves leaf links right from the left end leaf: a
// range whose ends lie at most exactLeaves leaves apart is counted that way.
// A wider one is estimated as the child slots between the two paths where
// they part, plus the slots beside each path below that level, each slot
// weighted by the entries a subtree of its height holds: the mean fill of
// the leaves sampled inside the range — the walked ones, the right end
// leaf's left sibling and the leftmost leaves of spreadSamples slots spread
// between the paths where they part, empty ones skipped and the smallest
// dropped, since the leaf where a run grows holds a cell or two (see
// splitAt) — times the average fanout of the inner pages visited below the
// parting level; with every sample empty, only the ends count. An empty or
// inverted range is 0.
func (t *Tree) EstimateRange(from, to []byte) (float64, error) {
	if from != nil && to != nil && bytes.Compare(from, to) >= 0 {
		return 0, nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	// The shared descent, down to the page whose child slots part the ends.
	// prev ends as the right end leaf's left sibling, or the leaf itself
	// when it is its parent's first child.
	lo, hi, prev := t.root, t.root, t.root
	gap, inLeaf := 0, -1
	var spread [spreadSamples]pagestore.PageID
	for lo == hi && inLeaf < 0 {
		err := t.read(lo, func(d []byte) {
			if isLeaf(d) {
				inLeaf = max(leafPos(d, to, true)-leafPos(d, from, false), 0)
				return
			}
			a, b := childSlot(d, from, false), childSlot(d, to, true)
			gap, lo, hi, prev = b-a-1, slotChild(d, a), slotChild(d, b), slotChild(d, max(b-1, a))
			for j := range spread {
				spread[j] = pagestore.InvalidPage
				if gap > 0 {
					spread[j] = slotChild(d, a+1+j*gap/len(spread))
				}
			}
		})
		if err != nil {
			return 0, err
		}
	}
	if inLeaf >= 0 {
		return float64(inLeaf), nil
	}
	// Both paths on down, a level at a time (the tree is balanced). side[k]
	// counts the slots beside the paths on the k-th level below the parting
	// one; fan and inner sum the fanout of the inner pages on the way.
	var sideBuf [16]int
	side := sideBuf[:0]
	fan, inner, ends := 0, 0, 0
	next := pagestore.InvalidPage // the left end leaf's right sibling
	for leaf := false; !leaf; {
		beside := 0
		err := t.read(lo, func(d []byte) {
			if leaf = isLeaf(d); leaf {
				ends, next = nKeys(d)-leafPos(d, from, false), link(d)
				return
			}
			a := childSlot(d, from, false)
			beside, fan, lo = nKeys(d)-a, fan+nKeys(d)+1, slotChild(d, a)
		})
		if err == nil {
			err = t.read(hi, func(d []byte) {
				if leaf {
					ends += leafPos(d, to, true)
					return
				}
				b := childSlot(d, to, true)
				beside, fan, hi, prev = beside+b, fan+nKeys(d)+1, slotChild(d, b), slotChild(d, max(b-1, 0))
			})
		}
		if err != nil {
			return 0, err
		}
		if !leaf {
			side = append(side, beside)
			inner += 2
		}
	}
	// Walk the leaves between the ends: reaching the right end leaf counts
	// the range exactly. Otherwise the walked leaves and prev sample the
	// fill; an empty leaf, which deletes leave linked, is no sample.
	n, k, sum, low := 0, 0, 0, pagestore.PageSize
	sample := func(d []byte) {
		if c := nKeys(d); c > 0 {
			k, sum, low = k+1, sum+c, min(low, c)
		}
	}
	for hops := 0; next != pagestore.InvalidPage; hops++ {
		if next == hi {
			return float64(ends + n), nil
		}
		if hops == exactLeaves {
			break
		}
		if err := t.read(next, func(d []byte) { n, next = n+nKeys(d), link(d); sample(d) }); err != nil {
			return 0, err
		}
	}
	if err := t.read(prev, sample); err != nil {
		return 0, err
	}
	for j, pg := range spread {
		if j > 0 && pg == spread[j-1] {
			continue
		}
		for leaf := false; !leaf && pg != pagestore.InvalidPage; {
			err := t.read(pg, func(d []byte) {
				if leaf = isLeaf(d); leaf {
					sample(d)
				}
				pg = link(d)
			})
			if err != nil {
				return 0, err
			}
		}
	}
	if k > 1 { // the smallest sample may be the leaf where a run grows
		k, sum = k-1, sum-low
	}
	// subtree is what one slot holds, deepest level first: the samples'
	// mean fill times the inner pages' average fanout per level up.
	subtree, avgFan := float64(sum)/float64(max(k, 1)), 0.0
	if inner > 0 {
		avgFan = float64(fan) / float64(inner)
	}
	est := float64(ends)
	for k := len(side) - 1; k >= 0; k-- {
		est += float64(side[k]) * subtree
		subtree *= avgFan
	}
	return est + float64(gap)*subtree, nil
}

// read runs fn on page pg's bytes under the page's read latch.
func (t *Tree) read(pg pagestore.PageID, fn func(d []byte)) error {
	f, err := t.pool.Fetch(pg)
	if err != nil {
		return err
	}
	f.RLock()
	fn(f.Data)
	f.RUnlock()
	t.pool.Unpin(f, false)
	return nil
}

// childSlot returns the child slot of inner page d that key routes to (0 is
// the leftmost child, i+1 cell i's); a nil key is the first slot, or the
// last when it ends a range.
func childSlot(d, key []byte, end bool) int {
	if key == nil {
		if end {
			return nKeys(d)
		}
		return 0
	}
	i, exact := search(d, key)
	if exact {
		return i + 1
	}
	return i
}

// slotChild returns the child page at slot s of inner page d.
func slotChild(d []byte, s int) pagestore.PageID {
	if s == 0 {
		return link(d)
	}
	return childAt(d, s-1)
}

// leafPos returns the index of leaf d's first entry at or above key; a nil
// key is the first entry, or past the last when it ends a range.
func leafPos(d, key []byte, end bool) int {
	if key == nil {
		if end {
			return nKeys(d)
		}
		return 0
	}
	i, _ := search(d, key)
	return i
}

// Count returns the number of entries (a full leaf walk).
func (t *Tree) Count() (int, error) {
	n := 0
	err := t.walk(nil, nil, func(k, v []byte) bool { n++; return true })
	return n, err
}

// Height returns the tree height (leaf = 1): the depth of the leftmost leaf.
func (t *Tree) Height() (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	f, h, err := t.descend(nil)
	if err != nil {
		return 0, err
	}
	t.pool.Unpin(f, false)
	return h, nil
}
