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
//	[18:..) slot array, 2 bytes per cell (cell offset)
//
// Leaf cell:     keyLen u16, key, valLen u16, val
// Internal cell: keyLen u16, key, child u32 — child covers keys >= key.
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
// key and value alias the read-latched leaf until the callback returns, and
// a caller that keeps one copies it (Get copies its value). EstimateRange is
// the one reader with its own descents, two of them, to both ends of a range.
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

// Tree is a B+tree index. A tree is durably identified by its meta page,
// which stores the current root (the root moves when it splits).
type Tree struct {
	pool *buffer.Pool

	mu   sync.RWMutex
	meta pagestore.PageID
	root pagestore.PageID
	// fence is PutSorted's copy of a leaf visit's upper bound (guarded by mu,
	// reused so a visit does not allocate).
	fence []byte
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
		binary.BigEndian.PutUint32(d[8:12], uint32(rootID))
		return nil
	})
	metaID := mf.ID()
	pool.Unpin(mf, false)
	if err != nil {
		return nil, err
	}
	return &Tree{pool: pool, meta: metaID, root: rootID}, nil
}

// Open attaches to an existing tree by its meta page ID.
func Open(pool *buffer.Pool, meta pagestore.PageID) (*Tree, error) {
	f, err := pool.Fetch(meta)
	if err != nil {
		return nil, err
	}
	f.RLock()
	root := pagestore.PageID(binary.BigEndian.Uint32(f.Data[8:12]))
	f.RUnlock()
	pool.Unpin(f, false)
	return &Tree{pool: pool, meta: meta, root: root}, nil
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

func cellOff(d []byte, i int) int {
	return int(binary.BigEndian.Uint16(d[hdrSize+i*slotSize:]))
}

func setCellOff(d []byte, i, off int) {
	binary.BigEndian.PutUint16(d[hdrSize+i*slotSize:], uint16(off))
}

// cellKey returns the key of cell i, aliasing the page buffer; its capacity
// ends with it, so an append by a borrower copies instead of writing into
// the page.
func cellKey(d []byte, i int) []byte {
	off := cellOff(d, i)
	end := off + 2 + int(binary.BigEndian.Uint16(d[off:]))
	return d[off+2 : end : end]
}

// leafValue returns the value of leaf cell i, aliasing the page buffer like
// cellKey.
func leafValue(d []byte, i int) []byte {
	off := cellOff(d, i)
	vo := off + 2 + int(binary.BigEndian.Uint16(d[off:]))
	end := vo + 2 + int(binary.BigEndian.Uint16(d[vo:]))
	return d[vo+2 : end : end]
}

// childAt returns the child pointer of internal cell i.
func childAt(d []byte, i int) pagestore.PageID {
	off := cellOff(d, i)
	kl := int(binary.BigEndian.Uint16(d[off:]))
	return pagestore.PageID(binary.BigEndian.Uint32(d[off+2+kl:]))
}

func cellSize(d []byte, i int) int {
	off := cellOff(d, i)
	kl := int(binary.BigEndian.Uint16(d[off:]))
	if isLeaf(d) {
		vl := int(binary.BigEndian.Uint16(d[off+2+kl:]))
		return 2 + kl + 2 + vl
	}
	return 2 + kl + 4
}

// search finds the smallest cell index whose key is >= key, i.e. the
// insertion point. Returns (index, exact match).
func search(d []byte, key []byte) (int, bool) {
	lo, hi := 0, nKeys(d)
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(cellKey(d, mid), key) {
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
func allocCell(d []byte, i, size int) (int, bool) {
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
	setCellOff(d, i, off)
	binary.BigEndian.PutUint16(d[hdrNKeys:], uint16(n+1))
	return off, true
}

// insertCell places a prebuilt cell at index i (see allocCell).
func insertCell(d []byte, i int, cell []byte) bool {
	off, ok := allocCell(d, i, len(cell))
	if ok {
		copy(d[off:], cell)
	}
	return ok
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
	tb := compactScratch.Get().(*[]byte)
	tmp := *tb
	defer compactScratch.Put(tb)
	w := pagestore.PageSize
	offs := make([]int, n)
	for i := 0; i < n; i++ {
		sz := cellSize(d, i)
		w -= sz
		copy(tmp[w:], d[cellOff(d, i):cellOff(d, i)+sz])
		offs[i] = w
	}
	oldFree := int(binary.BigEndian.Uint16(d[hdrFreePtr:]))
	if oldFree == 0 {
		oldFree = pagestore.PageSize
	}
	if w == oldFree {
		return false
	}
	copy(d[w:], tmp[w:])
	for i := 0; i < n; i++ {
		setCellOff(d, i, offs[i])
	}
	binary.BigEndian.PutUint16(d[hdrFreePtr:], uint16(w))
	return true
}

// putLeafCell writes a leaf cell for key and val at the start of dst.
func putLeafCell(dst, key, val []byte) {
	binary.BigEndian.PutUint16(dst, uint16(len(key)))
	copy(dst[2:], key)
	binary.BigEndian.PutUint16(dst[2+len(key):], uint16(len(val)))
	copy(dst[4+len(key):], val)
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
	leafNeed := 2 + len(key) + 2 + len(run[0].Value)
	t.mu.Lock()
	defer t.mu.Unlock()

	f, err := t.pool.Fetch(t.root)
	if err != nil {
		return 0, err
	}
	f.RLock()
	need := maxInternalCell
	if isLeaf(f.Data) {
		need = leafNeed
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
				t.fence = append(t.fence[:0], cellKey(f.Data, next)...)
				fence = t.fence
			}
		}
		f.RUnlock()
		if leaf {
			n := 0
			err = t.pool.Modify(f, func(d []byte) error {
				for n = 0; n < len(run); n++ {
					e := run[n]
					if n > 0 && (split || fence != nil && bytes.Compare(e.Key, fence) >= 0 ||
						needsSplit(d, 2+len(e.Key)+2+len(e.Value))) {
						break
					}
					i, exact := search(d, e.Key)
					if exact {
						removeCell(d, i)
					}
					off, ok := allocCell(d, i, 2+len(e.Key)+2+len(e.Value))
					if !ok {
						return errors.New("btree: leaf full after preemptive split")
					}
					putLeafCell(d[off:], e.Key, e.Value)
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
			need = leafNeed
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
				t.fence = append(t.fence[:0], cellKey(f.Data, nx)...)
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
// leftmost child.
type splitPlan struct {
	leaf     bool
	mid      int
	sep      []byte
	leftmost pagestore.PageID // internal: the promoted cell's child
	oldLink  pagestore.PageID
	cells    [][]byte // copies of the cells that move right
}

// planSplit plans the split of page d for an insert of key, whose cell needs
// need bytes, below fence (nil: none), at the cell splitAt picks.
func planSplit(d, key, fence []byte, need int) (*splitPlan, error) {
	n := nKeys(d)
	if n < 2 {
		return nil, errors.New("btree: cannot split page with fewer than 2 cells")
	}
	p := &splitPlan{leaf: isLeaf(d), mid: splitAt(d, key, fence, need), oldLink: link(d)}
	p.sep = append([]byte(nil), cellKey(d, p.mid)...)
	first := p.mid
	if !p.leaf {
		p.leftmost = childAt(d, p.mid)
		first = p.mid + 1
	}
	for i := first; i < n; i++ {
		off := cellOff(d, i)
		sz := cellSize(d, i)
		p.cells = append(p.cells, append([]byte(nil), d[off:off+sz]...))
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
// keeps room for need bytes. Every other split is at n/2, unless skewed cell
// sizes leave the page key routes to short of room; then the cut goes
// beside i, where one side always has room.
func splitAt(d, key, fence []byte, need int) int {
	n := nKeys(d)
	i, _ := search(d, key)
	if isLeaf(d) {
		right := fence
		if i < n {
			right = cellKey(d, i)
		}
		if right == nil || lcp(key, cellKey(d, 0)) > lcp(key, right) {
			if i == n {
				return n - 1
			}
			if i >= n/2 && cutFits(d, key, i, need) {
				return i
			}
		}
	}
	for _, m := range [...]int{n / 2, max(i, 1), i - 1} {
		if m >= 1 && m < n && cutFits(d, key, m, need) {
			return m
		}
	}
	return n / 2
}

// cutFits reports whether, once page d is cut at cell m, the page key routes
// to has room for a cell of need bytes.
func cutFits(d, key []byte, m, need int) bool {
	lo, hi := 0, m
	if bytes.Compare(key, cellKey(d, m)) >= 0 {
		lo, hi = m, nKeys(d)
		if !isLeaf(d) {
			lo = m + 1 // the promoted cell moves up
		}
	}
	room := pagestore.PageSize - hdrSize - (hi-lo+1)*slotSize
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
		if !insertCell(rd, i, c) {
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
		if !insertCell(pd, i, internalCell(plan.sep, rightID)) {
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
			if !insertCell(d, 0, internalCell(plan.sep, rightID)) {
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
			binary.BigEndian.PutUint32(d[8:12], uint32(newRootID))
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
// deletion, as in many production systems' online path).
func (t *Tree) Delete(key []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, _, err := t.descend(key)
	if err != nil {
		return err
	}
	found := false
	err = t.pool.Modify(f, func(d []byte) error {
		i, exact := search(d, key)
		if !exact {
			return nil
		}
		found = true
		removeCell(d, i)
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

// walk calls fn with the entries whose keys lie in [from, to), in ascending
// order (nil from: from the first entry; nil to: to the last), until fn
// returns false. It is the tree's one leaf walk: one descent, then right
// links, which also carry it past leaves that deletes emptied. The tree is
// read-locked throughout and each leaf read-latched while fn sees its
// entries, so k and v alias the latched leaf and are valid only until fn
// returns: a caller that keeps one copies it. fn must not call writers on
// the same tree.
func (t *Tree) walk(from, to []byte, fn func(k, v []byte) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	f, _, err := t.descend(from)
	if err != nil {
		return err
	}
	f.RLock()
	i, _ := search(f.Data, from)
	for {
		for n := nKeys(f.Data); i < n; i++ {
			k := cellKey(f.Data, i)
			if to != nil && bytes.Compare(k, to) >= 0 || !fn(k, leafValue(f.Data, i)) {
				f.RUnlock()
				t.pool.Unpin(f, false)
				return nil
			}
		}
		next := link(f.Data)
		f.RUnlock()
		t.pool.Unpin(f, false)
		if next == pagestore.InvalidPage {
			return nil
		}
		if f, err = t.pool.Fetch(next); err != nil {
			return err
		}
		f.RLock()
		i = 0
	}
}

// Scan visits entries with key in [from, to) in ascending order (nil from =
// from the start; nil to = to the end) and calls fn for each. fn returning
// false stops the scan. The entry is borrowed: its Key and Value alias the
// read-latched leaf and are valid only until fn returns, so fn copies what
// it keeps. The tree is read-locked for the duration; fn must not call
// writers on the same tree.
func (t *Tree) Scan(from, to []byte, fn func(e Entry) bool) error {
	return t.walk(from, to, func(k, v []byte) bool { return fn(Entry{Key: k, Value: v}) })
}

// Ceiling calls fn with the smallest entry whose key is >= from, or returns
// ErrNotFound. This is the NodeID-index primitive: the paper finds a node's
// record by searching for the successor entry among interval upper
// endpoints (§3.4). It is the leaf walk's first entry, borrowed like Scan's:
// k and v alias the read-latched leaf until fn returns.
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
// the leaves sampled inside the range — the walked ones and the right end
// leaf's left sibling, empty ones skipped and the smallest dropped, since
// the leaf where a run grows holds a cell or two (see splitAt) — times the
// average fanout of the inner pages visited below the parting level; with
// every sample empty, only the ends count. An empty or inverted range is 0.
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
	for lo == hi && inLeaf < 0 {
		err := t.read(lo, func(d []byte) {
			if isLeaf(d) {
				inLeaf = max(leafPos(d, to, true)-leafPos(d, from, false), 0)
				return
			}
			a, b := childSlot(d, from, false), childSlot(d, to, true)
			gap, lo, hi, prev = b-a-1, slotChild(d, a), slotChild(d, b), slotChild(d, max(b-1, a))
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
