// Package buffer implements the buffer manager: a fixed-capacity pool of
// page frames over a pagestore.Store with pinning, clock replacement and
// write-back of dirty pages. It is part of the relational data-management
// infrastructure the XML engine reuses unchanged (Figure 1 of the paper):
// packed XML records live on the same buffered pages as relational rows.
//
// Write-ahead logging is integrated through FlushLSN: before a dirty page is
// evicted or flushed, the pool asks the log to be durable up to the page's
// LSN.
//
// Frames are allocated on first use, up to the capacity, and then reused.
// Replacement is one clock over that frame array: Unpin sets a frame's
// reference bit; a miss advances the hand past pinned frames, clears and
// passes referenced ones, and takes the first frame with neither. A frame
// is valid only while pinned: after Unpin it may hold another page at once.
//
// Concurrency: the page table is partitioned into shards keyed by PageID,
// each under its own mutex, which a hit takes once. Pin counts and
// reference bits are atomic, so Unpin takes no lock; the clock mutex guards
// the frame array and the hand. Lock order is clock → one shard mutex →
// frame latch, never two shard mutexes. A victim is written back and
// unmapped under its old page's shard mutex, then installed under the new
// page's and filled under its exclusive latch, so concurrent fetchers of
// either page wait instead of reading a wrong image. Write-back latches the
// frame in shared mode so a concurrent Modify cannot tear the image.
package buffer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rx/internal/pagestore"
	"rx/internal/rxerr"
)

// LSN is a log sequence number. The buffer pool treats it opaquely.
type LSN uint64

// Frame is a pinned page in the pool. Callers read and write Data under the
// frame latch and must Unpin when done, marking the frame dirty if modified.
// Frames are reused: once unpinned, a frame may be given another page.
type Frame struct {
	// Data is the page contents; valid while the frame is pinned.
	Data []byte

	// page is the page the frame holds or last held. It changes only in
	// victim, under the old page's shard mutex, but the hand reads it before
	// taking that mutex, hence atomic.
	page    atomic.Uint32
	mu      sync.RWMutex
	loadErr error // set under mu by the filling Fetch; nil once loaded
	dirty   atomic.Bool
	ref     atomic.Bool // set by Unpin, cleared by the passing hand
	pageLSN atomic.Uint64
	pins    atomic.Int32
}

// ID is the page the frame holds; stable while the caller holds a pin.
func (f *Frame) ID() pagestore.PageID { return pagestore.PageID(f.page.Load()) }

// Lock acquires the frame's exclusive latch (for writers).
func (f *Frame) Lock() { f.mu.Lock() }

// Unlock releases the exclusive latch.
func (f *Frame) Unlock() { f.mu.Unlock() }

// RLock acquires the frame's shared latch (for readers).
func (f *Frame) RLock() { f.mu.RLock() }

// RUnlock releases the shared latch.
func (f *Frame) RUnlock() { f.mu.RUnlock() }

// SetLSN records the LSN of the last log record describing a change to this
// page; the pool will not write the page out before the log is flushed past
// it.
func (f *Frame) SetLSN(l LSN) {
	for {
		cur := f.pageLSN.Load()
		if uint64(l) <= cur || f.pageLSN.CompareAndSwap(cur, uint64(l)) {
			return
		}
	}
}

// PageRun is one changed byte range of a page mutation: the bytes at
// [Off, Off+len(After)) after the change.
type PageRun struct {
	Off   int
	After []byte
}

// PageLogger receives physiological redo records for page mutations made
// through Pool.Modify. Implemented by the WAL; nil disables logging.
type PageLogger interface {
	// LogPageDelta records every changed run of ONE page mutation as a
	// single log record, returning its LSN. The grouping is a correctness
	// requirement, not an optimization: a flush may tear between records,
	// and recovery must never reconstruct a page that is halfway through a
	// Modify (say, a B+tree header counting a cell whose bytes never made
	// the log). One record is atomic under the log's checksum framing — it
	// is either entirely durable or entirely discarded. runs and the bytes
	// they alias are valid only during the call.
	LogPageDelta(id pagestore.PageID, runs []PageRun) (LSN, error)
}

// Pool is a buffer pool of page frames. Its page table is partitioned into
// shards so that concurrent fetchers of unrelated pages do not serialize on
// one mutex; a page's shard is fixed by its PageID. Replacement is global:
// one clock hand sweeps one frame array, so ErrPoolFull means every frame
// in the pool is pinned.
type Pool struct {
	store  pagestore.Store
	logger PageLogger
	// flushLSN, when non-nil, is called before writing out a dirty page to
	// guarantee WAL durability up to the page's LSN.
	flushLSN func(LSN) error

	// retryAttempts bounds extra write-back attempts after a store write
	// error; retryBase is the first backoff (doubled per attempt).
	retryAttempts int
	retryBase     time.Duration

	capacity int
	shards   []*shard
	mask     uint32 // len(shards)-1; shard count is a power of two

	// clock guards frames, appended on first use up to capacity, and hand,
	// the index of the next frame the sweep examines.
	clock  sync.Mutex
	frames []*Frame
	hand   int

	resident atomic.Int64 // frames mapped in a shard's table

	// pinned counts frames with at least one pin; pinnedHW is its high-water
	// mark since the pool was created. Zero-copy reads hold pins for the
	// lifetime of a borrowed record, so a pinned-frame count approaching
	// capacity is the first symptom of a pin leak (DB.Stats surfaces both).
	pinned   atomic.Int64
	pinnedHW atomic.Int64

	hits, misses, evictions, writeBacks, writeRetries atomic.Uint64
}

// notePinned records a frame's 0→1 pin transition and advances the
// high-water mark.
func (p *Pool) notePinned() {
	n := p.pinned.Add(1)
	for {
		hw := p.pinnedHW.Load()
		if n <= hw || p.pinnedHW.CompareAndSwap(hw, n) {
			return
		}
	}
}

// shard is one partition of the page table, under a dedicated mutex.
type shard struct {
	mu     sync.Mutex
	frames map[pagestore.PageID]*Frame
}

// ErrPoolFull reports that every frame is pinned and no page can be evicted.
var ErrPoolFull = errors.New("buffer: all frames pinned")

// New creates a pool of the given capacity (in pages) over store. Frames
// are allocated as the pool fills. The page table has 2*GOMAXPROCS shards
// rounded up to a power of two, capped at 64 and never exceeding the
// capacity.
func New(store pagestore.Store, capacity int) *Pool {
	capacity = max(capacity, 1)
	n := 1
	for n < min(2*runtime.GOMAXPROCS(0), 64) {
		n <<= 1
	}
	for n > capacity {
		n >>= 1
	}
	p := &Pool{
		store:         store,
		capacity:      capacity,
		shards:        make([]*shard, n),
		mask:          uint32(n - 1),
		frames:        make([]*Frame, 0, capacity),
		retryAttempts: 2,
		retryBase:     200 * time.Microsecond,
	}
	per := capacity/n + 1
	for i := range p.shards {
		p.shards[i] = &shard{frames: make(map[pagestore.PageID]*Frame, per)}
	}
	return p
}

// shardOf maps a page to its owning shard. Identity-mod keeps neighbouring
// pages in different shards (sequential scans spread out) and is
// deterministic across runs.
func (p *Pool) shardOf(id pagestore.PageID) *shard {
	return p.shards[uint32(id)&p.mask]
}

// SetWriteRetry tunes write-back retries: up to attempts extra tries after
// a store write error, sleeping base, 2*base, ... between them. attempts 0
// disables retrying. Must be called before concurrent use.
func (p *Pool) SetWriteRetry(attempts int, base time.Duration) {
	p.retryAttempts = attempts
	p.retryBase = base
}

// SetFlushLSN installs the WAL flush hook. Must be called before concurrent
// use.
func (p *Pool) SetFlushLSN(fn func(LSN) error) { p.flushLSN = fn }

// SetLogger installs the page-delta logger (the WAL). Must be called before
// concurrent use. With no logger, Modify skips the before-copy and the diff.
func (p *Pool) SetLogger(l PageLogger) { p.logger = l }

// modifyScratch is what Modify recycles between calls: the before-copy (a
// fresh page-sized array is zeroed before the copy overwrites it, and that
// zeroing alone costs more than diffing a sparse change) and the run list
// the diff appends to.
type modifyScratch struct {
	before [pagestore.PageSize]byte
	runs   []PageRun
}

var modifyScratches = sync.Pool{New: func() any { return new(modifyScratch) }}

// Modify applies a mutation to the frame under its exclusive latch, logs the
// resulting page delta to the attached logger, stamps the page LSN into
// bytes [0,8) of the page (all page layouts in this system reserve them),
// and marks the frame dirty. If fn leaves the page unchanged, nothing is
// logged and the frame stays clean. The frame remains pinned; callers still
// Unpin (dirtiness is already recorded, so Unpin(f, false) is fine).
func (p *Pool) Modify(f *Frame, fn func(data []byte) error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p.logger == nil {
		if err := fn(f.Data); err != nil {
			return err
		}
		f.dirty.Store(true)
		return nil
	}
	sc := modifyScratches.Get().(*modifyScratch)
	defer modifyScratches.Put(sc)
	copy(sc.before[:], f.Data)
	if err := fn(f.Data); err != nil {
		copy(f.Data, sc.before[:]) // roll the page back; mutation failed
		return err
	}
	sc.runs = diffRuns(sc.runs[:0], sc.before[:], f.Data)
	runs := sc.runs
	if len(runs) == 0 {
		return nil // no change
	}
	// All of the mutation's changed runs go into ONE log record (see
	// PageLogger): record framing is the torn-flush atomicity boundary, so a
	// page recovered from the log is always at a Modify boundary, never
	// halfway through one. The before-copy is not logged: recovery is
	// redo-only and rollback is logical.
	lsn, err := p.logger.LogPageDelta(f.ID(), runs)
	if err != nil {
		return err
	}
	putLSN(f.Data, lsn)
	f.SetLSN(lsn)
	f.dirty.Store(true)
	return nil
}

// putLSN stamps the page LSN into the layout-reserved first 8 bytes.
func putLSN(d []byte, l LSN) {
	d[0] = byte(l >> 56)
	d[1] = byte(l >> 48)
	d[2] = byte(l >> 40)
	d[3] = byte(l >> 32)
	d[4] = byte(l >> 24)
	d[5] = byte(l >> 16)
	d[6] = byte(l >> 8)
	d[7] = byte(l)
}

// PageLSN reads the LSN stamped by Modify into a page image.
func PageLSN(d []byte) LSN {
	return LSN(d[0])<<56 | LSN(d[1])<<48 | LSN(d[2])<<40 | LSN(d[3])<<32 |
		LSN(d[4])<<24 | LSN(d[5])<<16 | LSN(d[6])<<8 | LSN(d[7])
}

// diffGapMin bounds the unchanged-byte stretch a run absorbs: changes at
// most diffGapMin unchanged bytes apart share one run, and a gap of
// diffGapMin+1 or more splits them. Below it, the per-run framing overhead
// outweighs the bytes saved; above it, logging the gap is pure write
// amplification. The slotted page layouts make the amplification severe: an
// insert touches the header/slot array near the page start and cell content
// near the free-space pointer, so a single covering range drags the
// untouched free space in the middle — frequently kilobytes — into every
// logged image. The rule is part of the WAL's byte format: changing it
// changes what every Modify logs.
const diffGapMin = 64

// diffRuns appends the changed regions of b against a to runs as maximal
// runs aliasing b, merging changes at most diffGapMin unchanged bytes apart.
// The LSN field [0,8) is excluded: it is maintained by the logging machinery
// itself.
//
// Cost: one pass over the page, a word or more per step. Unchanged
// stretches between runs are skipped in vectorised blocks (nextDiff); a
// run and the gaps inside it are walked a word at a time (extendRun). A
// sparse mutation costs what it changes plus ≈page/512 block compares, not
// one compare per page byte. The look-ahead that ends a run is where the
// search for the next one resumes, so no stretch is scanned twice.
func diffRuns(runs []PageRun, a, b []byte) []PageRun {
	i := nextDiff(a, b, 8)
	for i < len(a) {
		hi, next := extendRun(a, b, i+1)
		runs = append(runs, PageRun{Off: i, After: b[i:hi]})
		i = nextDiff(a, b, next)
	}
	return runs
}

// extendRun grows a run whose last changed byte so far is hi-1. It returns
// the run's end (one past its last changed byte) and where the search for
// the next run resumes: the first change more than diffGapMin unchanged
// bytes past the end, or the point at which that many have been seen.
// Bytes [hi, j) are unchanged throughout.
func extendRun(a, b []byte, hi int) (end, next int) {
	n, j := len(a), hi
	for ; j+8 <= n; j += 8 {
		x := binary.LittleEndian.Uint64(a[j:]) ^ binary.LittleEndian.Uint64(b[j:])
		if x == 0 {
			if j+8-hi > diffGapMin {
				return hi, j + 8
			}
			continue
		}
		if first := j + bits.TrailingZeros64(x)/8; first-hi > diffGapMin {
			return hi, first
		}
		hi = j + 8 - bits.LeadingZeros64(x)/8 // past the word's last change
	}
	for ; j < n; j++ {
		if a[j] != b[j] {
			if j-hi > diffGapMin {
				return hi, j
			}
			hi = j + 1
		}
	}
	return hi, n
}

// diffProbeWords is how many words nextDiff compares one at a time before
// switching to block skips. Changes cluster (a slot shift, a cell and its
// header fields), so the next difference is usually within a few words.
const diffProbeWords = 4

// nextDiff returns the first index at or after i at which a and b differ,
// or len(a) if none does. It probes a few words with XOR, skips equal
// 512- and 64-byte blocks with bytes.Equal (vectorised by the runtime), then
// pinpoints the difference a word and finally a byte at a time.
func nextDiff(a, b []byte, i int) int {
	n := len(a)
	for k := 0; k < diffProbeWords && i+8 <= n; k++ {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
		i += 8
	}
	for i+512 <= n && bytes.Equal(a[i:i+512], b[i:i+512]) {
		i += 512
	}
	for i+64 <= n && bytes.Equal(a[i:i+64], b[i:i+64]) {
		i += 64
	}
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// Fetch pins the page in the pool, reading it from the store on a miss.
// On a miss the store read happens under the frame's exclusive latch, so a
// concurrent Fetch of the same page returns only after the data is valid.
func (p *Pool) Fetch(id pagestore.PageID) (*Frame, error) {
	s := p.shardOf(id)
	f, hit, err := p.frameFor(s, id)
	if err != nil {
		return nil, err
	}
	if hit {
		s.mu.Unlock()
		p.hits.Add(1)
		// Wait out a concurrent loader: the filling Fetch holds the
		// exclusive latch until the store read completes.
		f.mu.RLock()
		lerr := f.loadErr
		f.mu.RUnlock()
		if lerr != nil {
			p.Unpin(f, false)
			return nil, lerr
		}
		return f, nil
	}
	p.misses.Add(1)
	// Latch before publishing the release of s.mu: the frame is already in
	// the map, but no other goroutine can have reached it yet, so this
	// cannot block. Concurrent fetchers will queue on the latch above.
	f.mu.Lock()
	s.mu.Unlock()
	err = p.store.ReadPage(id, f.Data)
	f.loadErr = err
	f.mu.Unlock()
	if err != nil {
		// Unmap the frame so the next Fetch retries the read. Unmapped, it
		// is free for the hand once the fetchers queued on it unpin.
		s.mu.Lock()
		delete(s.frames, id)
		p.resident.Add(-1)
		s.mu.Unlock()
		p.Unpin(f, false)
		return nil, err
	}
	return f, nil
}

// FetchZeroed pins the page with an all-zero image, installing the frame
// without reading the store. This is the repair path for a page whose
// on-disk image is unreadable (checksum failure): Fetch would fail, but the
// repairer needs a frame to reformat. The frame is marked dirty so the new
// image is written back, refreshing the page's sidecar checksum.
func (p *Pool) FetchZeroed(id pagestore.PageID) (*Frame, error) {
	s := p.shardOf(id)
	f, hit, err := p.frameFor(s, id)
	if err != nil {
		return nil, err
	}
	if hit {
		s.mu.Unlock()
		f.mu.Lock()
		clear(f.Data)
		f.loadErr = nil
		f.mu.Unlock()
	} else {
		clear(f.Data) // a reused frame: clear it before s.mu publishes it
		s.mu.Unlock()
	}
	f.dirty.Store(true)
	return f, nil
}

// NewPage allocates a fresh zeroed page in the store and returns it pinned.
func (p *Pool) NewPage() (*Frame, error) {
	id, err := p.store.Allocate()
	if err != nil {
		return nil, err
	}
	s := p.shardOf(id)
	f, hit, err := p.frameFor(s, id)
	if err != nil {
		return nil, err
	}
	if !hit {
		clear(f.Data)
	}
	s.mu.Unlock()
	return f, nil
}

// frameFor returns a pinned frame for id: the one already in s's table
// (hit=true, possibly still being filled by a concurrent Fetch) or a victim
// newly installed for id and not yet filled (hit=false). On success s.mu is
// HELD on return — the caller publishes the release. s.mu is dropped while
// the clock finds the victim, so the table is looked up again after.
func (p *Pool) frameFor(s *shard, id pagestore.PageID) (*Frame, bool, error) {
	s.mu.Lock()
	if f, ok := s.frames[id]; ok {
		p.pin(f)
		return f, true, nil
	}
	s.mu.Unlock()
	v, err := p.victim(id)
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	if f, ok := s.frames[id]; ok {
		// A racing miss installed id first. The victim, labelled id but
		// mapped nowhere, is free for the hand.
		p.Unpin(v, false)
		p.pin(f)
		return f, true, nil
	}
	s.frames[id] = v
	p.resident.Add(1)
	return v, false, nil
}

// pin adds a pin to a frame found in a shard's table, whose mutex the
// caller holds.
func (p *Pool) pin(f *Frame) {
	if f.pins.Add(1) == 1 {
		p.notePinned()
	}
}

// victim returns a clean frame labelled id, pinned once and mapped in no
// table: a new frame while the pool is below capacity, otherwise the
// clock's choice. The hand skips pinned frames, clears the reference bit of
// referenced ones and claims the first frame with neither, under its page's
// shard mutex; a frame still mapped there is written back if dirty and
// unmapped, one already unmapped (a failed load, a lost install race) is
// simply taken. A full circle of pinned frames is ErrPoolFull.
//
// A write-back that fails (a full device) leaves its frame dirty, mapped and
// unpinned, and the hand moves on: from then on the call passes dirty frames
// by without writing them and takes the first clean one, so a full device
// does not fail a read that a clean frame can serve. Two circles without one
// — the first may only clear reference bits — return the write error.
//
// A frame's label changes only here, under the old page's shard mutex, so
// once the hand holds that mutex and sees the label it read, the label is
// stable and no fetch can pin the frame behind the claim.
func (p *Pool) victim(id pagestore.PageID) (*Frame, error) {
	p.clock.Lock()
	if len(p.frames) < p.capacity {
		f := &Frame{Data: make([]byte, pagestore.PageSize)}
		f.page.Store(uint32(id))
		f.pins.Store(1)
		p.frames = append(p.frames, f)
		p.clock.Unlock()
		p.notePinned()
		return f, nil
	}
	var wbErr error // the call's first failed write-back
	for run, left := 0, 0; ; {
		f := p.frames[p.hand]
		p.hand = (p.hand + 1) % len(p.frames)
		if wbErr != nil {
			if left--; left < 0 { // two circles since the first failure
				p.clock.Unlock()
				return nil, wbErr
			}
		}
		if f.pins.Load() > 0 {
			// The pinned counter confirms the circle: a frame the hand
			// passed pinned may have been unpinned since.
			if run++; run >= len(p.frames) && p.pinned.Load() >= int64(len(p.frames)) {
				p.clock.Unlock()
				return nil, fmt.Errorf("%w (capacity %d)", ErrPoolFull, p.capacity)
			}
			continue
		}
		run = 0
		if f.ref.CompareAndSwap(true, false) || wbErr != nil && f.dirty.Load() {
			continue
		}
		old := f.ID()
		s := p.shardOf(old)
		s.mu.Lock()
		if f.ID() != old || !f.pins.CompareAndSwap(0, 1) {
			s.mu.Unlock()
			continue
		}
		p.clock.Unlock()
		p.notePinned()
		if s.frames[old] == f {
			if f.dirty.Load() {
				err := wbErr
				if err == nil {
					err = p.writeBack(f)
				}
				if err != nil {
					s.mu.Unlock()
					p.Unpin(f, false)
					if wbErr == nil {
						wbErr, left = err, 2*len(p.frames)
					}
					p.clock.Lock()
					continue
				}
				p.writeBacks.Add(1)
			}
			delete(s.frames, old)
			p.resident.Add(-1)
			p.evictions.Add(1)
		}
		f.page.Store(uint32(id))
		f.loadErr = nil
		f.dirty.Store(false)
		f.ref.Store(false)
		f.pageLSN.Store(0)
		s.mu.Unlock()
		return f, nil
	}
}

// writeBack flushes f's contents to the store, honoring WAL ordering.
// Called with f's shard mutex held; takes the frame latch in shared mode so
// a concurrent Modify cannot tear the image being written (Modify never
// takes shard mutexes, so the shard → frame order here cannot deadlock).
// The dirty bit is cleared before the write: a Modify that lands mid-flight
// re-marks the frame dirty and the page is simply written again later.
func (p *Pool) writeBack(f *Frame) error {
	f.dirty.Store(false)
	f.mu.RLock()
	if lsn := LSN(f.pageLSN.Load()); p.flushLSN != nil && lsn > 0 {
		if err := p.flushLSN(lsn); err != nil {
			f.mu.RUnlock()
			f.dirty.Store(true)
			return err
		}
	}
	err := p.store.WritePage(f.ID(), f.Data)
	// Bounded retry with backoff: transient write-back errors (a busy or
	// briefly failing device) should not fail an eviction or checkpoint.
	// Page-range and no-space errors are persistent (a full disk does not
	// clear in microseconds) and never retried here — the caller surfaces
	// them so the engine can degrade instead of spinning.
	for attempt := 0; err != nil && attempt < p.retryAttempts &&
		!errors.Is(err, pagestore.ErrPageRange) &&
		!errors.Is(err, rxerr.ErrNoSpace); attempt++ {
		time.Sleep(p.retryBase << attempt)
		p.writeRetries.Add(1)
		err = p.store.WritePage(f.ID(), f.Data)
	}
	f.mu.RUnlock()
	if err != nil {
		f.dirty.Store(true)
		return err
	}
	return nil
}

// Unpin releases one pin on the frame; dirty marks the page modified. It
// takes no lock: it sets the frame's reference bit and drops the atomic pin
// count. The frame must not be touched after: it may be reused for another
// page at once.
func (p *Pool) Unpin(f *Frame, dirty bool) {
	if dirty {
		f.dirty.Store(true)
	}
	f.ref.Store(true)
	switch n := f.pins.Add(-1); {
	case n == 0:
		p.pinned.Add(-1)
	case n < 0:
		panic("buffer: unpin of unpinned frame")
	}
}

// FlushAll writes back every dirty frame (pinned or not) in global page
// order — deterministic I/O sequencing matters for reproducing fault
// schedules — and syncs the store.
func (p *Pool) FlushAll() error {
	var ids []pagestore.PageID
	for _, s := range p.shards {
		s.mu.Lock()
		for id, f := range s.frames {
			if f.dirty.Load() {
				ids = append(ids, id)
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		s := p.shardOf(id)
		s.mu.Lock()
		if f, ok := s.frames[id]; ok && f.dirty.Load() {
			if err := p.writeBack(f); err != nil {
				s.mu.Unlock()
				return err
			}
			p.writeBacks.Add(1)
		}
		s.mu.Unlock()
	}
	return p.store.Sync()
}

// Stats is a point-in-time snapshot of the pool's counters and occupancy.
type Stats struct {
	Hits, Misses, Evictions uint64
	WriteBacks              uint64 // dirty pages written to the store
	WriteRetries            uint64 // write-back attempts retried after errors
	Capacity                int
	Resident                int // frames currently mapped to a page
	Pinned                  int // frames with at least one pin right now
	PinnedHighWater         int // peak simultaneously pinned frames
}

// Stats reports the pool's counters. Each is read atomically; the set is
// not cross-counter atomic.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits:            p.hits.Load(),
		Misses:          p.misses.Load(),
		Evictions:       p.evictions.Load(),
		WriteBacks:      p.writeBacks.Load(),
		WriteRetries:    p.writeRetries.Load(),
		Capacity:        p.capacity,
		Resident:        int(p.resident.Load()),
		Pinned:          int(p.pinned.Load()),
		PinnedHighWater: int(p.pinnedHW.Load()),
	}
}

// Store exposes the underlying page store (for allocation-size queries).
func (p *Pool) Store() pagestore.Store { return p.store }
