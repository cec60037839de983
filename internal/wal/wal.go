// Package wal implements write-ahead logging and crash recovery — the
// "logging, backup and recovery" infrastructure of Figure 1 that the XML
// engine reuses unchanged: because packed XML records live on ordinary heap
// and index pages, a single physiological redo log covers relational and
// XML data alike.
//
// Design (ARIES-flavoured, scoped to this engine):
//
//   - Physical redo: every page mutation made through buffer.Pool.Modify is
//     logged as one record holding the after-image of each changed byte run
//     of that page. Page LSNs stamped into the first 8 bytes of each page
//     make redo idempotent. No before-images are logged: nothing reads them.
//   - Logical undo: transactions additionally log logical operation records
//     (insert document X, delete subtree Y ...); recovery first repeats
//     history physically, then compensates loser transactions by running
//     inverse engine operations (which are themselves logged).
//   - Checkpoints: the buffer pool is flushed, then a checkpoint record
//     marks the redo low-water mark.
//   - One reader: walk is the only frame parser. Open runs it once to find
//     the log's end and the offset of the last checkpoint; Recover streams
//     the log through it in one pass, redoing the page deltas after that
//     checkpoint and collecting losers; Records collects its frames.
//
// Record framing: [length u32][crc32 u32][kind u8][payload]; a record's LSN
// is its byte offset in the log plus one (so LSN 0 means "none").
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rx/internal/buffer"
	"rx/internal/pagestore"
	"rx/internal/rxerr"
)

// Kind tags a log record.
type Kind uint8

// Log record kinds.
const (
	KindBegin Kind = iota + 2
	KindCommit
	KindAbort
	KindLogical
	KindCheckpoint
	// KindPageDelta carries the after-image of every changed run of one page
	// mutation in a single record, so the mutation is atomic under torn-flush
	// recovery (a record either passes its checksum whole or is discarded
	// whole). Its value skips 1 and 7, the retired delta layouts that also
	// carried before-images: a log still holding those fails decode instead
	// of being misread.
	KindPageDelta Kind = 8
)

// Record is one decoded log record.
type Record struct {
	LSN  buffer.LSN
	Kind Kind
	// PageDelta fields: the page and all changed runs of one mutation.
	Page pagestore.PageID
	Runs []buffer.PageRun
	// Transaction fields.
	Txn uint64
	// Logical operation payload (opaque to the WAL; the engine encodes it).
	Payload []byte
}

// Device abstracts the log storage (file or memory).
type Device interface {
	io.WriterAt
	io.ReaderAt
	Size() (int64, error)
	Sync() error
	Close() error
}

// FileDevice is a file-backed log device.
type FileDevice struct{ f *os.File }

// OpenFileDevice opens (or creates) a log file.
func OpenFileDevice(path string) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &FileDevice{f: f}, nil
}

func (d *FileDevice) WriteAt(p []byte, off int64) (int, error) {
	n, err := d.f.WriteAt(p, off)
	return n, mapNoSpace(err, "log write")
}
func (d *FileDevice) ReadAt(p []byte, off int64) (int, error) { return d.f.ReadAt(p, off) }
func (d *FileDevice) Size() (int64, error) {
	st, err := d.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
func (d *FileDevice) Sync() error  { return mapNoSpace(d.f.Sync(), "log sync") }
func (d *FileDevice) Close() error { return d.f.Close() }

// mapNoSpace links a device-level ENOSPC to the engine's typed
// rxerr.ErrNoSpace. A full log device then fails Commit with an error the
// transaction layer classifies with errors.Is — and Flush has already rolled
// the durable watermark back, so no commit acknowledgement can run ahead of
// the bytes that never landed.
func mapNoSpace(err error, what string) error {
	if err == nil || !errors.Is(err, syscall.ENOSPC) {
		return err
	}
	return fmt.Errorf("%w: %s: %v", rxerr.ErrNoSpace, what, err)
}

// MemDevice is an in-memory log device (tests, benchmarks).
type MemDevice struct {
	mu  sync.Mutex
	buf []byte
}

func (d *MemDevice) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	end := int(off) + len(p)
	if end > len(d.buf) {
		d.buf = append(d.buf, make([]byte, end-len(d.buf))...)
	}
	copy(d.buf[off:], p)
	return len(p), nil
}

func (d *MemDevice) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(off) >= len(d.buf) {
		return 0, io.EOF
	}
	n := copy(p, d.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (d *MemDevice) Size() (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.buf)), nil
}
func (d *MemDevice) Sync() error  { return nil }
func (d *MemDevice) Close() error { return nil }

// Log is an open write-ahead log.
type Log struct {
	dev Device

	// groupDelay > 0 enables group commit: the leader of a commit's flush
	// may wait up to this long for more committers to buffer their records
	// before issuing the single Sync (see awaitGroup).
	groupDelay time.Duration

	commits atomic.Uint64 // Commit calls
	syncs   atomic.Uint64 // dev.Sync calls issued by Flush
	waits   atomic.Uint64 // group-commit waits taken by flush leaders
	deltas  atomic.Uint64 // LogPageDelta records

	mu      sync.Mutex
	tail    int64  // next append offset
	pending []byte // buffered, unflushed bytes starting at tail
	flushed int64  // device bytes durable through this offset

	// flushing is set while one flush leader writes and syncs; it keeps the
	// durable watermark from running ahead of an in-flight write. Other
	// flushes wait on durable, which is broadcast when the leader finishes:
	// those its sync covered return at once, free to commit again and join
	// the next group, and one of the rest becomes the next leader.
	flushing bool
	durable  sync.Cond

	// pendingCommits counts the commit records in pending; lastGroup is how
	// many the last commit-carrying flush made durable. While a leader waits
	// for a group, regrouped is non-nil, and the commit that brings
	// pendingCommits up to lastGroup closes it: the last group has re-formed.
	pendingCommits int
	lastGroup      int
	regrouped      chan struct{}

	// checkpoint is the offset of the last durable checkpoint record, -1
	// when there is none: recovery redoes only the page deltas after it.
	checkpoint atomic.Int64
	// maxTxn is the largest transaction ID in the log at Open.
	maxTxn uint64
}

// Option configures a Log at Open.
type Option func(*Log)

// WithGroupCommit enables group commit: a committer that becomes the flush
// leader may wait for other committers to buffer their records, then makes
// them all durable with one device sync. maxDelay bounds the wait; it is not
// a price every commit pays. The leader waits only after a flush has carried
// more than one commit, and stops early when a quarter-delay slice brings no
// new log traffic — so a lone writer syncs at once.
func WithGroupCommit(maxDelay time.Duration) Option {
	return func(l *Log) { l.groupDelay = maxDelay }
}

// ErrCorrupt reports corruption in the middle of the log: a bad record that
// is followed by further valid records cannot be a torn tail (a crash only
// tears the last write) and recovery must not silently skip committed work.
var ErrCorrupt = errors.New("wal: mid-log corruption")

// Open attaches to a log device, positioning at its end. A torn tail — an
// incomplete or bad-CRC record at the very end of the log, the normal
// outcome of a crash mid-append — is truncated; mid-log corruption is a
// hard ErrCorrupt error. The same pass finds the last checkpoint record and
// the largest transaction ID (MaxTxn).
func Open(dev Device, opts ...Option) (*Log, error) {
	size, err := dev.Size()
	if err != nil {
		return nil, err
	}
	checkpoint := int64(-1)
	var maxTxn uint64
	end, err := walk(dev, size, func(off int64, body []byte) error {
		switch Kind(body[0]) {
		case KindCheckpoint:
			checkpoint = off
		case KindBegin, KindCommit, KindAbort, KindLogical:
			if len(body) >= 9 {
				maxTxn = max(maxTxn, binary.BigEndian.Uint64(body[1:9]))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	l := &Log{dev: dev, tail: end, flushed: end, maxTxn: maxTxn}
	l.checkpoint.Store(checkpoint)
	for _, o := range opts {
		o(l)
	}
	l.durable.L = &l.mu
	return l, nil
}

// walkBuffer is the size of the one buffer walk reads the log through, so
// a walk issues about one device read per MiB.
const walkBuffer = 1 << 20

// walk is the log's one frame parser. It calls fn with the offset and body
// (kind byte and payload) of each frame of the device's first size bytes in
// order, and returns the end of the valid prefix. body is reused: it is
// valid only until fn returns. A frame that is cut short, has length 0 or
// fails its CRC ends the log there — the torn tail a crash leaves — unless
// a bad-CRC frame is followed by a valid one: a crash tears only the last
// write, so that is mid-log corruption and fails with ErrCorrupt. An error
// from fn or the device stops the walk and is returned.
func walk(dev Device, size int64, fn func(off int64, body []byte) error) (int64, error) {
	r := bufio.NewReaderSize(io.NewSectionReader(dev, 0, size), int(min(size, walkBuffer)))
	var hdr [8]byte
	var body []byte
	// next reads the frame at off into body: complete is false when no
	// whole frame starts there, good reports whether its CRC matches.
	next := func(off int64) (complete, good bool, err error) {
		if off+8 > size {
			return false, false, nil
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return false, false, err
		}
		n := int64(binary.BigEndian.Uint32(hdr[0:4]))
		if n == 0 || off+8+n > size {
			return false, false, nil
		}
		body = slices.Grow(body[:0], int(n))[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			return false, false, err
		}
		return true, crc32.ChecksumIEEE(body) == binary.BigEndian.Uint32(hdr[4:8]), nil
	}
	var off int64
	for {
		complete, good, err := next(off)
		if err != nil || !complete {
			return off, err
		}
		if !good {
			complete, good, err := next(off + 8 + int64(len(body)))
			if err == nil && complete && good {
				err = fmt.Errorf("%w: bad record at offset %d followed by valid records", ErrCorrupt, off)
			}
			return off, err
		}
		if err := fn(off, body); err != nil {
			return off, err
		}
		off += 8 + int64(len(body))
	}
}

func (l *Log) appendLocked(kind Kind, payload []byte) buffer.LSN {
	lsn, start := l.beginLocked(kind, len(payload))
	l.pending = append(l.pending, payload...)
	l.endLocked(start)
	return lsn
}

// beginLocked opens a frame for a record of kind with n payload bytes at
// the end of pending — header space, kind byte, room for the payload — and
// returns the record's LSN and the frame's offset in pending. The caller
// appends exactly n payload bytes, then calls endLocked.
func (l *Log) beginLocked(kind Kind, n int) (buffer.LSN, int) {
	start := len(l.pending)
	l.pending = append(slices.Grow(l.pending, 8+1+n), 0, 0, 0, 0, 0, 0, 0, 0, byte(kind))
	return buffer.LSN(l.tail + int64(start) + 1), start
}

// endLocked stamps the length and checksum of the frame beginLocked opened
// at start.
func (l *Log) endLocked(start int) {
	frame := l.pending[start:]
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(frame)-8))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[8:]))
}

// LogPageDelta implements buffer.PageLogger: one record for every changed
// run of a single page mutation. See KindPageDelta for why the runs must
// share a record. The record is encoded straight into the pending buffer, so
// each run's bytes are copied once and nothing is allocated beyond that
// buffer's amortized growth.
func (l *Log) LogPageDelta(id pagestore.PageID, runs []buffer.PageRun) (buffer.LSN, error) {
	size := 8
	for _, r := range runs {
		size += 8 + len(r.After)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn, start := l.beginLocked(KindPageDelta, size)
	b := binary.BigEndian.AppendUint32(l.pending, uint32(id))
	b = binary.BigEndian.AppendUint32(b, uint32(len(runs)))
	for _, r := range runs {
		b = binary.BigEndian.AppendUint32(b, uint32(r.Off))
		b = binary.BigEndian.AppendUint32(b, uint32(len(r.After)))
		b = append(b, r.After...)
	}
	l.pending = b
	l.endLocked(start)
	l.deltas.Add(1)
	return lsn, nil
}

// MaxTxn returns the largest transaction ID the log held when it was
// opened, 0 for an empty log. Recovery decides a transaction by the commit
// or abort records under its ID anywhere in the log, so a new transaction
// must take an ID above it.
func (l *Log) MaxTxn() uint64 { return l.maxTxn }

// Begin logs a transaction start.
func (l *Log) Begin(txn uint64) buffer.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(KindBegin, binary.BigEndian.AppendUint64(nil, txn))
}

// Commit logs and makes durable a transaction commit (force at commit).
// With group commit enabled, the sync that makes this record durable may be
// issued by another committer; either way Commit does not return success
// until the record is on stable storage. A commit's flush is the only one
// that may wait for a group.
func (l *Log) Commit(txn uint64) (buffer.LSN, error) {
	l.mu.Lock()
	lsn := l.appendLocked(KindCommit, binary.BigEndian.AppendUint64(nil, txn))
	l.pendingCommits++
	if l.regrouped != nil && l.pendingCommits >= l.lastGroup {
		close(l.regrouped)
		l.regrouped = nil
	}
	l.mu.Unlock()
	l.commits.Add(1)
	return lsn, l.flush(lsn, l.groupDelay > 0)
}

// CommitCount reports how many commits have been logged. Together with
// SyncCount it makes commit batching observable: syncs/commit < 1 means
// group commit is amortizing device syncs across committers.
func (l *Log) CommitCount() uint64 { return l.commits.Load() }

// SyncCount reports how many device syncs Flush has issued.
func (l *Log) SyncCount() uint64 { return l.syncs.Load() }

// WaitCount reports how many times a commit's flush leader waited for a
// group before syncing. It stays 0 without group commit, and under it while
// every flush carries a single commit.
func (l *Log) WaitCount() uint64 { return l.waits.Load() }

// PageDeltaCount reports how many page-delta records have been logged: one
// per logged Pool.Modify, so it counts page mutations, not keys or rows.
func (l *Log) PageDeltaCount() uint64 { return l.deltas.Load() }

// Abort logs a transaction abort (after its compensations).
func (l *Log) Abort(txn uint64) (buffer.LSN, error) {
	l.mu.Lock()
	lsn := l.appendLocked(KindAbort, binary.BigEndian.AppendUint64(nil, txn))
	l.mu.Unlock()
	return lsn, l.Flush(lsn)
}

// Logical logs an engine-level operation record for txn.
func (l *Log) Logical(txn uint64, op []byte) buffer.LSN {
	payload := binary.BigEndian.AppendUint64(nil, txn)
	payload = append(payload, op...)
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(KindLogical, payload)
}

// Checkpoint records a redo low-water mark. The caller must have flushed
// the buffer pool first.
func (l *Log) Checkpoint() (buffer.LSN, error) {
	l.mu.Lock()
	lsn := l.appendLocked(KindCheckpoint, nil)
	l.mu.Unlock()
	if err := l.Flush(lsn); err != nil {
		return lsn, err
	}
	l.checkpoint.Store(int64(lsn) - 1)
	return lsn, nil
}

// Flush makes the log durable at least through lsn. It never waits for a
// group: only a commit's flush does.
func (l *Log) Flush(lsn buffer.LSN) error { return l.flush(lsn, false) }

// flush is Flush; a leader with commit set may first wait for a group.
func (l *Log) flush(lsn buffer.LSN, commit bool) error {
	l.mu.Lock()
	for int64(lsn) > l.flushed && l.flushing {
		l.durable.Wait()
	}
	if int64(lsn) <= l.flushed {
		// A leader's sync covered our record.
		l.mu.Unlock()
		return nil
	}
	l.flushing = true
	l.mu.Unlock()
	if commit {
		l.awaitGroup()
	}
	l.mu.Lock()
	data, carried := l.pending, l.pendingCommits
	at := l.tail
	l.pending, l.pendingCommits = nil, 0
	l.tail += int64(len(data))
	l.mu.Unlock()
	err := l.writeOut(data, at)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flushing = false
	l.durable.Broadcast()
	if err != nil {
		// The write failed (possibly after persisting a prefix), or the
		// sync did and the device may have dropped the bytes. Put them back
		// at the front of pending and roll tail back to their offset, so a
		// retry rewrites and re-syncs them at the same place: advancing tail
		// would leave a hole that recovery reads as corruption, and a later
		// successful flush would set the durable watermark over bytes whose
		// sync failed. Record LSNs are offsets, so anything appended
		// meanwhile keeps its position after data. The commits data carried
		// count as pending again.
		l.pending = append(append(make([]byte, 0, len(data)+len(l.pending)), data...), l.pending...)
		l.tail = at
		l.pendingCommits += carried
		return err
	}
	l.flushed = l.tail
	if carried > 0 {
		l.lastGroup = carried
	}
	return nil
}

// writeOut writes data at offset at and syncs the device.
func (l *Log) writeOut(data []byte, at int64) error {
	if len(data) > 0 {
		if _, err := l.dev.WriteAt(data, at); err != nil {
			return err
		}
	}
	l.syncs.Add(1)
	return l.dev.Sync()
}

// awaitGroup is the group-commit wait of a commit's flush leader: it gives
// other committers time to buffer their records, but only when a wait can
// pay. It waits only after company has been seen — the last flush that
// carried commits carried more than one — so a lone committer syncs at once,
// and not at all when as many commits as last time are already pending. The
// wait ends the moment the last group has re-formed, after a quarter-delay
// slice that brought no new appends, or when groupDelay has passed.
func (l *Log) awaitGroup() {
	l.mu.Lock()
	if l.lastGroup <= 1 || l.pendingCommits >= l.lastGroup {
		l.mu.Unlock()
		return
	}
	regrouped := make(chan struct{})
	l.regrouped = regrouped
	last := len(l.pending)
	l.mu.Unlock()
	l.waits.Add(1)
	slice := l.groupDelay / 4
	if slice <= 0 {
		slice = l.groupDelay
	}
	deadline := time.Now().Add(l.groupDelay)
	timer := time.NewTimer(slice)
	defer timer.Stop()
	for {
		select {
		case <-regrouped:
			return
		case <-timer.C:
		}
		l.mu.Lock()
		n := len(l.pending)
		if n == last || !time.Now().Before(deadline) {
			l.regrouped = nil
			l.mu.Unlock()
			return
		}
		l.mu.Unlock()
		last = n
		timer.Reset(slice)
	}
}

// FlushAll forces everything buffered to the device.
func (l *Log) FlushAll() error {
	l.mu.Lock()
	lsn := buffer.LSN(l.tail + int64(len(l.pending)))
	l.mu.Unlock()
	return l.Flush(lsn)
}

// Records decodes every durable record in order. Call after FlushAll (or on
// a freshly opened log).
func (l *Log) Records() ([]Record, error) {
	var out []Record
	err := l.walkDurable(func(off int64, body []byte) error {
		var r Record
		if err := decode(buffer.LSN(off+1), slices.Clone(body), &r); err != nil {
			return err
		}
		out = append(out, r)
		return nil
	})
	return out, err
}

// walkDurable walks the log through its durable tail. A bad record inside
// that prefix is an error, never a torn tail.
func (l *Log) walkDurable(fn func(off int64, body []byte) error) error {
	l.mu.Lock()
	tail := l.tail
	l.mu.Unlock()
	end, err := walk(l.dev, tail, fn)
	if err == nil && end < tail {
		err = fmt.Errorf("wal: bad record at offset %d", end)
	}
	return err
}

// decode fills r from a frame body. r's byte slices alias body, and r.Runs
// reuses r's slice.
func decode(lsn buffer.LSN, body []byte, r *Record) error {
	*r = Record{LSN: lsn, Kind: Kind(body[0]), Runs: r.Runs[:0]}
	p := body[1:]
	switch r.Kind {
	case KindPageDelta:
		if len(p) < 8 {
			return errors.New("wal: short page delta")
		}
		r.Page = pagestore.PageID(binary.BigEndian.Uint32(p[0:4]))
		n := int(binary.BigEndian.Uint32(p[4:8]))
		p = p[8:]
		for i := 0; i < n; i++ {
			if len(p) < 8 {
				return errors.New("wal: short page delta run")
			}
			off := int(binary.BigEndian.Uint32(p[0:4]))
			al := int(binary.BigEndian.Uint32(p[4:8]))
			if 8+al > len(p) {
				return errors.New("wal: short page delta run body")
			}
			r.Runs = append(r.Runs, buffer.PageRun{Off: off, After: p[8 : 8+al]})
			p = p[8+al:]
		}
	case KindBegin, KindCommit, KindAbort:
		if len(p) < 8 {
			return errors.New("wal: short txn record")
		}
		r.Txn = binary.BigEndian.Uint64(p)
	case KindLogical:
		if len(p) < 8 {
			return errors.New("wal: short logical record")
		}
		r.Txn = binary.BigEndian.Uint64(p)
		r.Payload = p[8:]
	case KindCheckpoint:
	default:
		return fmt.Errorf("wal: unknown record kind %d", r.Kind)
	}
	return nil
}

// RecoveryResult reports what recovery found and redid.
type RecoveryResult struct {
	// Redone counts page deltas applied.
	Redone int
	// Skipped counts deltas skipped by the page-LSN check.
	Skipped int
	// Losers are the uncommitted transactions in the order of their first
	// log record; the engine compensates them newest first.
	Losers []Loser
}

// Loser is an uncommitted transaction and its logical operations in log
// order; the engine compensates them in reverse.
type Loser struct {
	Txn uint64
	Ops [][]byte
}

// Recover repeats history against the store in one pass over the log: every
// page delta after the last checkpoint is re-applied unless the page already
// carries a newer LSN. A transaction with no commit or abort record anywhere
// in the log is a loser. The caller then opens the database and compensates
// the losers.
func Recover(l *Log, store pagestore.Store) (*RecoveryResult, error) {
	checkpoint := l.checkpoint.Load()
	res := &RecoveryResult{}
	first := map[uint64]int{} // transaction → its index in Losers, -1 once decided
	var r Record
	buf := make([]byte, pagestore.PageSize)
	err := l.walkDurable(func(off int64, body []byte) error {
		if err := decode(buffer.LSN(off+1), body, &r); err != nil {
			return err
		}
		switch r.Kind {
		case KindPageDelta:
			if off <= checkpoint {
				return nil
			}
			// Ensure the page exists (it may have been allocated after the
			// last store sync).
			for store.NumPages() <= r.Page {
				if _, err := store.Allocate(); err != nil {
					return err
				}
			}
			if err := store.ReadPage(r.Page, buf); err != nil {
				return err
			}
			if buffer.PageLSN(buf) >= r.LSN {
				res.Skipped++
				return nil
			}
			// All runs of one Modify land together — the record is the
			// atomicity unit, so redo can never leave the page halfway
			// through a mutation.
			for _, run := range r.Runs {
				copy(buf[run.Off:], run.After)
			}
			stampLSN(buf, r.LSN)
			res.Redone++
			return store.WritePage(r.Page, buf)
		case KindBegin, KindLogical:
			i, seen := first[r.Txn]
			if !seen {
				i = len(res.Losers)
				first[r.Txn] = i
				res.Losers = append(res.Losers, Loser{Txn: r.Txn})
			}
			if i >= 0 && r.Kind == KindLogical {
				res.Losers[i].Ops = append(res.Losers[i].Ops, slices.Clone(r.Payload))
			}
		case KindCommit, KindAbort:
			if i, seen := first[r.Txn]; seen && i >= 0 {
				res.Losers[i].Ops = nil
			}
			first[r.Txn] = -1
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Losers = slices.DeleteFunc(res.Losers, func(l Loser) bool { return first[l.Txn] < 0 })
	return res, store.Sync()
}

func stampLSN(d []byte, lsn buffer.LSN) {
	binary.BigEndian.PutUint64(d[0:8], uint64(lsn))
}
