package core

// Degraded read-only mode and the free-space watchdog. When the device under
// the WAL or the page file fills up, the failing transaction rolls back
// cleanly (see Txn.Commit) and the engine flips read-only: reads, queries,
// and the scrubber keep serving, every write entry point sheds with the
// typed rxerr.ErrNoSpace plus a retry-after hint. The free-space watchdog, a
// duty of the maintenance loop (maintain.go), probes free space on an
// interval and, once it clears the high-water mark, replays the WAL tail and
// flushes the pool; if both land, the engine recovers to read-write on its
// own — no restart, mirroring how the scrubber detects and repairs
// corruption without operator intervention.
//
// The watermark state machine is deliberately hysteretic: entry at LowWater,
// exit at HighWater > LowWater, so a device hovering at the edge does not
// flap between modes on every probe.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"rx/internal/rxerr"
)

// checkWritable gates a write entry point: nil in read-write mode, the typed
// no-space error (with the watchdog's probe interval as the retry hint) in
// degraded mode.
func (db *DB) checkWritable() error {
	if !db.degraded.Load() {
		return nil
	}
	atomic.AddUint64(&db.stats.writesShed, 1)
	db.degMu.Lock()
	reason := db.degReason
	db.degMu.Unlock()
	return rxerr.NoSpaceError{
		Reason:     "engine is read-only (degraded): " + reason,
		RetryAfter: db.watch.Interval,
	}
}

// noteWriteErr funnels write-path failures into the degraded-mode decision:
// a typed no-space error flips the engine read-only. Any other error passes
// without effect. Call sites are every write entry point — the Txn writes,
// CreateCollection, CreateValueIndex, RegisterSchema, Vacuum — and the points
// that acknowledge durability (commit, abort, checkpoint): ENOSPC from a heap
// extension mid-operation proves the device is full just as surely as a
// failed WAL flush does.
func (db *DB) noteWriteErr(err error) {
	if err == nil || !errors.Is(err, rxerr.ErrNoSpace) {
		return
	}
	db.enterDegraded(err.Error())
}

// enterDegraded flips the engine read-only. Idempotent; only the first
// reason is kept until recovery.
func (db *DB) enterDegraded(reason string) {
	if db.degraded.CompareAndSwap(false, true) {
		db.degMu.Lock()
		db.degReason = reason
		db.degMu.Unlock()
		atomic.AddUint64(&db.stats.degradedEnters, 1)
	}
}

// deferCompensation records undo work that could not be applied in-process —
// typically because rolling a failed transaction back needed a page fetch,
// the fetch needed an eviction, and the eviction's write-ahead flush hit the
// same full device that failed the transaction. The effects of the dead
// transaction are still visible in memory, so the engine MUST go read-only
// regardless of the cause's type: uncommitted state can be read but must not
// be built upon. The debt is replayed (newest-first) by TryRecoverWritable
// once space returns; if the process dies first, write-ahead ordering
// guarantees the durable image never acknowledged the transaction, and
// recovery reaches the same rolled-back state by the WAL route.
//
// undo is the still-unapplied prefix in log order; it is stored reversed so
// the debt list is always in replay (newest-first) order.
func (db *DB) deferCompensation(undo []logicalOp, cause error) {
	db.degMu.Lock()
	for i := len(undo) - 1; i >= 0; i-- {
		db.compDebt = append(db.compDebt, undo[i])
	}
	db.degMu.Unlock()
	db.noteWriteErr(cause)
	db.enterDegraded("unresolved rollback: " + cause.Error())
}

// pendingUndo reports how many undo operations await replay.
func (db *DB) pendingUndo() int {
	db.degMu.Lock()
	defer db.degMu.Unlock()
	return len(db.compDebt)
}

// exitDegraded flips the engine back to read-write.
func (db *DB) exitDegraded() {
	if db.degraded.CompareAndSwap(true, false) {
		db.degMu.Lock()
		db.degReason = ""
		db.degMu.Unlock()
		atomic.AddUint64(&db.stats.degradedExits, 1)
	}
}

// Degraded reports whether the engine is serving read-only, and why.
func (db *DB) Degraded() (bool, string) {
	if !db.degraded.Load() {
		return false, ""
	}
	db.degMu.Lock()
	defer db.degMu.Unlock()
	return true, db.degReason
}

// TryRecoverWritable attempts to leave degraded mode: the WAL tail that
// could not land is flushed, then the pool's dirty pages. Success proves
// the device accepts writes again and re-enables the write path. Safe to
// call in read-write mode (it is then just a flush). Used by the watchdog
// and exposed for operators/tests that freed space out of band.
func (db *DB) TryRecoverWritable() error {
	// Unresolved undo first: in-memory state must reflect only committed
	// transactions before the engine may accept writes again. Replay is in
	// recorded (newest-first) order; a failure re-queues the remainder.
	db.degMu.Lock()
	debt := db.compDebt
	db.compDebt = nil
	db.degMu.Unlock()
	for i, op := range debt {
		if err := db.compensate(op); err != nil {
			db.degMu.Lock()
			db.compDebt = append(debt[i:], db.compDebt...)
			db.degMu.Unlock()
			return fmt.Errorf("core: recover read-write: pending undo (%s %s/%d): %w",
				op.Kind, op.Col, op.Doc, err)
		}
	}
	if db.log != nil {
		if err := db.log.FlushAll(); err != nil {
			return fmt.Errorf("core: recover read-write: wal: %w", err)
		}
	}
	if err := db.pool.FlushAll(); err != nil {
		return fmt.Errorf("core: recover read-write: pool: %w", err)
	}
	db.exitDegraded()
	return nil
}

// SpaceWatchOptions configure the free-space watchdog, a duty of the
// maintenance loop (Options.SpaceWatch).
type SpaceWatchOptions struct {
	// Probe returns the device's free bytes; nil leaves the watchdog off.
	// Production uses a filesystem statfs probe (DiskFreeProbe); exhaustion
	// tests use fault.DiskBudget.Free.
	Probe func() (int64, error)
	// LowWater enters degraded mode when free space drops below it.
	LowWater int64
	// HighWater must be >= LowWater; recovery is attempted when free space
	// reaches it. Defaults to 2*LowWater.
	HighWater int64
	// Interval is the probe period (default 1s). It doubles as the
	// retry-after hint attached to shed writes, watchdog or not.
	Interval time.Duration
}

// check validates the watchdog configuration and fills in its defaults. A
// nil Probe leaves the watchdog off.
func (o *SpaceWatchOptions) check() error {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.Probe == nil {
		return nil
	}
	if o.LowWater <= 0 {
		return errors.New("core: space watch needs a positive low-water mark")
	}
	if o.HighWater <= 0 {
		o.HighWater = 2 * o.LowWater
	}
	if o.HighWater < o.LowWater {
		return fmt.Errorf("core: space watch high water %d below low water %d", o.HighWater, o.LowWater)
	}
	return nil
}

// probeSpace runs one watchdog tick: read free space, apply the watermark
// state machine. Without mayRecover only the enter leg runs: the maintenance
// loop's pacing hook probes from inside a scrub pass, where replaying
// compensation is unsafe (maintain.go).
func (db *DB) probeSpace(mayRecover bool) {
	o := db.watch
	free, err := o.Probe()
	if err != nil {
		return // a failing probe changes nothing; the next tick retries
	}
	db.spaceFree.Store(free)
	switch {
	case free < o.LowWater:
		db.enterDegraded(fmt.Sprintf("free space %d bytes below low water %d", free, o.LowWater))
	case mayRecover && free >= o.HighWater && db.degraded.Load():
		// Space came back: recovery only counts if the deferred bytes
		// actually land. A failed attempt stays degraded for the next tick.
		_ = db.TryRecoverWritable()
	}
}
