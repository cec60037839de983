package core

// Corruption registry and document quarantine. When the scrubber (or a
// degraded query) finds a damaged page, the damage is attributed to the
// documents whose records live on it and only those DocIDs are demoted to
// ErrQuarantined — the rest of the collection keeps serving. Repair clears
// quarantine entries as documents are restored; a document salvaged with
// subtree loss stays readable but is flagged lossy, never silently dropped.
//
// The registry is in-memory: it is a cache of a property that is re-derivable
// from storage, so a restart simply re-detects on the next scrub pass. That
// is also what makes crash-mid-repair safe — repair is idempotent and the
// work list is recomputed, not persisted.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"rx/internal/pagestore"
	"rx/internal/rxerr"
	"rx/internal/xml"
)

// ErrQuarantined reports an operation touching a document quarantined by the
// corruption registry. Retrieve details with errors.As; it matches
// rxerr.ErrQuarantined under errors.Is.
type ErrQuarantined struct {
	Col    string
	Doc    xml.DocID
	Reason string
}

func (e ErrQuarantined) Error() string {
	return fmt.Sprintf("core: document %d in %q quarantined: %s", e.Doc, e.Col, e.Reason)
}

func (e ErrQuarantined) Is(target error) bool { return target == rxerr.ErrQuarantined }

// QuarantineEntry is one quarantined document in the corruption registry.
type QuarantineEntry struct {
	Col    string
	Doc    xml.DocID
	Reason string
	// Page is the damaged page the quarantine was attributed to
	// (pagestore.InvalidPage when the damage was structural, not physical).
	Page pagestore.PageID
}

// LossyDoc records a document that survived repair only partially: salvage
// from the NodeID index recovered what was readable and dropped the subtrees
// whose records were lost.
type LossyDoc struct {
	Col          string
	Doc          xml.DocID
	LostSubtrees int
}

// quarantineSet is the DB-wide corruption registry.
type quarantineSet struct {
	mu    sync.Mutex
	docs  map[string]map[xml.DocID]QuarantineEntry
	lossy map[string]map[xml.DocID]LossyDoc
}

// Quarantine demotes a document: reads of it fail with ErrQuarantined (or
// are skipped under QueryOptions.Degraded) until repair clears it. Returns
// true if the document was not already quarantined.
func (db *DB) Quarantine(col string, doc xml.DocID, reason string, page pagestore.PageID) bool {
	q := &db.quarantine
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.docs == nil {
		q.docs = map[string]map[xml.DocID]QuarantineEntry{}
	}
	if q.docs[col] == nil {
		q.docs[col] = map[xml.DocID]QuarantineEntry{}
	}
	if _, ok := q.docs[col][doc]; ok {
		return false
	}
	q.docs[col][doc] = QuarantineEntry{Col: col, Doc: doc, Reason: reason, Page: page}
	atomic.AddUint64(&db.stats.docsQuarantined, 1)
	return true
}

// quarantined looks a document up in the registry.
func (db *DB) quarantined(col string, doc xml.DocID) (QuarantineEntry, bool) {
	q := &db.quarantine
	q.mu.Lock()
	defer q.mu.Unlock()
	e, ok := q.docs[col][doc]
	return e, ok
}

// ClearQuarantine removes a document from the registry (repair done, or an
// operator override). Returns true if it was present.
func (db *DB) ClearQuarantine(col string, doc xml.DocID) bool {
	q := &db.quarantine
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.docs[col][doc]; !ok {
		return false
	}
	delete(q.docs[col], doc)
	return true
}

// Quarantined lists the registry, ordered by collection then DocID.
func (db *DB) Quarantined() []QuarantineEntry {
	q := &db.quarantine
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []QuarantineEntry
	for _, docs := range q.docs {
		for _, e := range docs {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Doc < out[j].Doc
	})
	return out
}

// markLossy records a document salvaged with subtree loss.
func (db *DB) markLossy(col string, doc xml.DocID, lostSubtrees int) {
	q := &db.quarantine
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.lossy == nil {
		q.lossy = map[string]map[xml.DocID]LossyDoc{}
	}
	if q.lossy[col] == nil {
		q.lossy[col] = map[xml.DocID]LossyDoc{}
	}
	q.lossy[col][doc] = LossyDoc{Col: col, Doc: doc, LostSubtrees: lostSubtrees}
	atomic.AddUint64(&db.stats.docsLossy, 1)
}

// LossyDocs lists documents flagged lossy by salvage, ordered by collection
// then DocID. The flag persists until the document is overwritten or deleted
// (ClearLossy), so an operator can find what needs restoring from backups.
func (db *DB) LossyDocs() []LossyDoc {
	q := &db.quarantine
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []LossyDoc
	for _, docs := range q.lossy {
		for _, e := range docs {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Doc < out[j].Doc
	})
	return out
}

// ClearLossy drops a document's lossy flag. Returns true if it was set.
func (db *DB) ClearLossy(col string, doc xml.DocID) bool {
	q := &db.quarantine
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.lossy[col][doc]; !ok {
		return false
	}
	delete(q.lossy[col], doc)
	return true
}

// Stats is a snapshot of the engine's observability counters.
type Stats struct {
	// Scrub subsystem.
	ScrubPasses      uint64 // completed scrub passes
	PagesVerified    uint64 // pages read and checked across all passes
	CorruptionsFound uint64 // page read failures found by scrubbing
	DocsQuarantined  uint64 // documents ever demoted to quarantine
	DocsRepaired     uint64 // documents restored by repair
	DocsLossy        uint64 // repaired documents flagged lossy
	IndexesRebuilt   uint64 // index structures rebuilt by repair
	QuarantinedNow   int    // current registry size

	// Engine resilience.
	WriteBackRetries uint64 // buffer-pool write-back retries (transient I/O)
	DeadlockReruns   uint64 // transactions re-run after a deadlock abort

	// Buffer pool.
	PoolHits       uint64
	PoolMisses     uint64
	PoolEvictions  uint64
	PoolWriteBacks uint64
	PoolResident   int
	PoolPinned     int // frames pinned right now (borrowed reads, cursors)
	PoolPinnedHW   int // peak simultaneously pinned frames

	// WAL (zero when the database runs without a log).
	WALCommits uint64 // transactions committed
	WALSyncs   uint64 // device syncs issued; < WALCommits means group commit batched

	// Resource governance (degraded.go, memgov).
	DegradedReadOnly bool   // engine currently sheds writes (disk exhausted)
	DegradedReason   string // why, empty when read-write
	WritesShed       uint64 // write requests rejected while degraded
	DegradedEnters   uint64 // times the engine flipped read-only
	DegradedExits    uint64 // times the watchdog recovered it to read-write
	PendingUndo      int    // unresolved rollback operations awaiting replay
	SpaceFree        int64  // last free-space probe in bytes (-1 = never probed)
	SpaceLowWater    int64  // watchdog enter-degraded threshold (0 = no watchdog)
	SpaceHighWater   int64  // watchdog recovery threshold
	MemLimit         int64  // engine memory budget in bytes (0 = unlimited)
	MemUsed          int64  // bytes currently reserved against the budget
	MemHighWater     int64  // peak bytes ever reserved
	MemDenials       uint64 // reservations denied at the engine root

	// PlanCacheHits and PlanCacheMisses are always 0: every execution
	// plans afresh. They are kept for readers of the old counters.
	PlanCacheHits, PlanCacheMisses uint64
}

// dbStats holds the DB's atomic counters behind Stats().
type dbStats struct {
	scrubPasses     uint64
	pagesVerified   uint64
	corruptions     uint64
	docsQuarantined uint64
	docsRepaired    uint64
	docsLossy       uint64
	indexesRebuilt  uint64
	deadlockReruns  uint64
	writesShed      uint64
	degradedEnters  uint64
	degradedExits   uint64
}

// Stats returns a consistent-enough snapshot of the engine counters (each
// counter is read atomically; the set is not cross-counter atomic).
func (db *DB) Stats() Stats {
	ps := db.pool.Stats()
	s := Stats{
		ScrubPasses:      atomic.LoadUint64(&db.stats.scrubPasses),
		PagesVerified:    atomic.LoadUint64(&db.stats.pagesVerified),
		CorruptionsFound: atomic.LoadUint64(&db.stats.corruptions),
		DocsQuarantined:  atomic.LoadUint64(&db.stats.docsQuarantined),
		DocsRepaired:     atomic.LoadUint64(&db.stats.docsRepaired),
		DocsLossy:        atomic.LoadUint64(&db.stats.docsLossy),
		IndexesRebuilt:   atomic.LoadUint64(&db.stats.indexesRebuilt),
		WriteBackRetries: ps.WriteRetries,
		DeadlockReruns:   atomic.LoadUint64(&db.stats.deadlockReruns),
		PoolHits:         ps.Hits,
		PoolMisses:       ps.Misses,
		PoolEvictions:    ps.Evictions,
		PoolWriteBacks:   ps.WriteBacks,
		PoolResident:     ps.Resident,
		PoolPinned:       ps.Pinned,
		PoolPinnedHW:     ps.PinnedHighWater,
	}
	if db.log != nil {
		s.WALCommits = db.log.CommitCount()
		s.WALSyncs = db.log.SyncCount()
	}
	s.DegradedReadOnly, s.DegradedReason = db.Degraded()
	s.WritesShed = atomic.LoadUint64(&db.stats.writesShed)
	s.DegradedEnters = atomic.LoadUint64(&db.stats.degradedEnters)
	s.DegradedExits = atomic.LoadUint64(&db.stats.degradedExits)
	s.PendingUndo = db.pendingUndo()
	s.SpaceFree = db.spaceFree.Load()
	if db.watch.Probe != nil {
		s.SpaceLowWater, s.SpaceHighWater = db.watch.LowWater, db.watch.HighWater
	}
	s.MemLimit = db.mem.Limit()
	s.MemUsed = db.mem.Used()
	s.MemHighWater = db.mem.HighWater()
	s.MemDenials = db.mem.Denials()
	q := &db.quarantine
	q.mu.Lock()
	for _, docs := range q.docs {
		s.QuarantinedNow += len(docs)
	}
	q.mu.Unlock()
	return s
}
