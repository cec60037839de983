// Package rx is System R/X reproduced in Go: a native XML database engine
// built on relational-database infrastructure (Zhang, "Building a Scalable
// Native XML Database Engine on Infrastructure for a Relational Database",
// SIGMOD/XIME-P 2005).
//
// XML documents are stored in tree-packed records inside ordinary heap
// table spaces, addressed logically by prefix-encoded Dewey node IDs and
// physically through a NodeID B+tree index; XPath value indexes map typed
// node values to (DocID, NodeID, RID) positions; queries run either as
// QuickXScan streaming scans over stored documents or through the §4.3
// index access methods (DocID/NodeID lists, filtering, ANDing/ORing).
// Every query visits its candidates — documents, subtrees or result nodes —
// on the caller's goroutine, adding helper goroutines only when the planner's
// price for those candidates pays for them, and can stream results through
// a cursor. Subdocument updates,
// write-ahead logging with crash recovery, document locking and
// document-level multiversioning complete the engine.
//
// Quick start (every document write is a transaction: DB.RunTxn, or a
// Session write, which commits on its own outside Begin):
//
//	ctx := context.Background()
//	db, _ := rx.Open("")          // in-memory; rx.Open("data.rxdb", ...) for a file
//	col, _ := db.CreateCollection("catalog", rx.CollectionOptions{})
//	id, _ := db.Session().Insert(ctx, "catalog", []byte(`<product><price>9.99</price></product>`))
//	col.CreateValueIndex("by_price", "/product/price", rx.TypeDouble)
//	cur, _ := col.Cursor("/product[price < 10]", rx.QueryOptions{})
//	defer cur.Close()
//	for cur.Next() {
//		fmt.Println(cur.Result().Doc, cur.Result().Node)
//	}
//	_ = cur.Err()
//	_ = col.Serialize(id, os.Stdout)
package rx

import (
	"errors"
	"fmt"
	"time"

	"rx/internal/catalog"
	"rx/internal/core"
	"rx/internal/nodeid"
	"rx/internal/pagestore"
	"rx/internal/rxerr"
	"rx/internal/session"
	"rx/internal/wal"
	"rx/internal/xml"
)

// Core engine types, re-exported.
type (
	// Collection is a base table with one XML column.
	Collection = core.Collection
	// Options configure the engine.
	Options = core.Options
	// CollectionOptions configure a collection.
	CollectionOptions = core.CollectionOptions
	// Result is one query match.
	Result = core.Result
	// Plan describes the access method the cost-based planner chose for a
	// query, with its cardinality/cost estimates and priced alternatives.
	Plan = core.Plan
	// PlanAlt is one alternative access path the planner priced.
	PlanAlt = core.PlanAlt
	// QueryOptions tune one query execution (parallelism, limit, context).
	QueryOptions = core.QueryOptions
	// Cursor streams query results without materializing the full set.
	Cursor = core.Cursor
	// Txn is a transaction.
	Txn = core.Txn
	// Position selects where InsertFragment places a fragment.
	Position = core.Position
	// DocID identifies a document within a collection.
	DocID = xml.DocID
	// NodeID is a prefix-encoded Dewey node ID.
	NodeID = nodeid.ID
	// TxnOption configures DB.RunTxn.
	TxnOption = core.TxnOption
	// BatchOptions configure Txn.InsertBatch bulk loading.
	BatchOptions = core.BatchOptions
	// PageChecksumError reports a stored page whose contents fail CRC
	// verification (torn write or silent corruption); retrieve the page ID
	// with errors.As, or match the class with errors.Is(err, ErrChecksum).
	// Returned only from databases opened WithChecksums.
	PageChecksumError = pagestore.ErrPageChecksum
	// QuarantineError reports an operation touching a document the corruption
	// registry has quarantined; retrieve details with errors.As, or match the
	// class with errors.Is(err, ErrQuarantined).
	QuarantineError = core.ErrQuarantined
	// QuarantineEntry is one quarantined document in the corruption registry.
	QuarantineEntry = core.QuarantineEntry
	// LossyDoc is a document salvaged by repair with subtree loss.
	LossyDoc = core.LossyDoc
	// Stats is a snapshot of the engine's observability counters.
	Stats = core.Stats
	// ScrubReport summarizes one integrity scrub pass.
	ScrubReport = core.ScrubReport
	// RepairReport summarizes a repair run.
	RepairReport = core.RepairReport
	// Scrubber runs one-shot integrity scrub and repair passes.
	Scrubber = core.Scrubber
	// ScrubOptions configure a Scrubber.
	ScrubOptions = core.ScrubOptions
)

// Session layer, re-exported. A Session sits between a caller and the engine
// and owns per-caller state: the open transaction, default query options,
// and name-based collection addressing. The same SessionAPI is implemented
// by *Session (embedded) and by the client package's *client.DB (remote), so
// programs written against it run in-process or over the network unchanged.
type (
	// Session is an embedded session over this database.
	Session = session.Session
	// SessionAPI is the sessioned database surface shared by embedded
	// sessions and remote client connections.
	SessionAPI = session.API
	// SessionCursor streams query results from a session (embedded or
	// remote) without materializing the full set.
	SessionCursor = session.Cursor
	// SessionOption configures NewSession.
	SessionOption = session.Option
	// QueryOption tunes one session query.
	QueryOption = session.QueryOption
)

// Error taxonomy. One sentinel per failure class, matched with errors.Is;
// every engine, session, and wire error that belongs to a class unwraps to
// its sentinel — including errors that crossed the rxserver wire, so a
// remote caller handles failures exactly like an embedded one.
var (
	// ErrNotFound reports a missing document, collection, or node.
	ErrNotFound = rxerr.ErrNotFound
	// ErrQuarantined reports an operation touching a quarantined document.
	ErrQuarantined = rxerr.ErrQuarantined
	// ErrChecksum reports a page failing CRC verification.
	ErrChecksum = rxerr.ErrChecksum
	// ErrLockTimeout reports a lock wait that timed out (possible deadlock).
	ErrLockTimeout = rxerr.ErrLockTimeout
	// ErrBusy reports load shed by rxserver admission control.
	ErrBusy = rxerr.ErrBusy
	// ErrConnLost reports a remote connection that died under an operation
	// the client cannot safely retry: writes, transaction control, and any
	// operation inside an open transaction. Idempotent operations retry
	// transparently and only surface this after the retry policy is
	// exhausted.
	ErrConnLost = rxerr.ErrConnLost
	// ErrNoSpace reports a write rejected because the storage device is
	// exhausted (or the engine is in read-only degraded mode after hitting
	// it). Reads keep working; retry writes after space is freed —
	// RetryAfter extracts the engine's hint.
	ErrNoSpace = rxerr.ErrNoSpace
	// ErrOverBudget reports an allocation denied by a memory budget
	// (server-wide, per-session, or per-query). The offending request
	// fails; the session, connection, and server keep running.
	ErrOverBudget = rxerr.ErrOverBudget
	// ErrLayout reports a database file opened in the other page layout:
	// created with checksums and opened without them, or the reverse
	// (RederiveChecksums included), or written before index leaves were
	// front coded (there is no conversion). It is returned before anything
	// is written, so the file still opens in its own layout.
	ErrLayout = errors.New("rx: page layout mismatch")
)

// BusyError is the detail type behind ErrBusy when the server attaches a
// retry-after hint; retrieve it with errors.As, or just call RetryAfter.
type BusyError = rxerr.BusyError

// NoSpaceError is the detail type behind ErrNoSpace: the reason the engine
// went read-only and a retry-after hint. Retrieve it with errors.As.
type NoSpaceError = rxerr.NoSpaceError

// OverBudgetError is the detail type behind ErrOverBudget: which budget
// scope denied ("server", "session", "query") and the byte accounting.
// Retrieve it with errors.As.
type OverBudgetError = rxerr.OverBudgetError

// RetryAfter extracts the server's backoff hint from an ErrBusy rejection
// (0 when the error carries none). Clients honor it automatically; manual
// retry loops should too.
func RetryAfter(err error) time.Duration { return rxerr.RetryAfter(err) }

// WithLimit stops a session query after n results.
func WithLimit(n int) QueryOption { return session.Limit(n) }

// WithParallelism sets a session query's workers, the caller's goroutine
// included (0 = the engine decides from the candidates' priced work, at
// most GOMAXPROCS; 1 = serial).
func WithParallelism(n int) QueryOption { return session.Parallelism(n) }

// WithValues includes each result node's string value.
func WithValues() QueryOption { return session.NeedValues() }

// WithDegraded lets a session query skip quarantined documents instead of
// failing.
func WithDegraded() QueryOption { return session.Degraded() }

// WithQueryMemLimit caps one session query's buffered-result memory at n
// bytes; a breach fails the query with ErrOverBudget while the session
// keeps serving.
func WithQueryMemLimit(n int64) QueryOption { return session.MemLimit(n) }

// WithSessionDefaults sets query options applied to every session query
// before the per-call options.
func WithSessionDefaults(opts ...QueryOption) SessionOption {
	return session.WithDefaults(opts...)
}

// WithSessionMemLimit caps a session's total governed memory (buffered
// query results, bulk-load staging) at n bytes, as a child of the engine's
// memory budget.
func WithSessionMemLimit(n int64) SessionOption { return session.WithMemLimit(n) }

// DB is an open database: the engine plus a default embedded session. The
// engine surface (collections, transactions, scrub/repair, stats) is
// promoted from core.DB; the sessioned, context-first surface hangs off
// Session. DB is a thin single-session wrapper — callers needing
// independent transaction scopes open more sessions with NewSession.
type DB struct {
	*core.DB
	sess *Session
	dev  wal.Device // the log file WithWAL opened; nil without one
}

// Session returns the database's default session: the context-first API
// (Query, Insert, Begin/Commit/Rollback, ...) sharing the rest of the
// facade's single-caller view.
func (db *DB) Session() *Session { return db.sess }

// NewSession opens an additional session with its own transaction scope and
// query defaults. Sessions are cheap; open one per concurrent worker. Close
// releases it, rolling back any open transaction.
func (db *DB) NewSession(opts ...SessionOption) *Session {
	return session.New(db.DB, opts...)
}

// Engine exposes the underlying engine, for wiring infrastructure (such as
// the rxserver network front end) that manages its own sessions.
func (db *DB) Engine() *core.DB { return db.DB }

// Close closes the default session (rolling back its open transaction, if
// any), then the engine, then the log file.
func (db *DB) Close() error {
	db.sess.Close()
	err := db.DB.Close()
	if db.dev != nil {
		err = errors.Join(err, db.dev.Close())
	}
	return err
}

// WithDeadlockRetry makes DB.RunTxn re-run a transaction aborted as a
// deadlock victim up to max more times, with jittered backoff.
func WithDeadlockRetry(max int) TxnOption { return core.WithDeadlockRetry(max) }

// Fragment insertion positions.
const (
	AsLastChild = core.AsLastChild
	BeforeNode  = core.BeforeNode
	AfterNode   = core.AfterNode
)

// Value index key types (§3.3: "a few simple types supported, such as
// double, string, and date" plus the §4.3 decimal).
const (
	TypeString  = xml.TString
	TypeDouble  = xml.TDouble
	TypeDate    = xml.TDate
	TypeDecimal = xml.TDecimal
)

// Option configures Open. Options compose left to right.
type Option func(*openConfig)

type openConfig struct {
	core       core.Options
	walPath    string
	groupDelay time.Duration
	checksums  bool
	spaceWatch bool // the probe needs the database's path
}

// WithWAL enables write-ahead logging with the log at path; Open then runs
// crash recovery first (committed work is redone, losers are compensated).
func WithWAL(path string) Option {
	return func(c *openConfig) { c.walPath = path }
}

// WithGroupCommit enables WAL group commit: a committing transaction that
// finds the log device busy, or peers still arriving, may wait for company,
// then one sync makes the whole group durable. maxDelay bounds that wait; it
// is not a price every commit pays. A commit waits only after a log flush
// has carried more than one commit, and stops once the log stops growing, so
// a lone writer syncs at once. Cuts fsyncs per commit below 1 under
// concurrent writers. Only meaningful together with WithWAL.
func WithGroupCommit(maxDelay time.Duration) Option {
	return func(c *openConfig) { c.groupDelay = maxDelay }
}

// WithPoolPages sets the buffer pool capacity in pages (default 4096 =
// 32 MiB).
func WithPoolPages(n int) Option {
	return func(c *openConfig) { c.core.PoolPages = n }
}

// WithLockTimeout bounds document lock waits (default 2s).
func WithLockTimeout(d time.Duration) Option {
	return func(c *openConfig) { c.core.LockTimeoutMillis = int(d / time.Millisecond) }
}

// WithChecksums enables torn-page detection: every page carries a CRC32 in a
// sidecar checksum page, made durable in the same sync epoch as the data and
// verified on each read. A page damaged by a torn write or silent media
// corruption surfaces as ErrPageChecksum instead of decoding as valid data.
// The layout is fixed at creation: a database created with checksums must
// always be opened with them, and one created without them never can be.
func WithChecksums() Option {
	return func(c *openConfig) { c.checksums = true }
}

// WithMemoryBudget caps the engine's governed memory — buffered query
// results, bulk-load staging, server response framing — at n bytes across
// all sessions. A reservation that does not fit fails the one request with
// ErrOverBudget; everything else keeps running. 0 (the default) disables
// the cap but still tracks usage in Stats.
func WithMemoryBudget(n int64) Option {
	return func(c *openConfig) { c.core.MemBudget = n }
}

// WithSpaceWatch runs a free-space watchdog on a file-backed database, a duty
// of the engine's maintenance loop: the filesystem holding the database is
// probed every interval (0 = 1s), and when free space falls below low bytes
// the engine enters read-only degraded mode — writes fail fast with
// ErrNoSpace, reads and queries keep serving — recovering automatically once
// free space climbs back above high (0 = 2*low, hysteresis so the engine
// doesn't flap at the threshold). Ignored for in-memory databases. The engine also enters degraded mode reactively
// when a WAL or page write hits the full device, whether or not a watchdog
// is running; the watchdog's job is flipping it back.
func WithSpaceWatch(low, high int64, interval time.Duration) Option {
	return func(c *openConfig) {
		c.core.SpaceWatch = core.SpaceWatchOptions{LowWater: low, HighWater: high, Interval: interval}
		c.spaceWatch = true
	}
}

// WithScrub runs a background integrity scrub, a duty of the engine's
// maintenance loop: one full scrub pass (every page plus a structural
// cross-check of every document) per interval (0 = 10 min), throttled to
// about rate page/record reads per second (0 = unthrottled). Damaged
// documents are quarantined rather than failing queries wholesale; pass
// results land in the engine counters (DB.Stats). The loop stops when the DB
// is closed. Use NewScrubber for one-shot passes and repairs.
func WithScrub(interval time.Duration, rate int) Option {
	return func(c *openConfig) {
		if interval <= 0 {
			interval = 10 * time.Minute
		}
		c.core.ScrubInterval, c.core.ScrubRate = interval, rate
	}
}

// NewScrubber builds a scrubber over an open database: RunPass runs a
// synchronous scrub pass, ScanPages a page-only scan, Repair a repair, each
// throttled to opts.Rate.
func NewScrubber(db *DB, opts ScrubOptions) *Scrubber { return core.NewScrubber(db.DB, opts) }

// RederiveChecksums rebuilds the sidecar checksum pages of a checksummed,
// file-backed database from the data pages themselves — the recovery path
// when a lost or corrupted sidecar page makes the database unopenable
// (Open fails with ErrPageChecksum). A dense checksum-failure cluster on an
// *openable* database is handled by DB.Repair directly; this entry exists
// for damage that reaches the catalog's own checksum entries. It blesses
// the current page images, so run a scrub afterwards to confirm structural
// integrity. The database must not be open elsewhere.
func RederiveChecksums(path string) error {
	s, err := pagestore.OpenFile(path)
	if err != nil {
		return err
	}
	if err := checkLayout(s, path, true); err != nil {
		s.Close()
		return err
	}
	cs := pagestore.NewChecksumStore(s)
	if err := cs.Rederive(); err != nil {
		cs.Close()
		return err
	}
	return cs.Close()
}

// checkLayout refuses a file created in the other page layout. The catalog
// meta page is physical page 0 of a file created without checksums, and
// page 1 of one created with them (page 0 is the first sidecar checksum
// page). It reads both raw and writes nothing. A file whose meta page is in
// neither place (empty, or damaged) is left to Open's own checks.
func checkLayout(s pagestore.Store, path string, checksums bool) error {
	at, other := pagestore.PageID(0), pagestore.PhysicalPage(0)
	if checksums {
		at, other = other, at
	}
	isMeta := func(id pagestore.PageID) (bool, error) {
		if id >= s.NumPages() {
			return false, nil
		}
		buf := make([]byte, pagestore.PageSize)
		if err := s.ReadPage(id, buf); err != nil {
			return false, err
		}
		return catalog.IsMetaPage(buf), nil
	}
	here, err := isMeta(at)
	if err != nil || here {
		return err
	}
	there, err := isMeta(other)
	if err != nil || !there {
		return err
	}
	if checksums {
		return fmt.Errorf("%w: %s was created without checksums", ErrLayout, path)
	}
	return fmt.Errorf("%w: %s was created with checksums", ErrLayout, path)
}

// Open opens a database. An empty path opens a fresh in-memory store;
// otherwise the file at path is opened, creating it if needed. Behavior is
// adjusted by functional options: WithWAL enables logging and crash
// recovery, WithChecksums enables torn-page detection, WithPoolPages and
// WithLockTimeout size the engine.
//
//	db, err := rx.Open("")                                // in-memory
//	db, err := rx.Open("data.rxdb")                       // file-backed
//	db, err := rx.Open("data.rxdb", rx.WithWAL("d.wal"),  // logged + recovery
//	    rx.WithPoolPages(1<<16))
func Open(path string, opts ...Option) (*DB, error) {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	var store pagestore.Store
	if path == "" {
		store = pagestore.NewMemStore()
	} else {
		s, err := pagestore.OpenFile(path)
		if err != nil {
			return nil, err
		}
		if err := checkLayout(s, path, cfg.checksums); err != nil {
			s.Close()
			return nil, err
		}
		store = s
	}
	if cfg.checksums {
		cs := pagestore.NewChecksumStore(store)
		if err := cs.CheckVersion(); err != nil {
			store.Close()
			if errors.Is(err, pagestore.ErrSidecarVersion) {
				err = fmt.Errorf("%w: %s: %w", ErrLayout, path, err)
			}
			return nil, err
		}
		store = cs
	}
	if err := core.CheckFormat(store); err != nil {
		store.Close()
		return nil, fmt.Errorf("%w: %s: %w", ErrLayout, path, err)
	}
	if cfg.spaceWatch && path != "" {
		cfg.core.SpaceWatch.Probe = core.DiskFreeProbe(path)
	}
	var cdb *core.DB
	var dev wal.Device
	var err error
	if cfg.walPath == "" {
		cdb, err = core.Open(store, cfg.core)
	} else {
		cdb, dev, err = recoverFrom(store, cfg)
	}
	if err != nil {
		store.Close()
		return nil, err
	}
	return &DB{DB: cdb, sess: session.New(cdb), dev: dev}, nil
}

// recoverFrom opens the log file cfg names and recovers the engine over
// store from it. On failure it closes the log file; the caller closes store.
func recoverFrom(store pagestore.Store, cfg openConfig) (*core.DB, wal.Device, error) {
	dev, err := wal.OpenFileDevice(cfg.walPath)
	if err != nil {
		return nil, nil, err
	}
	var wopts []wal.Option
	if cfg.groupDelay > 0 {
		wopts = append(wopts, wal.WithGroupCommit(cfg.groupDelay))
	}
	log, err := wal.Open(dev, wopts...)
	if err == nil {
		cfg.core.WAL = log
		var cdb *core.DB
		if cdb, err = core.Recover(store, log, cfg.core); err == nil {
			return cdb, dev, nil
		}
	}
	dev.Close()
	return nil, nil, err
}
