// Package core is the System R/X engine: it assembles the relational
// substrate (heap table spaces, B+tree index manager, buffer pool, catalog)
// and the native XML services (token-stream parsing, tree packing, NodeID
// index, XPath value indexes, QuickXScan) into the architecture of Figures
// 1 and 2.
//
// Each collection is a base table with an implicit DocID column and one XML
// column; the XML column's data lives in an internal XML table of
// (DocID, minNodeID, XMLData) rows; a DocID index maps documents to base
// rows, a NodeID index maps logical node IDs to physical records, and any
// number of XPath value indexes map typed node values to (DocID, NodeID,
// RID) positions.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rx/internal/btree"
	"rx/internal/buffer"
	"rx/internal/catalog"
	"rx/internal/lock"
	"rx/internal/memgov"
	"rx/internal/nodeindex"
	"rx/internal/pagestore"
	"rx/internal/rxerr"
	"rx/internal/wal"
	"rx/internal/xml"
	"rx/internal/xmlschema"
)

// Options configure an engine instance.
type Options struct {
	// PoolPages is the buffer pool capacity in pages (default 4096 = 32 MiB).
	PoolPages int
	// LockTimeoutMillis bounds lock waits (default 2000).
	LockTimeoutMillis int
	// WAL, when set, enables write-ahead logging: every page mutation is
	// logged physically and transactions log logical undo records.
	WAL *wal.Log
	// MemBudget caps the engine-wide working memory charged by queries,
	// sessions, and bulk loads, in bytes (0 = unlimited, account only).
	// Breaches fail the offending request with rxerr.ErrOverBudget.
	MemBudget int64

	// Background maintenance (maintain.go): one goroutine runs every duty
	// configured below; the zero value of each leaves its duty off.

	// SpaceWatch configures the free-space watchdog (on when Probe is set).
	SpaceWatch SpaceWatchOptions
	// ScrubInterval is the interval between integrity scrub passes, each
	// throttled to about ScrubRate page/record reads per second (0 =
	// unthrottled) so it does not starve foreground queries.
	ScrubInterval time.Duration
	ScrubRate     int
}

// DB is an open database.
type DB struct {
	store pagestore.Store
	pool  *buffer.Pool
	cat   *catalog.Catalog
	locks *lock.Manager
	log   *wal.Log
	mem   *memgov.Budget

	mu      sync.Mutex
	cols    map[string]*Collection
	schemas map[string]*xmlschema.Schema
	maint   *maintainer // nil when no maintenance duty is configured

	// Degraded read-only mode (see degraded.go): set when the device fills
	// up, cleared when the free-space watchdog recovers the engine.
	degraded  atomic.Bool
	degMu     sync.Mutex
	degReason string
	compDebt  []logicalOp       // unresolved undo work, replayed before leaving degraded mode
	spaceFree atomic.Int64      // last watchdog probe (-1 = never probed)
	watch     SpaceWatchOptions // the watchdog's configuration, fixed at open

	quarantine quarantineSet
	stats      dbStats

	// txnSeq is the last transaction ID handed out. With a log it starts at
	// the log's largest ID, so no ID repeats across restarts.
	txnSeq atomic.Uint64
}

// Open opens (bootstrapping if empty) a database over the given store and
// starts its maintenance loop.
func Open(store pagestore.Store, opts Options) (*DB, error) {
	db, err := open(store, opts)
	if err != nil {
		return nil, err
	}
	db.startMaintenance(opts)
	return db, nil
}

// open is Open without the maintenance loop, which Recover starts only
// once recovery has finished.
func open(store pagestore.Store, opts Options) (*DB, error) {
	if err := opts.SpaceWatch.check(); err != nil {
		return nil, err
	}
	if opts.PoolPages <= 0 {
		opts.PoolPages = 4096
	}
	if opts.LockTimeoutMillis <= 0 {
		opts.LockTimeoutMillis = 2000
	}
	pool := buffer.New(store, opts.PoolPages)
	if opts.WAL != nil {
		pool.SetLogger(opts.WAL)
		pool.SetFlushLSN(opts.WAL.Flush)
	}
	var cat *catalog.Catalog
	var err error
	if store.NumPages() == 0 {
		cat, err = catalog.Bootstrap(pool)
	} else {
		cat, err = catalog.Open(pool)
	}
	if err != nil {
		return nil, err
	}
	db := &DB{
		store: store,
		pool:  pool,
		cat:   cat,
		locks: lock.NewManager(opts.LockTimeoutMillis),
		log:   opts.WAL,
		mem:   memgov.New("server", opts.MemBudget),
		cols:  map[string]*Collection{},
		watch: opts.SpaceWatch,
	}
	db.spaceFree.Store(-1)
	if opts.WAL != nil {
		db.txnSeq.Store(opts.WAL.MaxTxn())
	}
	return db, nil
}

// CheckFormat returns btree.ErrFormat when an index tree that store's
// catalog names was written in an older page format. It reads through a
// small pool of its own and writes nothing, so a caller can refuse the file
// before recovery or anything else writes to it. A store without a readable
// catalog, or a tree whose meta page cannot be read, is left to Open.
func CheckFormat(store pagestore.Store) error {
	if store.NumPages() == 0 {
		return nil
	}
	pool := buffer.New(store, 8)
	cat, err := catalog.Open(pool)
	if err != nil {
		return nil
	}
	for _, name := range cat.Collections() {
		m := cat.GetCollection(name)
		metas := []pagestore.PageID{m.DocIDIndex, m.NodeIDIndex}
		for _, im := range m.Indexes {
			metas = append(metas, im.Meta)
		}
		for _, pg := range metas {
			if _, err := btree.Open(pool, pg); errors.Is(err, btree.ErrFormat) {
				return fmt.Errorf("collection %q: %w", name, err)
			}
		}
	}
	return nil
}

// OpenMemory opens a fresh in-memory database.
func OpenMemory() (*DB, error) {
	return Open(pagestore.NewMemStore(), Options{})
}

// Catalog exposes the catalog (name dictionary, schema registry).
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Pool exposes the buffer pool (stats).
func (db *DB) Pool() *buffer.Pool { return db.pool }

// Names returns the database-wide name dictionary.
func (db *DB) Names() xml.Names { return db.cat }

// MemBudget returns the engine-wide memory budget root. Sessions and
// queries derive children from it so one global cap governs every
// allocation site (never nil; an unlimited root only accounts).
func (db *DB) MemBudget() *memgov.Budget { return db.mem }

// Flush writes all dirty pages to the store and syncs it.
func (db *DB) Flush() error { return db.pool.FlushAll() }

// VerifyPages flushes dirty pages and then reads back every page of the
// store, returning the first read failure. Over a checksum-enabled store
// this is a full scrub: any page damaged by a torn write or bit rot is
// reported as an ErrPageChecksum rather than waiting to be tripped over.
func (db *DB) VerifyPages() error {
	n, errs, err := db.ScanPages(nil)
	if err != nil || len(errs) == 0 {
		return err
	}
	return fmt.Errorf("core: verify page %d of %d: %w", errs[0].Page, n, errs[0].Err)
}

// Close stops the maintenance loop, flushes, and closes the underlying
// store.
func (db *DB) Close() error {
	db.mu.Lock()
	m := db.maint
	db.maint = nil
	db.mu.Unlock()
	if m != nil {
		close(m.stop)
		<-m.done // the duty in flight
	}
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	return db.store.Close()
}

// CollectionOptions configure a new collection.
type CollectionOptions struct {
	// PackThreshold is the record-size target for tree packing (0 =
	// pack.DefaultThreshold). It is the packing-factor knob of the §3.1
	// storage analysis.
	PackThreshold int
	// Versioned enables document-level multiversioning (§5.1).
	Versioned bool
}

// CreateCollection creates a collection: base table, internal XML table,
// DocID index and NodeID index (Figure 2).
func (db *DB) CreateCollection(name string, opts CollectionOptions) (_ *Collection, err error) {
	defer func() { db.noteWriteErr(err) }()
	if err := db.checkWritable(); err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.cat.GetCollection(name) != nil {
		return nil, fmt.Errorf("core: collection %q already exists", name)
	}
	col, err := createCollection(db, name, opts)
	if err != nil {
		return nil, err
	}
	db.cols[name] = col
	return col, nil
}

// Collection opens an existing collection.
func (db *DB) Collection(name string) (*Collection, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if c, ok := db.cols[name]; ok {
		return c, nil
	}
	meta := db.cat.GetCollection(name)
	if meta == nil {
		return nil, fmt.Errorf("core: no collection %q: %w", name, ErrNotFound)
	}
	col, err := openCollection(db, meta)
	if err != nil {
		return nil, err
	}
	db.cols[name] = col
	return col, nil
}

// Collections lists collection names.
func (db *DB) Collections() []string { return db.cat.Collections() }

// ErrNotFound reports a missing document or node. It is the taxonomy
// sentinel rxerr.ErrNotFound, so errors.Is matches it across the engine,
// the facade, and the wire protocol alike.
var ErrNotFound = rxerr.ErrNotFound

// lookupErr maps an index miss onto ErrNotFound while letting every other
// failure through unchanged: an I/O error or checksum mismatch during a
// lookup must surface as such, never masquerade as "does not exist".
func lookupErr(err error, what string) error {
	if errors.Is(err, btree.ErrNotFound) || errors.Is(err, nodeindex.ErrNotFound) || errors.Is(err, ErrNotFound) {
		return fmt.Errorf("%w: %s", ErrNotFound, what)
	}
	return err
}

// RegisterSchema compiles an XML schema document to the binary format and
// stores it in the catalog under name (Figure 4's registration path).
func (db *DB) RegisterSchema(name string, schemaDoc []byte) (err error) {
	defer func() { db.noteWriteErr(err) }()
	if err := db.checkWritable(); err != nil {
		return err
	}
	sch, err := xmlschema.Compile(schemaDoc)
	if err != nil {
		return err
	}
	if err := db.cat.RegisterSchema(name, sch.Encode()); err != nil {
		return err
	}
	db.mu.Lock()
	if db.schemas == nil {
		db.schemas = map[string]*xmlschema.Schema{}
	}
	db.schemas[name] = sch
	db.mu.Unlock()
	return nil
}

// compiledSchema loads (and caches) a registered schema's compiled form.
func (db *DB) compiledSchema(name string) (*xmlschema.Schema, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if s, ok := db.schemas[name]; ok {
		return s, nil
	}
	bin := db.cat.GetSchema(name)
	if bin == nil {
		return nil, fmt.Errorf("core: no schema %q registered", name)
	}
	s, err := xmlschema.Decode(bin)
	if err != nil {
		return nil, err
	}
	if db.schemas == nil {
		db.schemas = map[string]*xmlschema.Schema{}
	}
	db.schemas[name] = s
	return s, nil
}

// Locks exposes the lock manager (experiments, tests).
func (db *DB) Locks() *lock.Manager { return db.locks }
