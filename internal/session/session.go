// Package session is the layer between the engine (internal/core) and any
// caller surface — the embedded rx facade, the rxserver wire protocol, and
// the Go client all speak the same session API. A Session owns the state
// that is per-caller rather than per-engine: the open transaction (if any),
// the default QueryOptions, and collection addressing by name. Every method
// is context-first; collection handles never cross the boundary, so the same
// interface serves a remote connection where only names travel the wire.
package session

import (
	"bytes"
	"context"
	"errors"
	"sync"

	"rx/internal/core"
	"rx/internal/memgov"
	"rx/internal/xml"
)

// API is the sessioned database surface. It is implemented by *Session
// (embedded, direct engine calls) and by the client package's *client.DB
// (remote, each call a wire round-trip), so programs written against it run
// unchanged in-process or over the network.
//
// A session is a unit of transaction scope, not of concurrency: methods on a
// session with no open transaction are safe to call from multiple goroutines,
// but once Begin succeeds the session's transaction has no internal
// synchronization, so the session must be used by one goroutine at a time
// until Commit/Rollback. Concurrent transactional work wants one session (or
// connection) per worker — exactly how the server maps connections.
type API interface {
	// CreateCollection creates a collection.
	CreateCollection(ctx context.Context, name string) error
	// Collections lists collection names.
	Collections(ctx context.Context) ([]string, error)
	// DocIDs lists the documents of a collection.
	DocIDs(ctx context.Context, col string) ([]xml.DocID, error)
	// CreateValueIndex creates an XPath value index on a collection.
	CreateValueIndex(ctx context.Context, col, name, path string, typ xml.TypeID) error
	// Insert stores one document and returns its DocID. Outside a
	// transaction it autocommits; inside, it joins the open transaction.
	Insert(ctx context.Context, col string, doc []byte) (xml.DocID, error)
	// InsertBatch stores many documents as one atomic batch.
	InsertBatch(ctx context.Context, col string, docs [][]byte) ([]xml.DocID, error)
	// Delete removes a document.
	Delete(ctx context.Context, col string, doc xml.DocID) error
	// Get serializes a document back to XML.
	Get(ctx context.Context, col string, doc xml.DocID) ([]byte, error)
	// Query evaluates an XPath query and streams its results through a
	// cursor. The context cancels the query between documents — for a remote
	// session, end to end: cancelling stops the server-side cursor too.
	Query(ctx context.Context, col, expr string, opts ...QueryOption) (Cursor, error)
	// Explain plans a query without executing it: the chosen access method,
	// the indexes in probe order, the cardinality/cost estimates, and every
	// alternative the planner priced.
	Explain(ctx context.Context, col, expr string, opts ...QueryOption) (*core.Plan, error)
	// Begin opens a transaction on the session. Exactly one transaction may
	// be open per session.
	Begin(ctx context.Context) error
	// Commit makes the session's open transaction durable.
	Commit(ctx context.Context) error
	// Rollback undoes the session's open transaction.
	Rollback(ctx context.Context) error
	// Close releases the session, rolling back any open transaction.
	Close() error
}

// Cursor streams query results. *core.Cursor satisfies it directly; the
// client package's cursor fetches batches over the wire behind the same
// interface.
type Cursor interface {
	Next() bool
	Result() core.Result
	Err() error
	Plan() *core.Plan
	Skipped() int
	Close() error
}

var _ Cursor = (*core.Cursor)(nil)

// QueryOption tunes one query execution.
type QueryOption func(*core.QueryOptions)

// Limit stops the query after n results.
func Limit(n int) QueryOption {
	return func(o *core.QueryOptions) { o.Limit = n }
}

// Parallelism sets the workers visiting a query's candidates, the caller's
// goroutine included (0 = the engine decides from the candidates' priced
// work, at most GOMAXPROCS; 1 forces serial execution).
func Parallelism(n int) QueryOption {
	return func(o *core.QueryOptions) { o.Parallelism = n }
}

// NeedValues includes each result node's string value.
func NeedValues() QueryOption {
	return func(o *core.QueryOptions) { o.NeedValues = true }
}

// Degraded keeps the query running over a partially damaged collection,
// skipping quarantined documents instead of failing.
func Degraded() QueryOption {
	return func(o *core.QueryOptions) { o.Degraded = true }
}

// MemLimit caps this one query's buffered-result memory at n bytes; a
// breach fails the query with rxerr.ErrOverBudget while the session keeps
// serving. 0 leaves only the session/server budgets in force.
func MemLimit(n int64) QueryOption {
	return func(o *core.QueryOptions) { o.MemLimit = n }
}

// ForceMethod bypasses cost-based access-path selection and runs the named
// method ("scan", "nodeid-list", ...). Planning fails if the query does not
// admit it. For differential tests and benchmarks.
func ForceMethod(m string) QueryOption {
	return func(o *core.QueryOptions) { o.ForceMethod = m }
}

// Session errors.
var (
	ErrClosed  = errors.New("session: closed")
	ErrTxnOpen = errors.New("session: a transaction is already open")
	ErrNoTxn   = errors.New("session: no open transaction")
)

// Option configures a new session.
type Option func(*Session)

// WithDefaults sets query options applied to every Query before the
// per-call options.
func WithDefaults(opts ...QueryOption) Option {
	return func(s *Session) {
		for _, o := range opts {
			o(&s.defaults)
		}
	}
}

// WithMemLimit caps the session's total governed memory (buffered query
// results, bulk-load staging) at n bytes. The cap is a child of the
// engine's server-wide budget, so both are enforced; 0 leaves only the
// server budget in force.
func WithMemLimit(n int64) Option {
	return func(s *Session) {
		if n > 0 {
			s.mem = s.db.MemBudget().Child("session", n)
		}
	}
}

// Session is the embedded implementation of API: a thin stateful wrapper
// over a shared *core.DB. Sessions are cheap; open one per logical caller
// (the server opens one per connection).
type Session struct {
	db       *core.DB
	defaults core.QueryOptions
	mem      *memgov.Budget

	mu     sync.Mutex
	txn    *core.Txn
	closed bool
}

// New opens a session over an engine. Governed allocations charge the
// engine's server-wide memory budget; WithMemLimit interposes a session cap.
func New(db *core.DB, opts ...Option) *Session {
	s := &Session{db: db, mem: db.MemBudget()}
	for _, o := range opts {
		o(s)
	}
	return s
}

var _ API = (*Session)(nil)

// guard snapshots the session state a method needs: liveness check plus the
// open transaction (nil outside one).
func (s *Session) guard(ctx context.Context) (*core.Txn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	return s.txn, nil
}

func (s *Session) collection(name string) (*core.Collection, error) {
	return s.db.Collection(name)
}

// CreateCollection creates a collection.
func (s *Session) CreateCollection(ctx context.Context, name string) error {
	if _, err := s.guard(ctx); err != nil {
		return err
	}
	_, err := s.db.CreateCollection(name, core.CollectionOptions{})
	return err
}

// Collections lists collection names.
func (s *Session) Collections(ctx context.Context) ([]string, error) {
	if _, err := s.guard(ctx); err != nil {
		return nil, err
	}
	return s.db.Collections(), nil
}

// DocIDs lists the documents of a collection.
func (s *Session) DocIDs(ctx context.Context, col string) ([]xml.DocID, error) {
	if _, err := s.guard(ctx); err != nil {
		return nil, err
	}
	c, err := s.collection(col)
	if err != nil {
		return nil, err
	}
	return c.DocIDs()
}

// CreateValueIndex creates an XPath value index on a collection.
func (s *Session) CreateValueIndex(ctx context.Context, col, name, path string, typ xml.TypeID) error {
	if _, err := s.guard(ctx); err != nil {
		return err
	}
	c, err := s.collection(col)
	if err != nil {
		return err
	}
	return c.CreateValueIndex(name, path, typ)
}

// Insert stores one document: a batch of one.
func (s *Session) Insert(ctx context.Context, col string, doc []byte) (xml.DocID, error) {
	ids, err := s.InsertBatch(ctx, col, [][]byte{doc})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// InsertBatch stores many documents as one atomic batch through the engine's
// one ingest pipeline (sorted index insertion, undo logged before effects).
// Inside an open transaction it joins it (X document locks, rollback covers
// the batch); outside it runs as its own autocommit transaction with one WAL
// commit, so a server crash can never leave a half-applied insert.
func (s *Session) InsertBatch(ctx context.Context, col string, docs [][]byte) ([]xml.DocID, error) {
	txn, err := s.guard(ctx)
	if err != nil {
		return nil, err
	}
	c, err := s.collection(col)
	if err != nil {
		return nil, err
	}
	opts := core.BatchOptions{Mem: s.mem}
	if txn != nil {
		return txn.InsertBatch(c, docs, opts)
	}
	var ids []xml.DocID
	err = s.db.RunTxn(func(t *core.Txn) (err error) {
		ids, err = t.InsertBatch(c, docs, opts)
		return err
	})
	return ids, err
}

// Delete removes a document.
func (s *Session) Delete(ctx context.Context, col string, doc xml.DocID) error {
	txn, err := s.guard(ctx)
	if err != nil {
		return err
	}
	c, err := s.collection(col)
	if err != nil {
		return err
	}
	if txn != nil {
		return txn.Delete(c, doc)
	}
	return s.db.RunTxn(func(t *core.Txn) error { return t.Delete(c, doc) })
}

// Get serializes a document back to XML. Inside a transaction it reads
// under an S document lock (repeatable read).
func (s *Session) Get(ctx context.Context, col string, doc xml.DocID) ([]byte, error) {
	txn, err := s.guard(ctx)
	if err != nil {
		return nil, err
	}
	c, err := s.collection(col)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if txn != nil {
		err = txn.Serialize(c, doc, &buf)
	} else {
		err = c.Serialize(doc, &buf)
	}
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Query opens a streaming cursor over a plan made for this execution. The
// session's default options apply first, then the per-call options; ctx
// cancels evaluation between documents. Inside a transaction the query
// additionally holds an S collection lock for the transaction's lifetime.
func (s *Session) Query(ctx context.Context, col, expr string, opts ...QueryOption) (Cursor, error) {
	txn, err := s.guard(ctx)
	if err != nil {
		return nil, err
	}
	c, err := s.collection(col)
	if err != nil {
		return nil, err
	}
	qo := s.options(opts)
	qo.Ctx = ctx
	qo.Mem = s.mem
	if txn != nil {
		return txn.Cursor(c, expr, qo)
	}
	return c.Cursor(expr, qo)
}

// Explain plans a query without executing it. Query plans the same way
// from the same live statistics, so with no write in between EXPLAIN shows
// the plan the next Query runs.
func (s *Session) Explain(ctx context.Context, col, expr string, opts ...QueryOption) (*core.Plan, error) {
	if _, err := s.guard(ctx); err != nil {
		return nil, err
	}
	c, err := s.collection(col)
	if err != nil {
		return nil, err
	}
	return c.Plan(expr, s.options(opts))
}

// options applies the session's defaults, then the per-call options.
func (s *Session) options(opts []QueryOption) core.QueryOptions {
	qo := s.defaults
	for _, o := range opts {
		o(&qo)
	}
	return qo
}

// Begin opens a transaction on the session.
func (s *Session) Begin(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.txn != nil {
		return ErrTxnOpen
	}
	s.txn = s.db.Begin()
	return nil
}

// Commit makes the session's open transaction durable.
func (s *Session) Commit(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	txn := s.txn
	s.txn = nil
	s.mu.Unlock()
	if txn == nil {
		return ErrNoTxn
	}
	return txn.Commit()
}

// Rollback undoes the session's open transaction.
func (s *Session) Rollback(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	txn := s.txn
	s.txn = nil
	s.mu.Unlock()
	if txn == nil {
		return ErrNoTxn
	}
	return txn.Rollback()
}

// Mem returns the budget the session's governed allocations charge (the
// engine budget, or the session cap WithMemLimit interposed). The server
// charges result framing against it. Never nil-dereferences: a nil budget
// accounts nothing.
func (s *Session) Mem() *memgov.Budget { return s.mem }

// InTxn reports whether the session has an open transaction.
func (s *Session) InTxn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.txn != nil
}

// Close releases the session. An open transaction is rolled back — the
// server calls this when a connection drops mid-transaction, so a client
// crash can never strand locks or leave uncommitted effects visible.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	txn := s.txn
	s.txn = nil
	s.mu.Unlock()
	if txn != nil {
		return txn.Rollback()
	}
	return nil
}
