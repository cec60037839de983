package core

// The parallel query executor and streaming cursor. The §4.3 access methods
// that re-evaluate candidate documents (relation scan, DocID-list
// filtering) are embarrassingly parallel: per-document evaluation is
// independent (each worker owns a compiled QuickXScan evaluator and the
// storage read path is concurrency-safe), so the candidate set is
// partitioned dynamically across a worker pool and per-document result
// batches are merged back into document order. Index-only access paths
// (exact NodeID lists, NodeID filtering) stay serial — they are already
// narrowed by the index — and the cursor just iterates their materialized
// results.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rx/internal/memgov"
	"rx/internal/pagestore"
	"rx/internal/quickxscan"
	"rx/internal/xml"
	"rx/internal/xpath"
)

// resultsBytes estimates the working-set bytes a result batch pins: the
// slice headers plus node-ID and value payloads. This is the quantity
// charged against QueryOptions.Mem while the batch sits buffered (parked in
// a parallel source or handed to the cursor) — the real allocation the
// memory budget governs.
func resultsBytes(res []Result) int64 {
	n := int64(0)
	for i := range res {
		n += 48 + int64(len(res[i].Node)) + int64(len(res[i].Value))
	}
	return n
}

// Cursor streams query results in (DocID, NodeID) order without
// materializing the full result set. Usage:
//
//	cur, err := col.Cursor("/a/b", core.QueryOptions{})
//	if err != nil { ... }
//	defer cur.Close()
//	for cur.Next() {
//		r := cur.Result()
//		...
//	}
//	if err := cur.Err(); err != nil { ... }
//
// A Cursor is not safe for concurrent use. Close is idempotent, stops any
// background workers, and must be called even after Next returned false.
type Cursor struct {
	plan   *Plan
	limit  int
	count  int
	cur    Result
	err    error
	closed bool

	src     batcher
	batch   []Result
	bpos    int
	skipped atomic.Int64

	// mem/memHeld hold a budget reservation for results materialized up
	// front (index-only access paths), released when the cursor stops.
	mem     *memgov.Budget
	memHeld int64
}

// batcher yields per-document result batches in document order. ok=false
// with a nil error means the source is exhausted.
type batcher interface {
	nextBatch() (batch []Result, ok bool, err error)
	close()
}

// Next advances to the next result, returning false at the end of the
// result set, on error, after the Limit is reached, or after Close.
func (cu *Cursor) Next() bool {
	if cu.closed || cu.err != nil {
		return false
	}
	if cu.limit > 0 && cu.count >= cu.limit {
		cu.stop()
		return false
	}
	for {
		if cu.bpos < len(cu.batch) {
			cu.cur = cu.batch[cu.bpos]
			cu.bpos++
			cu.count++
			return true
		}
		if cu.src == nil {
			return false
		}
		batch, ok, err := cu.src.nextBatch()
		if err != nil {
			cu.err = err
			cu.stop()
			return false
		}
		if !ok {
			cu.stop()
			return false
		}
		cu.batch, cu.bpos = batch, 0
	}
}

// Result returns the match Next advanced to. Only valid after Next returned
// true.
func (cu *Cursor) Result() Result { return cu.cur }

// Err returns the error that terminated iteration, or nil if the cursor
// was exhausted, limited, or closed early.
func (cu *Cursor) Err() error { return cu.err }

// Plan reports the access method the query used (valid immediately after
// cursor creation).
func (cu *Cursor) Plan() *Plan { return cu.plan }

// Skipped reports how many quarantined documents a Degraded cursor skipped
// so far. Always 0 without QueryOptions.Degraded.
func (cu *Cursor) Skipped() int { return int(cu.skipped.Load()) }

// Close releases the cursor, cancelling and waiting out any background
// workers. It is safe to call multiple times.
func (cu *Cursor) Close() error {
	cu.stop()
	return nil
}

func (cu *Cursor) stop() {
	if cu.closed {
		return
	}
	cu.closed = true
	cu.batch, cu.bpos = nil, 0
	if cu.src != nil {
		cu.src.close()
		cu.src = nil
	}
	cu.mem.Release(cu.memHeld)
	cu.memHeld = 0
}

// newSliceCursor wraps already-materialized results (index-only access).
// The whole result set sits in memory for the cursor's lifetime, so it is
// charged against the budget in one piece.
func newSliceCursor(results []Result, plan *Plan, opts QueryOptions) (*Cursor, error) {
	n := resultsBytes(results)
	if err := opts.Mem.Reserve(n); err != nil {
		return nil, err
	}
	return &Cursor{plan: plan, limit: opts.Limit, batch: results,
		mem: opts.Mem, memHeld: n}, nil
}

// newDocCursor builds a cursor that evaluates the query over docs, either
// lazily on the caller's goroutine (serial) or via a worker pool.
func (c *Collection) newDocCursor(q *xpath.Query, docs []xml.DocID, plan *Plan, opts QueryOptions) (*Cursor, error) {
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}
	if par > len(docs) {
		par = len(docs)
	}
	cu := &Cursor{plan: plan, limit: opts.Limit}
	if len(docs) == 0 {
		return cu, nil
	}
	eopts := quickxscan.Options{NeedValues: opts.NeedValues}
	if par <= 1 {
		e, err := quickxscan.Compile(q, c.db.cat, nil, eopts)
		if err != nil {
			return nil, err
		}
		cu.src = &serialSource{col: c, eval: e, docs: docs, ctx: opts.context(),
			degraded: opts.Degraded, skipped: &cu.skipped, mem: opts.Mem}
		return cu, nil
	}
	plan.Parallelism = par
	evals := make([]*quickxscan.Eval, par)
	for i := range evals {
		e, err := quickxscan.Compile(q, c.db.cat, nil, eopts)
		if err != nil {
			return nil, err
		}
		evals[i] = e
	}
	ctx, cancel := context.WithCancel(opts.context())
	s := &parallelSource{
		ctx:    ctx,
		cancel: cancel,
		// Buffered to the document count so workers never block on send:
		// an early Close only has to cancel and wait, never drain.
		ch:      make(chan docBatch, len(docs)),
		total:   len(docs),
		pending: make(map[int]docBatch),
		mem:     opts.Mem,
	}
	var next atomic.Int64
	s.wg.Add(par)
	for _, e := range evals {
		go func(e *quickxscan.Eval) {
			defer s.wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(docs) || s.ctx.Err() != nil {
					return
				}
				doc := docs[i]
				res, skip, err := c.evalCursorDoc(doc, e, opts.Degraded)
				if skip {
					cu.skipped.Add(1)
				}
				// The channel buffer is where results accumulate ahead of the
				// consumer, so this is where the memory budget is charged; the
				// reservation travels with the batch and is released when the
				// consumer hands it on (or the source closes).
				var n int64
				if err == nil {
					if n = resultsBytes(res); n > 0 {
						if rerr := opts.Mem.Reserve(n); rerr != nil {
							res, err, n = nil, rerr, 0
						}
					}
				}
				s.ch <- docBatch{idx: i, res: res, err: err, bytes: n}
			}
		}(e)
	}
	cu.src = s
	return cu, nil
}

// evalCursorDoc evaluates one candidate document for a cursor, applying the
// quarantine policy: a quarantined document is skipped (Degraded) or fails
// the cursor with a typed ErrQuarantined; a checksum failure during
// evaluation first quarantines the document — detection-on-read feeds the
// same registry the scrubber fills — then applies the same policy. A document
// deleted since it was listed as a candidate yields no results (deletedUnder).
func (c *Collection) evalCursorDoc(doc xml.DocID, e *quickxscan.Eval, degraded bool) (res []Result, skipped bool, err error) {
	if q, ok := c.db.quarantined(c.meta.Name, doc); ok {
		if degraded {
			return nil, true, nil
		}
		return nil, false, q.err()
	}
	matches, err := c.evalStored(doc, e)
	if err != nil {
		var pe pagestore.ErrPageChecksum
		if errors.As(err, &pe) {
			c.db.Quarantine(c.meta.Name, doc,
				fmt.Sprintf("page %d failed checksum during query", pe.PageID), pe.PageID)
			if degraded {
				return nil, true, nil
			}
			return nil, false, fmt.Errorf("%w", ErrQuarantined{
				Col: c.meta.Name, Doc: doc,
				Reason: fmt.Sprintf("page %d failed checksum during query", pe.PageID),
			})
		}
		if c.deletedUnder(doc, err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	if len(matches) == 0 {
		return nil, false, nil
	}
	res = make([]Result, len(matches))
	for j, m := range matches {
		res[j] = Result{Doc: doc, Node: m.ID, Value: m.Value}
	}
	return res, false, nil
}

// err converts a registry entry into the typed error queries surface.
func (q QuarantineEntry) err() error {
	return fmt.Errorf("%w", ErrQuarantined{Col: q.Col, Doc: q.Doc, Reason: q.Reason})
}

// serialSource evaluates one document per nextBatch call on the caller's
// goroutine — fully lazy, no background work.
type serialSource struct {
	col      *Collection
	eval     *quickxscan.Eval
	docs     []xml.DocID
	pos      int
	ctx      context.Context
	degraded bool
	skipped  *atomic.Int64
	mem      *memgov.Budget
	held     int64 // bytes reserved for the batch currently out with the cursor
}

func (s *serialSource) nextBatch() ([]Result, bool, error) {
	// The previous batch has been fully consumed by the cursor.
	s.mem.Release(s.held)
	s.held = 0
	for s.pos < len(s.docs) {
		if err := s.ctx.Err(); err != nil {
			return nil, false, err
		}
		doc := s.docs[s.pos]
		s.pos++
		rs, skip, err := s.col.evalCursorDoc(doc, s.eval, s.degraded)
		if err != nil {
			return nil, false, err
		}
		if skip {
			s.skipped.Add(1)
			continue
		}
		if len(rs) == 0 {
			continue
		}
		if n := resultsBytes(rs); n > 0 {
			if err := s.mem.Reserve(n); err != nil {
				return nil, false, err
			}
			s.held = n
		}
		return rs, true, nil
	}
	return nil, false, nil
}

func (s *serialSource) close() {
	s.mem.Release(s.held)
	s.held = 0
}

// docBatch is one document's results, tagged with its position in the
// candidate order and the budget bytes reserved for it.
type docBatch struct {
	idx   int
	res   []Result
	err   error
	bytes int64
}

// parallelSource merges worker output back into document order: batches
// arriving early are parked in pending until their turn. Budget
// reservations travel with the batches — made by the producing worker,
// released when the consumer hands the batch to the cursor's successor call
// or when the source closes.
type parallelSource struct {
	ctx     context.Context
	cancel  context.CancelFunc
	ch      chan docBatch
	wg      sync.WaitGroup
	next    int
	total   int
	pending map[int]docBatch
	mem     *memgov.Budget
	held    int64 // bytes reserved for the batch currently out with the cursor
}

func (s *parallelSource) nextBatch() ([]Result, bool, error) {
	// The previous batch has been fully consumed by the cursor.
	s.mem.Release(s.held)
	s.held = 0
	for {
		if s.next >= s.total {
			return nil, false, nil
		}
		b, ok := s.pending[s.next]
		if ok {
			delete(s.pending, s.next)
		} else {
			select {
			case b = <-s.ch:
			case <-s.ctx.Done():
				return nil, false, s.ctx.Err()
			}
			if b.idx != s.next {
				s.pending[b.idx] = b
				continue
			}
		}
		s.next++
		if b.err != nil {
			return nil, false, b.err
		}
		if len(b.res) == 0 {
			continue
		}
		s.held = b.bytes
		return b.res, true, nil
	}
}

func (s *parallelSource) close() {
	s.cancel()
	s.wg.Wait()
	// Workers are gone; return every reservation still travelling with an
	// unconsumed batch (channel buffer, parked in pending, or out with the
	// cursor).
	for {
		select {
		case b := <-s.ch:
			s.mem.Release(b.bytes)
			continue
		default:
		}
		break
	}
	for _, b := range s.pending {
		s.mem.Release(b.bytes)
	}
	s.pending = nil
	s.mem.Release(s.held)
	s.held = 0
}
