package core

// The query executor and streaming cursor. Every §4.3 access method is one
// recipe (plan.go) whose sorted candidate keys (exec.go) — documents,
// subtrees or exact result nodes — are visited by candidateRun.visit, the
// one per-candidate step. Candidates are independent (each worker owns a
// compiled QuickXScan evaluator and the storage read path is
// concurrency-safe), so the list is partitioned dynamically across a worker
// pool and per-candidate result batches are merged back into key order,
// which is (DocID, NodeID) result order; a serial cursor visits lazily on
// the caller's goroutine instead.

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
	skipped int
}

// batcher yields per-candidate result batches in key order. ok=false
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
func (cu *Cursor) Skipped() int { return cu.skipped }

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
}

// newCursor builds the cursor that visits a plan's candidate keys, either
// lazily on the caller's goroutine (serial) or via a worker pool.
func (c *Collection) newCursor(plan *Plan, list *keyList, opts QueryOptions) (*Cursor, error) {
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}
	n := len(list.keys)
	if par > n {
		par = n
	}
	cu := &Cursor{plan: plan, limit: opts.Limit}
	if n == 0 {
		return cu, nil
	}
	run := &candidateRun{col: c, list: list, exact: plan.recipe.exact, values: opts.NeedValues,
		degraded: opts.Degraded, skipped: &cu.skipped}
	eopts := quickxscan.Options{NeedValues: opts.NeedValues}
	if par <= 1 {
		e, err := quickxscan.Compile(plan.q, c.db.cat, nil, eopts)
		if err != nil {
			return nil, err
		}
		cu.src = &serialSource{run: run, eval: e, ctx: opts.context(), mem: opts.Mem}
		return cu, nil
	}
	plan.Parallelism = par
	evals := make([]*quickxscan.Eval, par)
	for i := range evals {
		e, err := quickxscan.Compile(plan.q, c.db.cat, nil, eopts)
		if err != nil {
			return nil, err
		}
		evals[i] = e
	}
	ctx, cancel := context.WithCancel(opts.context())
	s := &parallelSource{
		run:    run,
		ctx:    ctx,
		cancel: cancel,
		// Buffered to the candidate count so workers never block on send:
		// an early Close only has to cancel and wait, never drain.
		ch:      make(chan keyBatch, n),
		pending: make(map[int]keyBatch),
		mem:     opts.Mem,
	}
	var next atomic.Int64
	s.wg.Add(par)
	for _, e := range evals {
		go func(e *quickxscan.Eval) {
			defer s.wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || s.ctx.Err() != nil {
					return
				}
				res, skip, err := run.visit(i, e)
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
				s.ch <- keyBatch{idx: i, res: res, skip: skip, err: err, bytes: n}
			}
		}(e)
	}
	cu.src = s
	return cu, nil
}

// candidateRun is what a cursor's source needs to visit its candidates: the
// keys, what to do with each, and where skips are counted.
type candidateRun struct {
	col      *Collection
	list     *keyList
	exact    bool // a key is a result node to emit, not a document or subtree to evaluate
	values   bool
	degraded bool
	skipped  *int      // the cursor's count, kept by the consumer (noteSkip)
	lastSkip xml.DocID // the document skipped last
}

// visit runs candidate i — evaluates its document (level-0 key) or its
// subtree, or, for an exact plan, emits the key itself with its string value
// when wanted — applying the quarantine policy: a quarantined document is
// skipped (Degraded) or fails the cursor with a typed ErrQuarantined; a
// checksum failure during the read first quarantines the document —
// detection-on-read feeds the same registry the scrubber fills — then
// applies the same policy. A document deleted since it was listed as a
// candidate yields no results (deletedUnder).
func (r *candidateRun) visit(i int, e *quickxscan.Eval) (res []Result, skipped bool, err error) {
	c, k := r.col, r.list.keys[i]
	node := r.list.node(k)
	if q, ok := c.db.quarantined(c.meta.Name, k.doc); ok {
		if r.degraded {
			return nil, true, nil
		}
		return nil, false, q.err()
	}
	var matches []quickxscan.Match
	switch {
	case !r.exact && len(node) > 0:
		matches, err = c.evalSubtree(k.doc, node, e)
	case !r.exact:
		matches, err = c.evalStored(k.doc, e)
	case r.values:
		var v []byte
		v, err = c.NodeString(k.doc, node)
		matches = []quickxscan.Match{{ID: node, Value: v}}
	default:
		matches = []quickxscan.Match{{ID: node}}
	}
	if err != nil {
		var pe pagestore.ErrPageChecksum
		if errors.As(err, &pe) {
			c.db.Quarantine(c.meta.Name, k.doc,
				fmt.Sprintf("page %d failed checksum during query", pe.PageID), pe.PageID)
			if r.degraded {
				return nil, true, nil
			}
			return nil, false, fmt.Errorf("%w", ErrQuarantined{
				Col: c.meta.Name, Doc: k.doc,
				Reason: fmt.Sprintf("page %d failed checksum during query", pe.PageID),
			})
		}
		if c.deletedUnder(k.doc, err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	if len(matches) == 0 {
		return nil, false, nil
	}
	res = make([]Result, len(matches))
	for j, m := range matches {
		res[j] = Result{Doc: k.doc, Node: m.ID, Value: m.Value}
	}
	return res, false, nil
}

// noteSkip counts skipped candidate i's document, once: the consumer sees
// candidates in key order, where a document's keys are adjacent.
func (r *candidateRun) noteSkip(i int) {
	doc := r.list.keys[i].doc
	if *r.skipped == 0 || doc != r.lastSkip {
		*r.skipped++
	}
	r.lastSkip = doc
}

// err converts a registry entry into the typed error queries surface.
func (q QuarantineEntry) err() error {
	return fmt.Errorf("%w", ErrQuarantined{Col: q.Col, Doc: q.Doc, Reason: q.Reason})
}

// serialSource visits one candidate per nextBatch call on the caller's
// goroutine — fully lazy, no background work.
type serialSource struct {
	run  *candidateRun
	eval *quickxscan.Eval
	pos  int
	ctx  context.Context
	mem  *memgov.Budget
	held int64 // bytes reserved for the batch currently out with the cursor
}

func (s *serialSource) nextBatch() ([]Result, bool, error) {
	// The previous batch has been fully consumed by the cursor.
	s.mem.Release(s.held)
	s.held = 0
	for s.pos < len(s.run.list.keys) {
		if err := s.ctx.Err(); err != nil {
			return nil, false, err
		}
		i := s.pos
		s.pos++
		rs, skip, err := s.run.visit(i, s.eval)
		if err != nil {
			return nil, false, err
		}
		if skip {
			s.run.noteSkip(i)
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

// keyBatch is one candidate's results, tagged with its position in the
// candidate order and the budget bytes reserved for it.
type keyBatch struct {
	idx   int
	res   []Result
	skip  bool
	err   error
	bytes int64
}

// parallelSource merges worker output back into key order: batches
// arriving early are parked in pending until their turn. Budget
// reservations travel with the batches — made by the producing worker,
// released when the consumer hands the batch to the cursor's successor call
// or when the source closes.
type parallelSource struct {
	run     *candidateRun
	ctx     context.Context
	cancel  context.CancelFunc
	ch      chan keyBatch
	wg      sync.WaitGroup
	next    int
	pending map[int]keyBatch
	mem     *memgov.Budget
	held    int64 // bytes reserved for the batch currently out with the cursor
}

func (s *parallelSource) nextBatch() ([]Result, bool, error) {
	// The previous batch has been fully consumed by the cursor.
	s.mem.Release(s.held)
	s.held = 0
	for {
		if s.next >= len(s.run.list.keys) {
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
		if b.skip {
			s.run.noteSkip(b.idx)
			continue
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
