package core

// The query executor and streaming cursor. Every §4.3 access method is one
// recipe (plan.go) whose sorted candidate keys (exec.go) — documents,
// subtrees or exact result nodes — are visited by candidateRun.visit, the
// one per-candidate step. Candidates are independent (each worker owns a
// compiled QuickXScan evaluator and the storage read path is
// concurrency-safe), so the caller's goroutine and any helpers claim them
// dynamically from one counter, and per-candidate result batches are merged
// back into key order, which is (DocID, NodeID) result order. Helpers start
// only when the plan's priced work for the candidates pays for them.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"rx/internal/heap"
	"rx/internal/memgov"
	"rx/internal/nodeid"
	"rx/internal/pack"
	"rx/internal/pagestore"
	"rx/internal/quickxscan"
	"rx/internal/xml"
)

// resultsBytes estimates the working-set bytes a result batch pins: the
// slice headers plus node-ID and value payloads. This is the quantity
// charged against QueryOptions.Mem while the batch sits buffered (parked in
// the source or handed to the cursor) — the real allocation the memory
// budget governs.
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
// helper goroutines, and must be called even after Next returned false.
type Cursor struct {
	plan   *Plan
	limit  int
	count  int
	cur    Result
	err    error
	closed bool

	src     *source
	batch   []Result
	bpos    int
	skipped int
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

// Close releases the cursor, cancelling and waiting out any helper
// goroutines. It is safe to call multiple times.
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

// fanOutCost is the priced work, in the planner's cost units, that pays for
// one helper goroutine. Waking a second core, compiling an evaluator and
// handing results back cost about 20 µs on a 2-core x86 container, several
// small candidates' worth. E13's rows set it there: 2 workers beat 1 by
// about a quarter on the gated scan-query, 16 documents priced at 292, and
// lose by 60 % on docid-list over 4 (75), so a lookup-sized query, ten 1 KiB
// documents at about 160, stays on the caller's goroutine. The model prices
// a document by its size, not by how much of it the query decodes: the
// docid-list rows, which step over most of each document, still lose 18 %
// on 2 workers at 16 documents (306), tie at 64 (1216) and win from 256.
const fanOutCost = 250

// workers is how many goroutines visit n candidates, the caller's included:
// par when the caller fixes it, otherwise one more for every fanOutCost of
// the plan's priced work, at most GOMAXPROCS; never more than n.
func (p *Plan) workers(n, par int) int {
	if par <= 0 {
		helpers := float64(n) * p.perCandidate / fanOutCost
		par = 1 + int(math.Min(helpers, float64(runtime.GOMAXPROCS(0)-1)))
	}
	return min(par, n)
}

// newCursor builds the cursor that visits a plan's candidate keys: on the
// caller's goroutine, with helpers when the plan's workers say so.
func (c *Collection) newCursor(plan *Plan, list *keyList, opts QueryOptions) (*Cursor, error) {
	n := len(list.keys)
	cu := &Cursor{plan: plan, limit: opts.Limit}
	if n == 0 {
		return cu, nil
	}
	plan.Parallelism = plan.workers(n, opts.Parallelism)
	workers := make([]*worker, plan.Parallelism)
	for i := range workers {
		e, err := quickxscan.Compile(plan.q, c.db.cat, nil, quickxscan.Options{NeedValues: opts.NeedValues})
		if err != nil {
			return nil, err
		}
		workers[i] = c.newWorker(e)
	}
	s := &source{
		run: &candidateRun{col: c, list: list, exact: plan.recipe.exact, values: opts.NeedValues,
			degraded: opts.Degraded, skipped: &cu.skipped},
		w:   workers[0],
		ctx: opts.context(),
		mem: opts.Mem,
	}
	s.startHelpers(workers[1:])
	cu.src = s
	return cu, nil
}

// worker is one goroutine's state for the candidates it visits, made once
// per cursor and kept across them: its compiled evaluator, its heap borrow
// slot, the root record an anchored read decodes into, the reader of the
// candidate at hand with its proxy resolver bound once, and the slab its
// result batches are cut from.
type worker struct {
	e     *quickxscan.Eval
	heap  *heap.Borrower
	root  pack.Record
	r     docReader
	fetch pack.FetchBorrow // w.borrow
	res   []Result
	one   [1]quickxscan.Match // an exact key's match
}

func (c *Collection) newWorker(e *quickxscan.Eval) *worker {
	w := &worker{e: e, heap: c.xmlTbl.NewBorrower()}
	w.fetch = w.borrow
	return w
}

// borrow resolves a node of the candidate at hand (docReader.borrow),
// through the worker's borrow slot.
func (w *worker) borrow(id nodeid.ID) (*pack.Record, func(), error) {
	rid, err := w.r.locate(id)
	if err != nil {
		return nil, nil, err
	}
	return decodeRow(w.heap.Fetch(rid))
}

// evalDoc evaluates candidate document doc as docReader.eval does, with the
// worker's borrow slot and root record. On a plain collection it starts from
// rid, the record the candidate's value-index entry named, when that row is
// the document's root record now: the row's DocID is doc and its header has
// an empty context path. Anything else — a versioned collection, whose
// entries keep the RIDs of replaced versions, a scan's key, a freed slot, a
// slot reused by another document or by a non-root record, a fetch, decode
// or walk error — sends it through the NodeID index as if there were no RID,
// and only that read's error counts: a stale RID can name another
// document's page, whose checksum failure is not this document's. On a
// plain collection a document has one root record, rewritten in place by
// every edit, so the row that passes the checks is the one the index would
// have found.
func (w *worker) evalDoc(c *Collection, doc xml.DocID, rid heap.RID) ([]quickxscan.Match, error) {
	w.r = docReader{c: c, doc: doc}
	if rid != heap.InvalidRID && !c.meta.Versioned {
		if ms, err := w.evalFrom(rid, true); err == nil {
			return ms, nil
		}
	}
	var err error
	if w.r.ver, err = c.currentVersion(doc); err != nil {
		return nil, err
	}
	if rid, err = w.r.locate(nodeid.Root); err != nil {
		return nil, err
	}
	return w.evalFrom(rid, false)
}

// errNotRoot refuses a row an index entry named that is not the candidate's
// root record.
var errNotRoot = errors.New("core: the named row is not the document's root record")

// evalFrom evaluates the candidate from its root record at rid, decoded into
// the worker's root record; anchored, the row must first prove to be the
// candidate's root record.
func (w *worker) evalFrom(rid heap.RID, anchored bool) ([]quickxscan.Match, error) {
	w.e.Reset()
	row, release, err := w.heap.Fetch(rid)
	if err != nil {
		return nil, err
	}
	doc, _, payload, err := splitXMLRow(row)
	if err == nil {
		err = pack.DecodeInto(&w.root, payload)
	}
	if err == nil && anchored && (doc != w.r.doc || len(w.root.ContextID) != 0) {
		err = errNotRoot
	}
	if err != nil {
		release()
		return nil, err
	}
	return evalRoot(w.e, &w.root, release, w.fetch)
}

// results cuts n results from the worker's slab. A batch stays with the
// cursor after the visit — parked, or out until the next Next — so the slab
// is never rewound: one with too little left is replaced.
func (w *worker) results(n int) []Result {
	if cap(w.res)-len(w.res) < n {
		w.res = make([]Result, 0, quickxscan.SlabCap(cap(w.res), n, 8, 64))
	}
	start := len(w.res)
	w.res = w.res[:start+n]
	return w.res[start : start+n : start+n]
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
func (r *candidateRun) visit(i int, w *worker) (res []Result, skipped bool, err error) {
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
		matches, err = c.evalSubtree(k.doc, node, w.e)
	case !r.exact:
		matches, err = w.evalDoc(c, k.doc, k.rid)
	case r.values:
		var v []byte
		v, err = c.NodeString(k.doc, node)
		w.one[0] = quickxscan.Match{ID: node, Value: v}
		matches = w.one[:]
	default:
		w.one[0] = quickxscan.Match{ID: node}
		matches = w.one[:]
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
	res = w.results(len(matches))
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

// keyBatch is one candidate's results, tagged with its position in the
// candidate order and the budget bytes reserved for it.
type keyBatch struct {
	idx   int
	res   []Result
	skip  bool
	err   error
	bytes int64
}

// source visits a cursor's candidates and hands their result batches to the
// cursor in key order, which is result order. The caller's goroutine is
// worker 0: it claims positions from the counter its helpers share, returns
// the batch the cursor needs next, and parks any other in pending beside the
// batches helpers deliver early. With no helpers it claims exactly the
// position the cursor needs next, so it visits lazily: no goroutine, no
// channel, nothing beyond what Next asks for. Budget reservations travel with
// the batches: made when a batch is produced, released when the cursor asks
// for its successor or the source closes.
type source struct {
	run     *candidateRun
	w       *worker // the caller's
	ctx     context.Context
	mem     *memgov.Budget
	claimed atomic.Int64 // positions handed out, to the caller or a helper
	next    int          // the position the cursor needs next
	pending map[int]keyBatch
	held    int64 // bytes reserved for the batch currently out with the cursor

	// Set only when helpers run.
	cancel context.CancelFunc
	ch     chan keyBatch
	wg     sync.WaitGroup
}

// startHelpers starts one helper goroutine per worker.
func (s *source) startHelpers(workers []*worker) {
	if len(workers) == 0 {
		return
	}
	s.ctx, s.cancel = context.WithCancel(s.ctx)
	// Buffered to the candidate count so helpers never block on send: an
	// early Close only has to cancel and wait, never drain.
	s.ch = make(chan keyBatch, len(s.run.list.keys))
	s.pending = make(map[int]keyBatch)
	s.wg.Add(len(workers))
	for _, w := range workers {
		go func() {
			defer s.wg.Done()
			for s.ctx.Err() == nil {
				i, ok := s.claim()
				if !ok {
					return
				}
				s.ch <- s.produce(i, w)
			}
		}()
	}
	// A new goroutine waits in its creator's run-next slot, which an idle
	// processor steals only after a back-off of tens of microseconds, the
	// cost of several candidates. Yielding runs the first helper here at
	// once and leaves the caller on the global queue, where the woken
	// processor takes it without one.
	runtime.Gosched()
}

// claim hands out the next unvisited candidate position.
func (s *source) claim() (int, bool) {
	i := int(s.claimed.Add(1)) - 1
	return i, i < len(s.run.list.keys)
}

// produce visits candidate i and reserves its results against the memory
// budget; a breach fails the batch.
func (s *source) produce(i int, w *worker) keyBatch {
	res, skip, err := s.run.visit(i, w)
	var n int64
	if err == nil {
		if n = resultsBytes(res); n > 0 {
			if rerr := s.mem.Reserve(n); rerr != nil {
				res, err, n = nil, rerr, 0
			}
		}
	}
	return keyBatch{idx: i, res: res, skip: skip, err: err, bytes: n}
}

func (s *source) nextBatch() ([]Result, bool, error) {
	// The previous batch has been fully consumed by the cursor.
	s.mem.Release(s.held)
	s.held = 0
	for ; s.next < len(s.run.list.keys); s.next++ {
		if err := s.ctx.Err(); err != nil {
			return nil, false, err
		}
		b, err := s.await()
		if err != nil {
			return nil, false, err
		}
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
		s.next++
		s.held = b.bytes
		return b.res, true, nil
	}
	return nil, false, nil
}

// await returns the batch at position next: parked, delivered by a helper,
// or visited here. While that position is still with a helper, the caller
// visits unclaimed positions rather than wait; it blocks only when none is
// left.
func (s *source) await() (keyBatch, error) {
	for {
		b, ok := s.pending[s.next]
		if ok {
			delete(s.pending, s.next)
			return b, nil
		}
		select {
		case b = <-s.ch: // without helpers ch is nil: never ready
		default:
			if i, ok := s.claim(); ok {
				b = s.produce(i, s.w)
			} else {
				select {
				case b = <-s.ch:
				case <-s.ctx.Done():
					return keyBatch{}, s.ctx.Err()
				}
			}
		}
		if b.idx == s.next {
			return b, nil
		}
		s.pending[b.idx] = b
	}
}

func (s *source) close() {
	if s.cancel != nil {
		s.cancel()
		s.wg.Wait()
		// Helpers are gone: return the reservations of the batches they
		// delivered and nobody took.
		for len(s.ch) > 0 {
			s.mem.Release((<-s.ch).bytes)
		}
	}
	for _, b := range s.pending {
		s.mem.Release(b.bytes)
	}
	s.pending = nil
	s.mem.Release(s.held)
	s.held = 0
}
