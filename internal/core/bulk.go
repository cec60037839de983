package core

// Document ingest: the one insert pipeline of §3.2 / Figure 4. Every entry
// point — Txn.InsertBatch and, through it, Txn.Insert and the session layer;
// compensation's restoreDoc — runs the same two stages:
//
//   - stage, before any lock, DocID or log record: every document is parsed
//     (or schema-validated) into a buffered token stream and packed into
//     heap records. Packing needs no DocID (the row adds it at insert
//     time), so the documents are independent and min(GOMAXPROCS,
//     documents) workers share them. A bad document, or a batch too big for
//     its memory budget, rejects the call here without burning a DocID or
//     logging anything.
//   - ingestLocked, under writeMu, four passes: (1) the packed records enter
//     the heap in document order and emit order (the packer emits them
//     bottom-up, §3.2), accumulating the NodeID-index entries they produce;
//     (2) those entries in key order; (3) base rows and the DocID index; (4)
//     per document, on the same workers, one streaming key-generation pass
//     per value index, each match's RID taken from pass 1's sorted intervals
//     (no NodeID-index probe); then per index the keys, sorted. Every pass
//     hands its sorted run to btree's PutSorted, which writes a leaf at a
//     time: one descent, one page diff and one WAL record per leaf visit, not
//     per key, whether the call carries one document or ten thousand.
//
// Only page writes are serial, and they run in the order a single worker
// would run them, so RIDs and page images do not depend on the worker count;
// nor do the IDs of names new to the catalog (nameOrder) or which error a bad
// batch reports (fanOut). The caller's goroutine is worker 0: a one-document
// insert spawns nothing, and the serial case is the one-worker run of the
// same loop. Each worker's pooled arena holds its documents' streams and
// packed records from stage until the call ends.
//
// Atomicity is the transaction's, not the pipeline's: Txn.InsertBatch logs
// each document's logical undo record before ingestLocked touches a page, so
// a crash mid-ingest makes the transaction a loser that recovery removes, and
// an in-process error is undone by Txn.Rollback the same way. One commit —
// one device sync — covers the whole call.

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"rx/internal/arena"
	"rx/internal/btree"
	"rx/internal/catalog"
	"rx/internal/heap"
	"rx/internal/memgov"
	"rx/internal/nodeid"
	"rx/internal/nodeindex"
	"rx/internal/pack"
	"rx/internal/quickxscan"
	"rx/internal/valueindex"
	"rx/internal/xml"
	"rx/internal/xmlparse"
	"rx/internal/xmlschema"
)

// BatchOptions configures InsertBatch.
type BatchOptions struct {
	// Schema, when non-empty, validates every document against the named
	// registered schema (storing typed token streams) instead of plain
	// parsing.
	Schema string
	// Mem, when non-nil, charges the batch's staging memory (the workers'
	// arenas: token streams, packed records, index keys) against a budget; a
	// breach fails the batch with rxerr.ErrOverBudget before any page effects
	// (stage) or after some (ingestLocked), which the transaction's rollback
	// then removes.
	Mem *memgov.Budget
}

// ingestWorkers recycles workers, arena and scratch, across ingest calls so
// the steady state allocates no fresh chunks.
var ingestWorkers = sync.Pool{New: func() any {
	w := &ingestWorker{}
	w.emit = w.keep
	return w
}}

// ingestWorker is one worker of an ingest call. Its arena a holds its
// documents' token streams and packed records from stage until release, and
// its index keys from ingestLocked on; scratch holds what one document's
// parse, validation, packing or key encoding leaves behind and is reset
// after each. Both are charged against the call's budget as they grow.
type ingestWorker struct {
	a, scratch arena.Arena
	mem        *memgov.Budget
	peak       int // the most scratch one document has used
	charged    int64
	recs       []pack.EncodedRecord // this worker's documents' records
	emit       func(pack.EncodedRecord) error
	names      docNames

	// Pass 4, per value index: the worker's evaluator (worker 0 uses the
	// index's own), its keys, and the most matches one document had.
	evals []*quickxscan.Eval
	keys  [][]btree.Entry
	most  []int

	// Worker 0's pass 1–4 scratch: the deferred NodeID-index entries and
	// each pass's sorted run.
	nodes []nodeEntry
	ents  []btree.Entry

	// fanOut's verdict: the document this worker failed on, and why.
	failed int
	err    error
}

// keep moves a packed record out of scratch into a.
func (w *ingestWorker) keep(rec pack.EncodedRecord) error {
	rec.MinNodeID, rec.Payload = w.a.Copy(rec.MinNodeID), w.a.Copy(rec.Payload)
	for k, upper := range rec.Intervals {
		rec.Intervals[k] = w.a.Copy(upper)
	}
	w.recs = append(w.recs, rec)
	return nil
}

// charge reserves the growth of a, and of scratch's peak, since the last
// charge, then resets scratch for the next document.
func (w *ingestWorker) charge() error {
	w.peak = max(w.peak, w.scratch.InUse())
	w.scratch.Reset()
	grown := int64(w.a.InUse()+w.peak) - w.charged // neither term shrinks before release
	if err := w.mem.Reserve(grown); err != nil {
		return err
	}
	w.charged += grown
	return nil
}

// stagedDoc is one document as stage leaves it.
type stagedDoc struct {
	stream []byte
	recs   []pack.EncodedRecord // in emit order
}

// staged is stage's result, held until release.
type staged struct {
	docs    []stagedDoc
	workers []*ingestWorker
}

// release returns the workers' budget charges and recycles them, which
// invalidates every stream, record and key they hold.
func (st *staged) release() {
	for _, w := range st.workers {
		w.mem.Release(w.charged)
		w.a.Reset()
		w.scratch.Reset()
		clear(w.recs) // the records' interval lists live on the Go heap
		clear(w.evals)
		w.recs, w.evals, w.mem, w.peak, w.charged, w.names.order = w.recs[:0], w.evals[:0], nil, 0, 0, nil
		ingestWorkers.Put(w)
	}
}

// fanOut runs do for each of n documents on the workers, worker 0 on the
// calling goroutine, so one worker spawns nothing. Documents are claimed in
// index order and none is claimed after a failure, so every document below a
// failed one runs to its end: the error returned, the lowest-indexed
// failure, is the one a one-worker run returns, whatever the scheduling.
func fanOut(ws []*ingestWorker, n int, do func(w *ingestWorker, i int) error) error {
	var next atomic.Int64
	var failed atomic.Bool
	run := func(w *ingestWorker) {
		w.failed, w.err = n, nil
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := do(w, i); err != nil {
				w.failed, w.err = i, err
				failed.Store(true)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for _, w := range ws[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(ws[0])
	wg.Wait()
	first := ws[0]
	for _, w := range ws[1:] {
		if w.failed < first.failed {
			first = w
		}
	}
	return first.err
}

// nameOrder makes parallel parsing intern names in document order: a name
// new to the catalog is interned only once every earlier document of the
// batch is parsed, so the IDs a batch adds, and the pages that hold them,
// are the ones a one-worker parse gives.
type nameOrder struct {
	cat      *catalog.Catalog
	mu       sync.Mutex
	cond     sync.Cond
	parsed   []bool
	frontier int // every document below it is parsed
}

func (o *nameOrder) markParsed(i int) {
	o.mu.Lock()
	o.parsed[i] = true
	for o.frontier < len(o.parsed) && o.parsed[o.frontier] {
		o.frontier++
	}
	o.mu.Unlock()
	o.cond.Broadcast()
}

// docNames is the name dictionary as one document of a batch sees it. A
// name's ID never changes once assigned, so each worker caches the IDs it
// has seen and parses without touching the catalog's lock.
type docNames struct {
	order *nameOrder
	doc   int
	cat   *catalog.Catalog // whose IDs known holds
	known map[string]xml.NameID
}

// maxKnownNames bounds a worker's name cache.
const maxKnownNames = 4096

// Intern implements xml.Names.
func (d *docNames) Intern(name string) (xml.NameID, error) {
	o := d.order
	if d.cat != o.cat || len(d.known) >= maxKnownNames {
		d.cat = o.cat
		if d.known == nil {
			d.known = map[string]xml.NameID{}
		}
		clear(d.known)
	}
	if id, ok := d.known[name]; ok {
		return id, nil
	}
	id, ok := o.cat.Known(name)
	if !ok {
		o.mu.Lock()
		for o.frontier < d.doc {
			o.cond.Wait()
		}
		o.mu.Unlock()
		var err error
		if id, err = o.cat.Intern(name); err != nil {
			return 0, err
		}
	}
	d.known[name] = id
	return id, nil
}

// Lookup implements xml.Names.
func (d *docNames) Lookup(id xml.NameID) (string, error) { return d.order.cat.Lookup(id) }

// stage runs the first stage over docs, which are serialized documents, or
// token streams when tokenized (compensation's restore). On error nothing is
// held.
func (c *Collection) stage(docs [][]byte, opts BatchOptions, tokenized bool) (*staged, error) {
	var sch *xmlschema.Schema
	if opts.Schema != "" {
		var err error
		if sch, err = c.db.compiledSchema(opts.Schema); err != nil {
			return nil, err
		}
	}
	st := &staged{
		docs:    make([]stagedDoc, len(docs)),
		workers: make([]*ingestWorker, min(runtime.GOMAXPROCS(0), len(docs))),
	}
	order := &nameOrder{cat: c.db.cat, parsed: make([]bool, len(docs))}
	order.cond.L = &order.mu
	for k := range st.workers {
		w := ingestWorkers.Get().(*ingestWorker)
		w.mem, w.names.order = opts.Mem, order
		st.workers[k] = w
	}
	threshold := c.packThreshold()
	err := fanOut(st.workers, len(docs), func(w *ingestWorker, i int) error {
		d := &st.docs[i]
		d.stream = docs[i]
		var err error
		if !tokenized {
			w.names.doc = i
			if sch != nil {
				d.stream, err = xmlschema.Validate(docs[i], sch, &w.names, &w.scratch)
			} else {
				d.stream, err = xmlparse.Parse(docs[i], &w.names, xmlparse.Options{Arena: &w.scratch})
			}
			order.markParsed(i)
			d.stream = w.a.Copy(d.stream) // exactly the stream: the parser's slack stays behind
		}
		if err == nil {
			lo := len(w.recs)
			err = pack.PackStreamArena(d.stream, threshold, &w.scratch, w.emit)
			d.recs = w.recs[lo:len(w.recs):len(w.recs)]
		}
		if err == nil {
			err = w.charge()
		}
		if err != nil && len(docs) > 1 {
			err = fmt.Errorf("core: batch document %d: %w", i, err)
		}
		return err
	})
	if err != nil {
		st.release()
		return nil, err
	}
	return st, nil
}

// nodeEntry is one deferred NodeID-index insertion.
type nodeEntry struct {
	doc   xml.DocID
	upper nodeid.ID
	rid   heap.RID
}

// docIntervals returns doc's entries of ns, which is sorted by (doc, upper).
func docIntervals(ns []nodeEntry, doc xml.DocID) []nodeEntry {
	byDoc := func(e nodeEntry, d xml.DocID) int { return cmp.Compare(e.doc, d) }
	lo, _ := slices.BinarySearchFunc(ns, doc, byDoc)
	hi, _ := slices.BinarySearchFunc(ns[lo:], doc+1, byDoc)
	return ns[lo : lo+hi]
}

// ingestLocked stores staged documents under their pre-allocated DocIDs (ids
// ascend). Caller holds writeMu and owns atomicity: an error may leave the
// documents partially stored, for Txn.Rollback / recovery (removeDoc) to
// clear.
func (c *Collection) ingestLocked(ids []xml.DocID, st *staged) error {
	// Index keys are built on worker 0's arena (pass 4's on each worker's),
	// valid until release, by which time pages and index entries own their
	// own copies.
	w0 := st.workers[0]
	a := &w0.a

	// Pass 1 — the heap, document by document and record by record; the
	// NodeID-index entries the records produce are only accumulated.
	nodes := w0.nodes[:0]
	defer func() { w0.nodes = nodes[:0] }()
	for i, d := range st.docs {
		for _, rec := range d.recs {
			rid, err := c.xmlTbl.Insert(xmlRow(ids[i], rec.MinNodeID, rec.Payload))
			if err != nil {
				return err
			}
			for _, upper := range rec.Intervals {
				nodes = append(nodes, nodeEntry{doc: ids[i], upper: upper, rid: rid})
			}
		}
	}

	// Pass 2 — NodeID index, in key order: (DocID, NodeID) sorts exactly
	// like the tree's composite keys, so the run enters the B+tree a leaf at
	// a time. The sorted list also serves pass 4's RID lookups.
	slices.SortFunc(nodes, func(x, y nodeEntry) int {
		if x.doc != y.doc {
			return cmp.Compare(x.doc, y.doc)
		}
		return bytes.Compare(x.upper, y.upper)
	})
	ents := w0.ents[:0]
	defer func() { w0.ents = ents[:0] }()
	for _, e := range nodes {
		var key []byte
		if c.meta.Versioned {
			key = nodeindex.AppendVKey(a.Make(16+len(e.upper)), e.doc, 1, e.upper)
		} else {
			key = nodeindex.AppendKey(a.Make(8+len(e.upper)), e.doc, e.upper)
		}
		ents = append(ents, btree.Entry{Key: key, Value: e.rid.Append(a.Make(6))})
	}
	if err := c.nodeIx.Tree().PutSorted(ents); err != nil {
		return err
	}

	// Pass 3 — base rows (the implicit DocID column, plus the current version
	// for versioned collections), then the DocID index; IDs ascend, so its
	// entries are in key order already.
	ents = ents[:0]
	for _, id := range ids {
		baseRID, err := c.base.Insert(c.baseRow(id, 1))
		if err != nil {
			return err
		}
		key := binary.BigEndian.AppendUint64(a.Make(8), uint64(id))
		ents = append(ents, btree.Entry{Key: key, Value: baseRID.Append(a.Make(6))})
	}
	if err := c.docIx.PutSorted(ents); err != nil {
		return err
	}
	if err := w0.charge(); err != nil {
		return err
	}

	// Pass 4 — value indexes (§3.3).
	if ixs := c.indexSnapshot(); len(ixs) > 0 {
		if err := c.valueKeys(ids, st, nodes); err != nil {
			return err
		}
		for j, ov := range ixs {
			most := 0
			ents = ents[:0]
			for _, w := range st.workers {
				most = max(most, w.most[j])
				ents = append(ents, w.keys[j]...)
			}
			// Before any of this index's puts below.
			if err := c.noteMatches(ov, most); err != nil {
				return err
			}
			slices.SortFunc(ents, func(x, y btree.Entry) int { return bytes.Compare(x.Key, y.Key) })
			if err := ov.ix.Tree().PutSorted(ents); err != nil {
				return err
			}
		}
	}
	return nil
}

// valueKeys is pass 4's key generation, per document on the workers: for
// each value index one streaming pass over the document's token stream,
// each match's RID taken from the document's slice of the sorted interval
// list — the successor search a NodeID-index lookup would make (§3.4),
// without the probe. Each worker leaves its keys, unsorted, in keys[j] and
// the most matches one of its documents had on index j in most[j]. Caller
// holds writeMu.
func (c *Collection) valueKeys(ids []xml.DocID, st *staged, nodes []nodeEntry) error {
	ixs := c.indexSnapshot()
	for k, w := range st.workers {
		w.keys = slices.Grow(w.keys[:0], len(ixs))[:len(ixs)]
		w.most = slices.Grow(w.most[:0], len(ixs))[:len(ixs)]
		for j, ov := range ixs {
			ev := ov.keygen
			if k > 0 { // an evaluator is single-threaded
				var err error
				if ev, err = c.compileKeygen(ov.ix.Path()); err != nil {
					return err
				}
			}
			w.evals = append(w.evals, ev)
			w.keys[j], w.most[j] = w.keys[j][:0], 0
		}
	}
	return fanOut(st.workers, len(st.docs), func(w *ingestWorker, i int) error {
		ivs := docIntervals(nodes, ids[i])
		for j, ev := range w.evals {
			matches, err := quickxscan.EvalTokens(ev, st.docs[i].stream)
			if err != nil {
				return err
			}
			w.most[j] = max(w.most[j], len(matches))
			typ := ixs[j].ix.Type()
			for _, m := range matches {
				r, _ := slices.BinarySearchFunc(ivs, m.ID, func(e nodeEntry, id nodeid.ID) int {
					return bytes.Compare(e.upper, id)
				})
				if r == len(ivs) {
					return fmt.Errorf("%w: doc %d node %s", nodeindex.ErrNotFound, ids[i], m.ID)
				}
				enc, err := valueindex.EncodeTypedInto(w.scratch.Make(2*len(m.Value)+18), typ, m.Value)
				if err != nil {
					if errors.Is(err, valueindex.ErrNotIndexable) {
						continue
					}
					return err
				}
				key := valueindex.AppendEntryKey(w.a.Make(len(enc)+8+len(m.ID)), enc, ids[i], m.ID)
				w.keys[j] = append(w.keys[j], btree.Entry{Key: key, Value: ivs[r].rid.Append(w.a.Make(6))})
			}
		}
		return w.charge()
	})
}
