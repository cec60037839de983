package core

import (
	"context"
	"slices"

	"rx/internal/heap"
	"rx/internal/nodeid"
	"rx/internal/valueindex"
	"rx/internal/xml"
)

// Result is one query match.
type Result struct {
	Doc  xml.DocID
	Node nodeid.ID
	// Value is the node's string value when requested via QueryValues.
	Value []byte
}

// QueryOpts evaluates an XPath query over the collection, using value
// indexes when they apply (§4.3) and falling back to a QuickXScan
// relation-scan otherwise, and materializes every result. Use Cursor to
// stream results instead.
func (c *Collection) QueryOpts(expr string, opts QueryOptions) ([]Result, *Plan, error) {
	cur, err := c.Cursor(expr, opts)
	if err != nil {
		return nil, nil, err
	}
	defer cur.Close()
	var results []Result
	for cur.Next() {
		results = append(results, cur.Result())
	}
	if err := cur.Err(); err != nil {
		return nil, nil, err
	}
	return results, cur.Plan(), nil
}

// Cursor plans the query and returns a streaming cursor over its results in
// (DocID, NodeID) order. Every access method visits its candidates on the
// caller's goroutine as Next asks for them — with helper goroutines when
// the plan's priced work pays for them, or opts.Parallelism asks — so
// callers iterate without materializing the full result set. The caller
// must Close the cursor.
func (c *Collection) Cursor(expr string, opts QueryOptions) (*Cursor, error) {
	p, err := c.Plan(expr, opts)
	if err != nil {
		return nil, err
	}
	return c.CursorPlanned(p, opts)
}

// CursorPlanned executes a plan produced by Plan and fills in its execution
// fields (Parallelism, and CandidateDocs when the plan is not exact).
func (c *Collection) CursorPlanned(plan *Plan, opts QueryOptions) (*Cursor, error) {
	if err := opts.context().Err(); err != nil {
		return nil, err
	}
	if opts.MemLimit > 0 {
		opts.Mem = opts.Mem.Child("query", opts.MemLimit)
	}
	plan.Parallelism = 1
	list, err := c.candidates(opts.context(), plan.recipe)
	if err != nil {
		return nil, err
	}
	if !plan.recipe.exact {
		plan.CandidateDocs = len(list.keys)
	}
	return c.newCursor(plan, list, opts)
}

// ctxCheckEvery is how many index entries a scan visits between
// cancellation checks.
const ctxCheckEvery = 1024

// candidate is one key of a recipe's candidate list: a document and, for
// node-level plans, a subtree root or result node within it, whose ID is
// ids[lo:hi] of the list's buffer (lo == hi: the document itself). rid is
// the record the key's value-index entry named (heap.InvalidRID for a scan's
// keys): of the entries cut to one key, the first kept. A document key reads
// its document from there when that row is still the document's root record
// (worker.evalDoc). Keys hold no pointer: a list of thousands is one
// allocation the collector need not scan.
type candidate struct {
	doc    xml.DocID
	lo, hi uint32
	rid    heap.RID
}

// keyList is a recipe's candidate keys in (DocID, NodeID) order — result
// order — without duplicates. Their node IDs share one buffer.
type keyList struct {
	keys  []candidate
	ids   []byte
	spare []candidate // the buffer the last sort left free, taken by the next scan
}

func (l *keyList) node(k candidate) nodeid.ID { return l.ids[k.lo:k.hi:k.hi] }

func (l *keyList) compare(a, b candidate) int {
	switch {
	case a.doc < b.doc:
		return -1
	case a.doc > b.doc:
		return 1
	}
	return nodeid.Compare(l.node(a), l.node(b))
}

func (l *keyList) equal(a, b candidate) bool { return l.compare(a, b) == 0 }

// candidates turns a recipe into its key list: every document for a scan;
// otherwise each conjunct's range-scan keys, combined by linear merge —
// intersected for AND (§4.3 access methods 2–3), unioned for OR.
func (c *Collection) candidates(ctx context.Context, rc recipe) (*keyList, error) {
	l := &keyList{}
	if len(rc.conjuncts) == 0 {
		docs, err := c.DocIDs()
		if err != nil {
			return nil, err
		}
		l.keys = make([]candidate, len(docs))
		for i, d := range docs {
			l.keys[i] = candidate{doc: d, rid: heap.InvalidRID}
		}
		return l, nil
	}
	for i, pc := range rc.conjuncts {
		keys, err := l.scan(ctx, pc, rc.level)
		if err != nil {
			return nil, err
		}
		switch {
		case i == 0:
			l.keys = keys
		case rc.or:
			l.keys = l.union(l.keys, keys)
		default:
			l.keys = l.intersect(l.keys, keys)
		}
	}
	return l, nil
}

// scan is the one value-index scan behind query execution: the entries of
// pc's range, each cut to its level-ancestor (level 0: the document), sorted
// and deduplicated. Entries arrive in (value, doc, node) order, so an
// equality range is already in key order with its duplicates adjacent:
// those are dropped as they arrive, and the sort runs only when a key came
// out of order.
func (l *keyList) scan(ctx context.Context, pc planConjunct, level int) ([]candidate, error) {
	keys := l.spare[:0]
	l.spare = nil
	sorted := true
	seen := 0
	err := pc.ov.ix.Scan(pc.rng, func(e valueindex.Entry) bool {
		if seen++; seen%ctxCheckEvery == 0 && ctx.Err() != nil {
			return false
		}
		prefix, ok := prefixAtLevel(e.Node, level)
		if !ok {
			return true
		}
		lo := uint32(len(l.ids))
		if len(prefix) > 0 {
			l.ids = append(l.ids, prefix...)
		}
		k := candidate{e.Doc, lo, lo + uint32(len(prefix)), e.RID}
		if n := len(keys); n > 0 && keys[n-1].doc >= k.doc {
			switch c := l.compare(keys[n-1], k); {
			case c == 0:
				l.ids = l.ids[:lo]
				return true
			case c > 0:
				sorted = false
			}
		}
		keys = append(keys, k)
		return true
	})
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	if !sorted {
		keys = slices.CompactFunc(l.sort(keys), l.equal)
	}
	return keys, nil
}

// sort orders keys by (DocID, NodeID): a stable LSD radix sort on the DocID,
// one pass per significant byte, then a comparison sort of each run of keys
// sharing a document. A range scan's keys arrive in value order, and a
// comparison sort over all of them, paying a function call per comparison,
// takes twice as long as the integer sort DocID lists had before they became
// keys.
func (l *keyList) sort(keys []candidate) []candidate {
	var bits xml.DocID
	for _, k := range keys {
		bits |= k.doc
	}
	tmp := make([]candidate, len(keys))
	for shift := 0; shift < 64 && bits>>shift != 0; shift += 8 {
		var at [257]int
		for _, k := range keys {
			at[int(byte(k.doc>>shift))+1]++
		}
		for b := 1; b < len(at); b++ {
			at[b] += at[b-1]
		}
		for _, k := range keys {
			b := byte(k.doc >> shift)
			tmp[at[b]] = k
			at[b]++
		}
		keys, tmp = tmp, keys
	}
	l.spare = tmp
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j].doc == keys[i].doc {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(keys[i:j], l.compare)
		}
		i = j
	}
	return keys
}

// intersect merges two sorted, duplicate-free key lists into their
// intersection, reusing a's storage.
func (l *keyList) intersect(a, b []candidate) []candidate {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := l.compare(a[i], b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// union merges two sorted, duplicate-free key lists into their union.
func (l *keyList) union(a, b []candidate) []candidate {
	out := make([]candidate, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := l.compare(a[i], b[j]); {
		case c < 0:
			out = append(out, a[i])
			i++
		case c > 0:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// prefixAtLevel returns the node ID of id's level-n ancestor (n = 0: the
// root), without allocating: each relative ID ends at its first even byte
// (package nodeid), so the cut is after the n-th one. ok is false when id is
// shallower than n or malformed.
func prefixAtLevel(id nodeid.ID, n int) (nodeid.ID, bool) {
	end := 0
	for ; n > 0 && end < len(id); end++ {
		switch b := id[end]; {
		case b == 0: // reserved for the implicit root
			return nil, false
		case b%2 == 0:
			n--
		}
	}
	return id[:end], n == 0
}

// deletedUnder reports whether reading doc failed only because another
// connection deleted it after it was listed as a candidate. Outside a
// transaction such a document is simply no longer in the result
// (read-committed at document granularity). A removal drops the DocID entry
// before the records (removeDoc), so the DocID index is re-checked: a live
// document with a missing record is damage, and stays an error for scrub to
// see.
func (c *Collection) deletedUnder(doc xml.DocID, err error) bool {
	return vanished(err) && !c.Has(doc)
}
