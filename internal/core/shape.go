package core

// Prepared query shapes. A relational engine prepares a statement once and
// binds its host variables on each execution, re-picking the access path
// from the bound values. Here the statement is the query text with its
// comparison literals lifted to slots (xpath.Lift): its shape. What no
// literal changes — the parse, which indexes could serve each conjunct and
// the compiled QuickXScan program — is made once per shape and value-index
// set; each execution binds its literals, derives their ranges, dives and
// prices (plan.go).

import (
	"errors"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"rx/internal/quickxscan"
	"rx/internal/xpath"
)

// shapeCap is how many shapes one index set keeps, well above the few
// templates per collection the benchmark's workloads run (DESIGN.md
// "Prepared shapes"). A shape holds a parse, its conjuncts' index lists
// and at most 2·shapeEvals idle evaluators of at most maxFreeEvalBytes
// each, so a full set keeps at most 8 MiB of evaluators. Past it a shape
// that misses twice evicts a random one (keep).
const shapeCap = 64

// shapeEvals is how many idle evaluators a shape keeps for each result kind
// (with and without values): one per cursor that runs the shape at once.
const shapeEvals = 4

// maxFreeEvalBytes is the most an idle evaluator may retain
// (quickxscan.Eval.Retained: its buffers grow with the documents it
// evaluated); a larger one is dropped.
const maxFreeEvalBytes = 16 << 10

// indexSet is one snapshot of a collection's value indexes and the query
// shapes prepared against it. Index DDL publishes a new set, whose cache
// starts empty; no other change replaces one, and none needs to: a shape
// keeps no literal, estimate or plan choice.
type indexSet struct {
	ixs []*openValueIndex // never written once published

	mu     sync.RWMutex
	shapes map[string]*shape
	seen   [shapeCap]atomic.Uint64 // hashes of keys that missed a full set
}

var shapeSeed = maphash.MakeSeed()

// shape is what planning and compiling need of a query that no literal
// changes: the parse of the first text of the shape, its predicate
// conjuncts with the indexes that could serve each, and idle compiled
// evaluators.
type shape struct {
	q         *xpath.Query // its literals are the first text's: bind before use
	spine     []*xpath.Step
	conjuncts []shapeConjunct

	mu   sync.Mutex
	free [2][]*quickxscan.Eval // idle evaluators, without and with values
}

// shapeConjunct is one predicate conjunct on a spine step: a comparison
// (one cmp), an OR of two comparisons (two), or anything else (none), which
// no index serves.
type shapeConjunct struct {
	level int // the spine level the predicate anchors at (1-based)
	cmps  []shapeCmp
}

// shapeCmp is the literal-free part of matching a comparison to an index:
// its full predicate path, and every index whose path covers it and whose
// type accepts its literal's kind, in the set's order.
type shapeCmp struct {
	slot int
	op   xpath.CmpOp
	path *xpath.Query
	// oneNode is set when the leaf selects at most one node per anchor.
	oneNode bool
	ixs     []shapeIndex
}

type shapeIndex struct {
	ov    *openValueIndex
	exact bool // the index path is equivalent to the predicate path
}

// prepare returns expr's shape and its literals by slot. A text whose shape
// this set holds is only lifted and bound; any other is parsed whole, and
// its shape offered to keep when the text lifts and the lifted literals
// bind to the parse's own.
func (s *indexSet) prepare(expr string) (*shape, []xpath.Literal, error) {
	var kbuf [128]byte
	var sbuf [8]xpath.Slot
	key, slots, lifted := xpath.Lift(expr, kbuf[:0], sbuf[:0])
	if lifted {
		s.mu.RLock()
		sh := s.shapes[string(key)]
		s.mu.RUnlock()
		if sh != nil {
			lits := make([]xpath.Literal, len(slots))
			for i, sl := range slots {
				var err error
				if lits[i], err = xpath.BindLiteral(expr, sl); err != nil {
					return nil, nil, err
				}
			}
			return sh, lits, nil
		}
	}
	q, err := xpath.Parse(expr)
	if err != nil {
		return nil, nil, err
	}
	if !q.Rooted {
		return nil, nil, errors.New("core: collection queries must be rooted paths")
	}
	sh, lits := newShape(q, s.ixs), q.Lits
	if lifted && bindsTo(expr, slots, lits) {
		s.keep(key, sh)
	}
	return sh, lits, nil
}

// keep adds a prepared shape under key. While the set has room every shape
// is kept. A full set evicts a random shape, and only for a key that missed
// once before (seen remembers recent misses past the cap by hash), so
// traffic whose shapes do not repeat pays a hash per miss and leaves the
// kept shapes be.
func (s *indexSet) keep(key []byte, sh *shape) {
	s.mu.RLock()
	full := len(s.shapes) >= shapeCap
	s.mu.RUnlock()
	if full {
		h := maphash.Bytes(shapeSeed, key)
		if s.seen[h%shapeCap].Swap(h) != h {
			return
		}
	}
	s.mu.Lock()
	if len(s.shapes) >= shapeCap {
		for k := range s.shapes {
			delete(s.shapes, k)
			break
		}
	}
	if s.shapes == nil {
		s.shapes = make(map[string]*shape)
	}
	s.shapes[string(key)] = sh
	s.mu.Unlock()
}

// bindsTo reports whether the lifted slots bind to exactly the parse's
// literals.
func bindsTo(expr string, slots []xpath.Slot, lits []xpath.Literal) bool {
	if len(slots) != len(lits) {
		return false
	}
	for i, sl := range slots {
		if lit, err := xpath.BindLiteral(expr, sl); err != nil || lit != lits[i] {
			return false
		}
	}
	return true
}

// newShape prepares a parsed rooted query against the index set ixs.
// Predicates on any spine step are conjuncts, each AND flattened.
func newShape(q *xpath.Query, ixs []*openValueIndex) *shape {
	sh := &shape{q: q}
	for s := q.Steps; s != nil; s = s.Next {
		sh.spine = append(sh.spine, s)
	}
	for i, s := range sh.spine {
		prefix := sh.spine[:i+1]
		for _, p := range s.Preds {
			for _, e := range flattenAnd(p) {
				cj := shapeConjunct{level: len(prefix)}
				switch e := e.(type) {
				case xpath.Cmp:
					cj.cmps = []shapeCmp{newShapeCmp(ixs, prefix, e)}
				case xpath.Or:
					l, lok := e.L.(xpath.Cmp)
					r, rok := e.R.(xpath.Cmp)
					if lok && rok {
						cj.cmps = []shapeCmp{newShapeCmp(ixs, prefix, l), newShapeCmp(ixs, prefix, r)}
					}
				}
				sh.conjuncts = append(sh.conjuncts, cj)
			}
		}
	}
	return sh
}

// newShapeCmp lists the indexes that could serve the comparison anchored at
// the last step of prefix: the full predicate path (spine prefix + leaf
// path) must be covered by the index path, and the literal's kind must be
// comparable under the index's key type.
func newShapeCmp(ixs []*openValueIndex, prefix []*xpath.Step, cmp xpath.Cmp) shapeCmp {
	// The anchor itself (.) or one named attribute of it: never two nodes.
	leaf := cmp.Path
	sc := shapeCmp{
		slot:    cmp.Slot,
		op:      cmp.Op,
		path:    fullPredicatePath(prefix, leaf),
		oneNode: leaf.Next == nil && (leaf.Axis == xpath.Self || leaf.Axis == xpath.Attribute && leaf.Test == xpath.TestName),
	}
	if sc.path == nil {
		return sc
	}
	for _, ov := range ixs {
		if !typeCompatible(ov.meta.Type, cmp.Lit) {
			continue
		}
		exact := xpath.Equivalent(ov.ix.Path(), sc.path)
		if exact || xpath.Covers(ov.ix.Path(), sc.path) {
			sc.ixs = append(sc.ixs, shapeIndex{ov: ov, exact: exact})
		}
	}
	return sc
}

// evaluator returns a compiled evaluator of the shape with lits bound: an
// idle one, or a new compile.
func (sh *shape) evaluator(c *Collection, values bool, lits []xpath.Literal) (*quickxscan.Eval, error) {
	free := &sh.free[b2i(values)]
	var e *quickxscan.Eval
	sh.mu.Lock()
	if n := len(*free); n > 0 {
		e = (*free)[n-1]
		*free = (*free)[:n-1]
	}
	sh.mu.Unlock()
	if e == nil {
		var err error
		if e, err = quickxscan.Compile(sh.q, c.db.cat, nil, quickxscan.Options{NeedValues: values}); err != nil {
			return nil, err
		}
	}
	e.Bind(lits)
	return e, nil
}

// release keeps an evaluator no cursor uses any more for the shape's next
// execution. The matches it returned stay valid: its slabs are never
// rewound (quickxscan.Eval.EndDocument).
func (sh *shape) release(e *quickxscan.Eval, values bool) {
	if e.Retained() > maxFreeEvalBytes {
		return
	}
	free := &sh.free[b2i(values)]
	sh.mu.Lock()
	if len(*free) < shapeEvals {
		*free = append(*free, e)
	}
	sh.mu.Unlock()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
