// Package quickxscan implements QuickXScan (§4.2), the streaming XPath
// algorithm of System R/X. It evaluates a path expression in a single pass
// over a document — the XML analogue of a relational scan — using the
// principles of attribute grammars: inherited attributes decide whether a
// document node matches a query node (evaluated top-down), and synthesized
// sequence-valued attributes accumulate candidate results (evaluated
// bottom-up, with the upward and sideways propagations of Table 1).
//
// Each query node keeps a stack of matching instances. A document node is
// matched against only the stack tops of the previous step (the two
// transitivity properties of §4.2), which bounds live state by O(|Q|·r) —
// query size times document recursion depth — instead of the exponential
// state sets of automaton-based streaming evaluators (Figure 7).
//
// Candidate propagation generalizes Table 1 to predicates: each matching
// instance carries a "raw" sequence (candidates whose validation by this
// step's predicates is still pending) and a "valid" sequence (candidates
// already validated at this step by a deeper instance). When an instance
// pops, its predicates are decided; raw candidates either become valid and
// cross the step boundary upward through the instance's upward link, or —
// if this instance fails its predicates and the step's axis is a descendant
// axis — move sideways to the next instance below on the same stack (the
// outer matching the candidates are also contained in). Each candidate is
// held by exactly one instance per step at any time, which is what
// guarantees duplicate-free results.
package quickxscan

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"

	"rx/internal/nodeid"
	"rx/internal/xml"
	"rx/internal/xpath"
)

// Match is one result node.
type Match struct {
	ID nodeid.ID
	// Value is the node's string value, collected when Options.NeedValues
	// is set (attribute/text value, or concatenated text descendants for
	// elements).
	Value []byte
}

// Options configure an evaluator.
type Options struct {
	// NeedValues makes matches carry node string values (used for XPath
	// value index key generation, §3.3).
	NeedValues bool
}

// Stats reports the evaluator's live-state footprint for the Figure-7
// comparison.
type Stats struct {
	// Pushes counts matching instances created.
	Pushes int
	// MaxLive is the maximum number of matching instances alive at once
	// (the paper's O(|Q|·r) bound).
	MaxLive int
	// QueryNodes is |Q|.
	QueryNodes int
}

// qnode is one query node of the compiled query tree.
type qnode struct {
	id     int
	axis   xpath.Axis
	test   xpath.TestKind
	name   xml.QName // resolved name for TestName
	anyURI bool      // name test with no prefix matches any namespace? (false: no-namespace only)
	parent *qnode

	// Predicates anchored at this query node. looseLeaves are the leaf slots
	// whose path starts with a descendant step: true for one instance, such a
	// leaf is true for every instance below it on the stack as well.
	preds       []predExpr
	numLeaves   int
	looseLeaves []int

	// Predicate-chain bookkeeping: inPred marks query nodes inside a
	// predicate path; predSlot is the leaf slot (on every node of the
	// chain); anchor is the step the predicate belongs to; cmp is the
	// comparison applied at the chain's terminal.
	inPred   bool
	predSlot int
	anchor   *qnode
	terminal bool
	cmp      *cmpInfo

	// makesCand: this node's own matches are candidates (spine result node
	// or predicate-chain terminal).
	makesCand bool
	needValue bool
	// loose: candidates crossing up from this step may be re-targeted to
	// outer instances of the parent step (descendant axes).
	loose bool

	stack []*instance
}

type cmpInfo struct {
	op  xpath.CmpOp
	lit xpath.Literal
	str []byte // lit.Str, for allocation-free comparison against node values
}

// cand is a candidate result flowing up the query tree. Its node ID and
// string value are spans of the evaluator's kept buffer (both empty inside a
// predicate chain, where only the candidate's existence matters).
type cand struct {
	id    span
	value span
	loose bool
}

// span is a byte range of Eval.kept.
type span struct{ off, end int }

// instance is a matching instance on a query node's stack.
type instance struct {
	q        *qnode
	depth    int
	upTarget *instance
	raw      []cand
	valid    []cand
	// rawRemainder holds loose raw candidates of a failed instance, pending
	// the sideways move to the instance below on the stack.
	rawRemainder []cand
	leafVals     []bool
	value        []byte // accumulated string value when q.needValue
	closed       bool
}

type predExpr interface{ eval(leaf []bool) bool }

type peAnd struct{ l, r predExpr }
type peOr struct{ l, r predExpr }
type peNot struct{ e predExpr }
type peLeaf struct{ slot int }

func (e peAnd) eval(l []bool) bool  { return e.l.eval(l) && e.r.eval(l) }
func (e peOr) eval(l []bool) bool   { return e.l.eval(l) || e.r.eval(l) }
func (e peNot) eval(l []bool) bool  { return !e.e.eval(l) }
func (e peLeaf) eval(l []bool) bool { return l[e.slot] }

// Eval is a compiled, reusable streaming evaluator for one query.
type Eval struct {
	opts  Options
	doc   *qnode
	nodes []*qnode // topological order (parents before children)

	// Dispatch tables, built by Compile: the query nodes each event kind
	// can match, in nodes order. An element node tests a name, * or
	// node(). elemNames holds the xml.SigBit of every name an element node
	// tests; anyElem is set when one tests * or node(), which every element
	// passes.
	elemNodes, attrNodes, leafNodes []*qnode
	elemNames                       uint64
	anyElem                         bool
	// need is the element-name signature a document must cover to match:
	// the names on the result spine and in predicate paths under and only.
	need uint64

	depth int
	// openElems holds, per open element (and the document), where its
	// matching instances start in pushed; pushed is the flat stack of every
	// instance pushed for a still-open element, in push order.
	openElems []int
	pushed    []*instance
	docMI     instance     // the document node's instance, reused across documents
	valueMIs  []*instance  // open instances accumulating string values
	ids       nodeid.Stack // EvalTokens' ID synthesizer, reused across documents
	// kept holds the IDs and values of the document's candidates. Event IDs
	// and values die with their event, so a candidate keeps a copy — here, in
	// one buffer reused across documents, not in a heap object per
	// candidate; only what finally matches is copied out at EndDocument.
	kept  []byte
	stats Stats
	live  int
	inDoc bool
	err   error
	// free recycles matching instances: an instance popped from its stack
	// is never referenced again (candidates are copied out at finalize and
	// upward links only ever point at still-open ancestors).
	free []*instance
	// matchSlab and bytesSlab are where EndDocument cuts the matches it
	// returns from, the headers and the ID and value bytes: a document's
	// matches take the slabs' next free stretch, and a slab with too little
	// left is replaced, never rewound. Returned matches are the caller's,
	// as if each document had its own block, while the documents a cursor
	// evaluates share one allocation per slab.
	matchSlab []Match
	bytesSlab []byte
}

// Compile builds an evaluator for the query. Names are resolved against the
// dictionary; nsMap maps the query's prefixes to namespace URIs (nil means
// prefixes are disallowed).
func Compile(q *xpath.Query, names xml.Names, nsMap map[string]string, opts Options) (*Eval, error) {
	if !q.Rooted {
		return nil, errors.New("quickxscan: only rooted paths are evaluated against documents")
	}
	e := &Eval{opts: opts}
	e.doc = &qnode{id: 0, test: xpath.TestNode}
	e.nodes = append(e.nodes, e.doc)
	last, err := e.compileChain(q.Steps, e.doc, names, nsMap, false, 0, nil, true)
	if err != nil {
		return nil, err
	}
	last.makesCand = true
	if opts.NeedValues {
		last.needValue = true
	}
	e.stats.QueryNodes = len(e.nodes)
	for _, q := range e.nodes[1:] {
		switch {
		case q.axis == xpath.Attribute:
			e.attrNodes = append(e.attrNodes, q)
		case q.test == xpath.TestName:
			e.elemNodes = append(e.elemNodes, q)
			e.elemNames |= xml.SigBit(q.name.Local)
		case q.test == xpath.TestStar || q.test == xpath.TestNode:
			e.elemNodes = append(e.elemNodes, q)
			e.anyElem = true
		}
		if q.axis != xpath.Attribute && q.axis != xpath.Self &&
			(q.test == xpath.TestText || q.test == xpath.TestComment || q.test == xpath.TestNode) {
			e.leafNodes = append(e.leafNodes, q)
		}
	}
	return e, nil
}

// Need returns the element-name signature (xml.SigBit per name) a document
// must cover for the query to match anything in it: the element name tests
// on the result spine and in the predicate paths that every result needs —
// those joined by and only; a name under or or not is not required, and
// neither is *, node() or an attribute step. A document whose signature
// lacks one of these bits has no matches.
func (e *Eval) Need() uint64 { return e.need }

// compileChain compiles a linear chain of steps under parent, returning the
// terminal qnode. required is set when every match of the whole query needs
// the chain to match (see Need).
func (e *Eval) compileChain(s *xpath.Step, parent *qnode, names xml.Names, nsMap map[string]string, inPred bool, slot int, anchor *qnode, required bool) (*qnode, error) {
	cur := parent
	for ; s != nil; s = s.Next {
		q := &qnode{
			id:     len(e.nodes),
			axis:   s.Axis,
			test:   s.Test,
			parent: cur,
			inPred: inPred,
			predSlot: func() int {
				if inPred {
					return slot
				}
				return 0
			}(),
			anchor: anchor,
			loose:  s.Axis == xpath.Descendant || s.Axis == xpath.DescendantOrSelf,
		}
		if q.loose && inPred && cur == anchor {
			anchor.looseLeaves = append(anchor.looseLeaves, slot)
		}
		if s.Test == xpath.TestName {
			uri := ""
			if s.Prefix != "" {
				u, ok := nsMap[s.Prefix]
				if !ok {
					return nil, fmt.Errorf("quickxscan: unbound prefix %q in query", s.Prefix)
				}
				uri = u
			}
			uriID, err := names.Intern(uri)
			if err != nil {
				return nil, err
			}
			localID, err := names.Intern(s.Local)
			if err != nil {
				return nil, err
			}
			q.name = xml.QName{URI: uriID, Local: localID}
			if required && s.Axis != xpath.Attribute {
				e.need |= xml.SigBit(localID)
			}
		}
		e.nodes = append(e.nodes, q)
		// Compile this step's predicates.
		for _, pe := range s.Preds {
			compiled, err := e.compilePred(pe, q, names, nsMap, required)
			if err != nil {
				return nil, err
			}
			q.preds = append(q.preds, compiled)
		}
		cur = q
	}
	return cur, nil
}

func (e *Eval) compilePred(pe xpath.Expr, anchor *qnode, names xml.Names, nsMap map[string]string, required bool) (predExpr, error) {
	switch x := pe.(type) {
	case xpath.And:
		l, err := e.compilePred(x.L, anchor, names, nsMap, required)
		if err != nil {
			return nil, err
		}
		r, err := e.compilePred(x.R, anchor, names, nsMap, required)
		if err != nil {
			return nil, err
		}
		return peAnd{l, r}, nil
	case xpath.Or:
		l, err := e.compilePred(x.L, anchor, names, nsMap, false)
		if err != nil {
			return nil, err
		}
		r, err := e.compilePred(x.R, anchor, names, nsMap, false)
		if err != nil {
			return nil, err
		}
		return peOr{l, r}, nil
	case xpath.Not:
		inner, err := e.compilePred(x.E, anchor, names, nsMap, false)
		if err != nil {
			return nil, err
		}
		return peNot{inner}, nil
	case xpath.Exists:
		slot := anchor.numLeaves
		anchor.numLeaves++
		term, err := e.compileChain(x.Path, anchor, names, nsMap, true, slot, anchor, required)
		if err != nil {
			return nil, err
		}
		if term == anchor {
			return nil, errors.New("quickxscan: empty predicate path")
		}
		term.terminal = true
		term.makesCand = true
		return peLeaf{slot}, nil
	case xpath.Cmp:
		slot := anchor.numLeaves
		anchor.numLeaves++
		term, err := e.compileChain(x.Path, anchor, names, nsMap, true, slot, anchor, required)
		if err != nil {
			return nil, err
		}
		if term == anchor {
			// ". = lit" anchored directly: synthesize a self step.
			term = &qnode{
				id: len(e.nodes), axis: xpath.Self, test: xpath.TestNode,
				parent: anchor, inPred: true, predSlot: slot, anchor: anchor,
			}
			e.nodes = append(e.nodes, term)
		}
		term.terminal = true
		term.makesCand = true
		term.cmp = &cmpInfo{op: x.Op, lit: x.Lit, str: []byte(x.Lit.Str)}
		term.needValue = true
		return peLeaf{slot}, nil
	default:
		return nil, fmt.Errorf("quickxscan: unsupported predicate %T", pe)
	}
}

// Reset clears per-document state so the evaluator can scan another
// document.
func (e *Eval) Reset() {
	for _, q := range e.nodes {
		q.stack = q.stack[:0]
	}
	e.depth = 0
	e.openElems = e.openElems[:0]
	e.pushed = e.pushed[:0]
	e.valueMIs = e.valueMIs[:0]
	e.kept = e.kept[:0]
	e.live = 0
	e.inDoc = false
	e.err = nil
}

// Stats returns evaluation statistics (valid after EndDocument).
func (e *Eval) Stats() Stats { return e.stats }

// StartDocument begins a document.
func (e *Eval) StartDocument() {
	e.inDoc = true
	e.depth = 0
	docMI := &e.docMI
	docMI.reset(e.doc, 0, nil)
	e.push(e.doc, docMI)
	e.openElems = append(e.openElems, len(e.pushed))
	e.pushed = append(e.pushed, docMI)
}

// reset makes mi a fresh instance of q, keeping its buffers' capacity.
// Fields are set one by one: assigning a whole instance literal costs a
// struct copy per match.
func (mi *instance) reset(q *qnode, depth int, up *instance) {
	mi.q, mi.depth, mi.upTarget = q, depth, up
	mi.raw = mi.raw[:0]
	mi.valid = mi.valid[:0]
	mi.rawRemainder = mi.rawRemainder[:0]
	mi.leafVals = mi.leafVals[:0]
	mi.value = mi.value[:0]
	mi.closed = false
}

// newInstance takes an instance from the freelist or allocates one.
func (e *Eval) newInstance(q *qnode, depth int, up *instance) *instance {
	if n := len(e.free); n > 0 {
		mi := e.free[n-1]
		e.free = e.free[:n-1]
		mi.reset(q, depth, up)
		return mi
	}
	return &instance{q: q, depth: depth, upTarget: up}
}

// recycle returns a popped instance to the freelist.
func (e *Eval) recycle(mi *instance) {
	mi.upTarget = nil
	e.free = append(e.free, mi)
}

func (e *Eval) push(q *qnode, mi *instance) {
	q.stack = append(q.stack, mi)
	if q.numLeaves > 0 {
		if cap(mi.leafVals) >= q.numLeaves {
			mi.leafVals = mi.leafVals[:q.numLeaves]
			for i := range mi.leafVals {
				mi.leafVals[i] = false
			}
		} else {
			mi.leafVals = make([]bool, q.numLeaves)
		}
	}
	e.live++
	e.stats.Pushes++
	if e.live > e.stats.MaxLive {
		e.stats.MaxLive = e.live
	}
}

// findUpTarget locates the previous-step instance a new match should link
// to, per the axis. Only stack tops (and, for descendant axes, the top
// ancestor) are examined — the transitivity shortcut of §4.2.
func findUpTarget(q *qnode, depth int) *instance {
	st := q.parent.stack
	if len(st) == 0 {
		return nil
	}
	// Stack depths are non-decreasing upward, and instances pushed for the
	// current node during this same event may sit above the ancestor
	// instance an axis needs — scan down past them.
	switch q.axis {
	case xpath.Child, xpath.Attribute:
		for i := len(st) - 1; i >= 0 && st[i].depth >= depth-1; i-- {
			if st[i].depth == depth-1 {
				return st[i]
			}
		}
	case xpath.Self:
		for i := len(st) - 1; i >= 0 && st[i].depth >= depth; i-- {
			if st[i].depth == depth {
				return st[i]
			}
		}
	case xpath.Descendant:
		for i := len(st) - 1; i >= 0; i-- {
			if st[i].depth < depth {
				return st[i]
			}
		}
	case xpath.DescendantOrSelf:
		if st[len(st)-1].depth <= depth {
			return st[len(st)-1]
		}
	}
	return nil
}

// StartElement processes an element start. id is the node's ID (assigned by
// the caller: the packer's IDs for stored data, or stream-synthesized ones).
func (e *Eval) StartElement(name xml.QName, id nodeid.ID) {
	if !e.inDoc {
		return
	}
	e.depth++
	e.openElems = append(e.openElems, len(e.pushed))
	if !e.anyElem && e.elemNames&xml.SigBit(name.Local) == 0 {
		return // no query node tests this name
	}
	// Parents precede children in e.nodes, so self-axis chains see their
	// parent's instance pushed within this same event.
	for _, q := range e.elemNodes {
		if q.test == xpath.TestName && q.name != name {
			continue
		}
		tp := findUpTarget(q, e.depth)
		if tp == nil {
			continue
		}
		mi := e.newInstance(q, e.depth, tp)
		e.push(q, mi)
		e.pushed = append(e.pushed, mi)
		// Only element instances stay open across events; attribute and
		// text instances carry their whole value from their single event.
		if q.needValue {
			e.valueMIs = append(e.valueMIs, mi)
		}
	}
}

// CanSkip reports, for the element whose StartElement was just processed,
// whether its whole content can be stepped over: no query node can match
// anywhere below it and no open string value needs its text. A query node
// can still match below when
//
//   - its axis is descendant(-or-self) and its parent step has a live
//     instance (every live instance is an ancestor-or-self of this element),
//   - its axis is child or attribute and its parent step was pushed for this
//     very element, or
//   - its parent step can itself still match below.
//
// Only the verdict "none can" is needed, and the third case cannot hold
// unless one of the first two does somewhere up the query tree, so one pass
// over the query nodes testing the first two decides it in O(|Q|). The
// answer depends on the query and the open path alone, so a scan that skips
// when CanSkip says so returns exactly what a full scan returns; the caller
// still delivers EndElement.
func (e *Eval) CanSkip() bool {
	if len(e.valueMIs) > 0 {
		return false
	}
	for _, q := range e.nodes[1:] {
		st := q.parent.stack
		if len(st) == 0 {
			continue
		}
		switch q.axis {
		case xpath.Descendant, xpath.DescendantOrSelf:
			return false
		case xpath.Child, xpath.Attribute:
			if st[len(st)-1].depth == e.depth {
				return false
			}
		}
	}
	return true
}

// Attribute processes an attribute of the current element.
func (e *Eval) Attribute(name xml.QName, value []byte, id nodeid.ID) {
	if !e.inDoc {
		return
	}
	for _, q := range e.attrNodes {
		switch q.test {
		case xpath.TestName:
			if q.name != name {
				continue
			}
		case xpath.TestStar, xpath.TestNode:
		default:
			continue
		}
		tp := findUpTarget(q, e.depth+1) // attribute sits one level below its element
		if tp == nil {
			continue
		}
		mi := e.newInstance(q, e.depth+1, tp)
		mi.value = append(mi.value, value...)
		e.push(q, mi)
		e.finalize(mi, id)
		e.popInstant(q)
		e.recycle(mi)
	}
}

// Text processes a text node.
func (e *Eval) Text(value []byte, id nodeid.ID) {
	if !e.inDoc {
		return
	}
	// Accumulate into open string values.
	for _, mi := range e.valueMIs {
		mi.value = append(mi.value, value...)
	}
	e.instantLeaf(value, id, xpath.TestText)
}

// Comment processes a comment node.
func (e *Eval) Comment(value []byte, id nodeid.ID) {
	if !e.inDoc {
		return
	}
	e.instantLeaf(value, id, xpath.TestComment)
}

// instantLeaf matches leaf document nodes (text, comments) that live for a
// single event; kind is the node test that selects them besides node().
func (e *Eval) instantLeaf(value []byte, id nodeid.ID, kind xpath.TestKind) {
	for _, q := range e.leafNodes {
		if q.test != kind && q.test != xpath.TestNode {
			continue
		}
		tp := findUpTarget(q, e.depth+1)
		if tp == nil {
			continue
		}
		mi := e.newInstance(q, e.depth+1, tp)
		mi.value = append(mi.value, value...)
		e.push(q, mi)
		e.finalize(mi, id)
		e.popInstant(q)
		e.recycle(mi)
	}
}

// popInstant removes an instant instance pushed on top of q's stack.
func (e *Eval) popInstant(q *qnode) {
	q.stack = q.stack[:len(q.stack)-1]
	e.live--
}

// EndElement processes an element end: instances pushed for this element
// are finalized children-first (reverse push order) and popped.
func (e *Eval) EndElement(id nodeid.ID) {
	if !e.inDoc {
		return
	}
	start := e.openElems[len(e.openElems)-1]
	e.openElems = e.openElems[:len(e.openElems)-1]
	if start == len(e.pushed) {
		// Nothing was pushed for the element, so nothing closes: no
		// instance to finalize and no string value that ends here.
		e.depth--
		return
	}
	for i := len(e.pushed) - 1; i >= start; i-- {
		mi := e.pushed[i]
		e.finalize(mi, id)
		// Pop from its stack (it is necessarily on top).
		st := mi.q.stack
		if len(st) == 0 || st[len(st)-1] != mi {
			e.err = errors.New("quickxscan: stack discipline violated")
			return
		}
		mi.q.stack = st[:len(st)-1]
		e.live--
		// Sideways: pending raw candidates, and predicate leaves reached
		// through a descendant step, move to the next instance below (they
		// are contained in the outer matching too).
		if len(mi.q.stack) > 0 {
			below := mi.q.stack[len(mi.q.stack)-1]
			below.raw = append(below.raw, mi.rawRemainder...)
			for _, slot := range mi.q.looseLeaves {
				if mi.leafVals[slot] {
					below.leafVals[slot] = true
				}
			}
		}
		mi.rawRemainder = mi.rawRemainder[:0]
		e.recycle(mi)
	}
	e.pushed = e.pushed[:start]
	e.depth--
	// Prune value accumulators that closed.
	if len(e.valueMIs) > 0 {
		kept := e.valueMIs[:0]
		for _, mi := range e.valueMIs {
			if !mi.closed {
				kept = append(kept, mi)
			}
		}
		e.valueMIs = kept
	}
}

// EndDocument finishes the scan and returns the matches in document order.
func (e *Eval) EndDocument() ([]Match, error) {
	if e.err != nil {
		return nil, e.err
	}
	if !e.inDoc {
		return nil, errors.New("quickxscan: EndDocument without StartDocument")
	}
	e.openElems = e.openElems[:0]
	e.pushed = e.pushed[:0]
	docMI := &e.docMI
	e.inDoc = false
	// The document instance is trivially valid: everything raw is a result.
	docMI.valid = append(docMI.valid, docMI.raw...)
	out := docMI.valid
	e.doc.stack = e.doc.stack[:0]
	e.live--
	if len(out) == 0 {
		return nil, nil
	}
	kept := e.kept
	id := func(c cand) []byte { return kept[c.id.off:c.id.end] }
	slices.SortFunc(out, func(a, b cand) int { return bytes.Compare(id(a), id(b)) })
	// Defense in depth: propagation should be duplicate-free.
	out = slices.CompactFunc(out, func(a, b cand) bool { return bytes.Equal(id(a), id(b)) })
	// Matches outlive the scan: copy them out of the kept buffer into the
	// slabs, which no later document overwrites.
	size := 0
	for _, c := range out {
		size += c.id.end - c.id.off + c.value.end - c.value.off
	}
	if cap(e.bytesSlab)-len(e.bytesSlab) < size {
		e.bytesSlab = make([]byte, 0, SlabCap(cap(e.bytesSlab), size, 256, 4096))
	}
	if cap(e.matchSlab)-len(e.matchSlab) < len(out) {
		e.matchSlab = make([]Match, 0, SlabCap(cap(e.matchSlab), len(out), 8, 64))
	}
	own := func(s span) []byte {
		if s.off == s.end {
			return nil
		}
		start := len(e.bytesSlab)
		e.bytesSlab = append(e.bytesSlab, kept[s.off:s.end]...)
		return e.bytesSlab[start:len(e.bytesSlab):len(e.bytesSlab)]
	}
	start := len(e.matchSlab)
	for _, c := range out {
		e.matchSlab = append(e.matchSlab, Match{ID: own(c.id), Value: own(c.value)})
	}
	return e.matchSlab[start:len(e.matchSlab):len(e.matchSlab)], nil
}

// SlabCap is the capacity of the slab that replaces one of capacity old when
// need does not fit what is left of it: double the old one, from least up to
// most, so a short scan takes little and a long one few allocations — and
// never less than need.
func SlabCap(old, need, least, most int) int {
	return max(need, min(max(2*old, least), most))
}

// keep copies b into the kept buffer.
func (e *Eval) keep(b []byte) span {
	off := len(e.kept)
	e.kept = append(e.kept, b...)
	return span{off, len(e.kept)}
}

// finalize decides an instance's predicates and routes its candidate
// sequences (the Table-1 propagation, generalized). Sequences move between
// instance-owned buffers in place and a new candidate's ID and value go to
// the kept buffer, so nothing is allocated once the buffers are warm.
func (e *Eval) finalize(mi *instance, id nodeid.ID) {
	mi.closed = true
	q := mi.q
	selfValid := true
	for _, p := range q.preds {
		if !p.eval(mi.leafVals) {
			selfValid = false
			break
		}
	}
	if selfValid {
		mi.valid = append(mi.valid, mi.raw...)
		if q.makesCand && (q.cmp == nil || compare(mi.value, q.cmp)) {
			// A candidate that may become a result keeps its ID and value.
			// Inside a predicate chain only its existence matters (it ends
			// as leafVals[slot] = true), so nothing is kept.
			var c cand
			if !q.inPred {
				c.id = e.keep(id)
				if e.opts.NeedValues {
					c.value = e.keep(mi.value)
				}
			}
			mi.valid = append(mi.valid, c)
		}
	}
	if !selfValid || q.inPred {
		// Keep only re-targetable (loose) raw candidates for sideways moves. A
		// result candidate moves sideways only from an instance that failed,
		// or it would be returned twice; in a predicate chain a candidate is
		// mere existence, which holds for the outer instance too whatever
		// this one decided — and one candidate says it all.
		for _, c := range mi.raw {
			if c.loose {
				mi.rawRemainder = append(mi.rawRemainder, c)
				if q.inPred {
					break
				}
			}
		}
	}
	mi.raw = mi.raw[:0]
	if len(mi.valid) == 0 {
		return
	}
	// Cross the step boundary upward.
	up := mi.upTarget
	if q.inPred && q.parent == q.anchor {
		// Delivery into the anchor's predicate leaf.
		up.leafVals[q.predSlot] = true
		return
	}
	base := len(up.raw)
	up.raw = append(up.raw, mi.valid...)
	for i := base; i < len(up.raw); i++ {
		up.raw[i].loose = q.loose
	}
}

// compare applies the terminal comparison to a node's string value.
// Numeric literals compare numerically (unparsable values compare false,
// XPath's NaN behaviour); string literals compare lexicographically.
func compare(value []byte, c *cmpInfo) bool {
	if c.lit.IsNum {
		// ParseFloat does not retain its argument, so the conversion of a
		// short value stays on the stack.
		v, err := strconv.ParseFloat(string(bytes.TrimSpace(value)), 64)
		if err != nil {
			return false
		}
		return cmpOrd(c.op, compareFloat(v, c.lit.Num))
	}
	return cmpOrd(c.op, bytes.Compare(value, c.str))
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpOrd(op xpath.CmpOp, ord int) bool {
	switch op {
	case xpath.EQ:
		return ord == 0
	case xpath.NE:
		return ord != 0
	case xpath.LT:
		return ord < 0
	case xpath.LE:
		return ord <= 0
	case xpath.GT:
		return ord > 0
	case xpath.GE:
		return ord >= 0
	}
	return false
}
