package core

// Access-path selection (§4.3): every candidate a query admits is a recipe,
// priced by one cost function and named by its shape; the cheapest becomes
// the Plan that exec.go runs.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"rx/internal/memgov"
	"rx/internal/valueindex"
	"rx/internal/xml"
	"rx/internal/xpath"
)

// Plan reports the access method chosen for a query (§4.3, Table 2).
type Plan struct {
	// Method names the access method; the recipe's shape decides it (see
	// recipe.method for the seven names).
	Method string
	// Indexes names the XPath value indexes used, in probe order (the
	// planner probes the most selective first).
	Indexes []string
	// Exact is true when the index result needed no re-evaluation on the
	// documents.
	Exact bool
	// CandidateDocs is the number of candidates re-evaluated: documents,
	// or subtrees for nodeid-filtering (0 for exact node-level access; the
	// collection size for a scan).
	CandidateDocs int
	// Parallelism is the number of workers that visited the candidates,
	// the caller's goroutine included (1 for serial execution).
	Parallelism int
	// EstDocs is the planner's cardinality estimate: documents (or, for
	// node-level plans, subtrees/result nodes) the plan expects to touch.
	EstDocs int
	// EstCost is the plan's estimated cost in the planner's abstract units
	// (roughly: one unit per record fetched).
	EstCost float64
	// Alternatives lists every candidate the planner priced, cheapest
	// first; the chosen plan is among them. EXPLAIN surfaces this.
	Alternatives []PlanAlt

	q      *xpath.Query
	recipe recipe
	// perCandidate is the priced cost of visiting one candidate key: what
	// the cursor weighs against fanOutCost to decide its workers.
	perCandidate float64
}

// PlanAlt is one candidate access path the planner considered.
type PlanAlt struct {
	Method  string
	EstDocs int
	EstCost float64
}

// QueryOptions tune one query execution.
type QueryOptions struct {
	// Parallelism is the number of workers, the caller's goroutine
	// included, that visit the plan's candidates — documents, subtrees or
	// exact result nodes, whichever the access method lists: 0 = the engine
	// decides from the candidates' priced work, at most GOMAXPROCS; 1
	// forces serial execution.
	Parallelism int
	// Limit stops the query after this many results (0 = unlimited).
	Limit int
	// Ctx cancels the query between candidates; nil means
	// context.Background().
	Ctx context.Context
	// NeedValues includes each result node's string value.
	NeedValues bool
	// Degraded keeps a query running over a partially damaged collection:
	// quarantined documents are skipped (counted in Cursor.Skipped) instead
	// of failing the cursor, and a checksum error during evaluation
	// auto-quarantines the document and continues. Without it, touching a
	// quarantined document fails the cursor with a typed ErrQuarantined.
	Degraded bool
	// Mem, when non-nil, charges the cursor's buffered result batches
	// against a memory budget; a breach fails the cursor with
	// rxerr.ErrOverBudget instead of buffering without bound.
	Mem *memgov.Budget
	// MemLimit, when positive, caps this one query: Cursor derives a
	// per-query child of Mem (scope "query") so an oversized result set is
	// denied at the query even when the session and server budgets still
	// have room.
	MemLimit int64
	// ForceMethod, when set, bypasses cost-based selection and executes the
	// named access method. The method must be among the candidates the
	// query admits ("scan" always is) or planning fails. Used by the
	// differential planner tests and benchmarks; EXPLAIN still reports the
	// full candidate list. A name is available only as a priced alternative
	// carries it: the DocID candidate is named after the indexes the greedy
	// pruning kept, so docid-anding is unavailable when that pruning keeps
	// one index, even if several match (that plan is docid-list). Likewise,
	// conjuncts the planner merges into one bounded range (same index, same
	// anchor, mergeConjuncts) are one conjunct: their docid-anding and
	// nodeid-anding are no longer alternatives (the plans are *-list).
	ForceMethod string
}

func (o QueryOptions) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// Plan parses expr and runs access-path selection without executing the
// query: the returned Plan carries the chosen method, its cost estimates,
// and every alternative considered. EXPLAIN and every query are built on
// it, once per execution; pass it to CursorPlanned to execute.
func (c *Collection) Plan(expr string, opts QueryOptions) (*Plan, error) {
	q, err := xpath.Parse(expr)
	if err != nil {
		return nil, err
	}
	if !q.Rooted {
		return nil, errors.New("core: collection queries must be rooted paths")
	}
	return c.selectAccessPath(q, c.indexSnapshot(), opts)
}

// planConjunct is one usable comparison conjunct with its matched index and
// the statistics its recipes are priced with.
type planConjunct struct {
	ov    *openValueIndex
	rng   valueindex.Range
	exact bool
	// level is the spine level the predicate anchors at (1-based).
	level int
	// path is the full predicate path (spine prefix + leaf); oneNode is set
	// when the leaf selects at most one node per anchor in any document.
	path    *xpath.Query
	oneNode bool
	// est is the index's estimate of the entries rng covers (a dive).
	est float64
	// anchors estimates the subtrees NodeID filtering could re-evaluate, read
	// only when the conjunct can drive it: a whole-range dive into the same
	// index, one per entry (selectAccessPath states the rule); 0 if unknown.
	anchors float64
}

// recipe is a candidate plan's execution, one fixed shape for every §4.3
// access method (Table 2): scan each conjunct's value-index range, cut each
// entry's node ID to level, and combine the conjuncts' keys by AND (or, with
// or set, by OR); candidates turns it into sorted keys and the cursor visits
// each one. A level-0 key is a document to evaluate (a scan has no
// conjuncts and lists every document); a deeper key is a subtree to
// evaluate, or, when exact, the result node itself. The shape alone names
// the access method, lists its indexes and, through price, costs it.
type recipe struct {
	conjuncts []planConjunct
	or        bool
	level     int
	exact     bool
}

// method names the access method the recipe's shape implements.
func (rc recipe) method() string {
	and := len(rc.conjuncts) > 1
	switch {
	case len(rc.conjuncts) == 0:
		return "scan"
	case rc.or:
		return "docid-oring"
	case rc.exact && and:
		return "nodeid-anding"
	case rc.exact:
		return "nodeid-list"
	case rc.level > 0:
		return "nodeid-filtering"
	case and:
		return "docid-anding"
	}
	return "docid-list"
}

// indexes names the recipe's value indexes in probe order.
func (rc recipe) indexes() []string {
	var names []string
	for _, pc := range rc.conjuncts {
		names = append(names, pc.ov.meta.Name)
	}
	return names
}

// Cost model constants. Units are abstract ("roughly one record fetch");
// only ratios matter. They price the work each access path actually does:
// scans evaluate every document (fetch its records, run QuickXScan);
// index paths pay a probe to position the B+tree, a per-entry cost to walk
// matching entries, and — for node-level paths — a per-entry cost to derive
// and deduplicate result/subtree prefixes; filtering paths then re-evaluate
// candidate documents or subtrees. Only price reads them.
const (
	costFetchRecord = 1.0  // fetch + decode one packed record
	costEvalRecord  = 2.0  // fixed per-document evaluation overhead (setup)
	costEvalPerKB   = 12.0 // evaluate one KiB of document content (walk, match)
	costIndexEntry  = 0.25 // visit one value-index entry in a range scan
	costIndexProbe  = 2.0  // position one B+tree range scan
	costNodeEntry   = 0.25 // derive + dedupe a node-ID prefix per entry
	costResultValue = 0.5  // materialize one result node's string value
	costSubtreeBase = 0.5  // per-subtree setup (NodeID probe, record seek)
)

// planStats is the collection-wide statistics snapshot recipes are priced
// against; per-conjunct estimates ride on the conjuncts.
type planStats struct {
	docs, recordsPerDoc, avgKB float64
	values                     bool // result values are materialized
}

// price estimates what a recipe touches — documents, or for node-level
// recipes subtrees or result nodes — what it costs, and what visiting one of
// its candidate keys costs (per: perDoc, perSub, or an exact key's value).
// The formula is chosen by the recipe's shape:
//
//	scan:              docs·perDoc
//	OR (level 0):      Σprobe + Σest·entry + min(docs, Σest)·perDoc
//	AND, level 0:      Σ(probe + est·entry) + d·perDoc, d = min(docs, est₁)·Π sel
//	AND, exact:        Σ(probe + est·(entry+node)) [+ res·value]
//	AND, level k:      probe + est·(entry+node) + subtrees·perSub
//
// perDoc, evaluating one document, is a fetch per packed record plus a pass
// over its content, so it grows with document size however it is packed.
func (ps planStats) price(rc recipe) (docs, cost, per float64) {
	n := ps.docs
	perDoc := ps.recordsPerDoc*costFetchRecord + costEvalRecord + costEvalPerKB*ps.avgKB
	switch {
	case len(rc.conjuncts) == 0:
		return n, n * perDoc, perDoc
	case rc.or:
		e := 0.0
		for _, pc := range rc.conjuncts {
			e += pc.est
		}
		d := math.Min(n, e)
		return d, float64(len(rc.conjuncts))*costIndexProbe + e*costIndexEntry + d*perDoc, perDoc
	}
	// AND: every conjunct's range is probed and walked; node-level recipes
	// also derive and deduplicate a node-ID prefix per entry.
	entry := costIndexEntry
	if rc.level > 0 {
		entry += costNodeEntry
	}
	for _, pc := range rc.conjuncts {
		cost += costIndexProbe + pc.est*entry
	}
	switch {
	case rc.level == 0:
		// DocID filtering: the first conjunct bounds the documents, each
		// further one keeps its selectivity's share of them.
		d := math.Min(n, rc.conjuncts[0].est)
		for _, pc := range rc.conjuncts[1:] {
			if n > 0 {
				d *= math.Min(n, pc.est) / n
			}
		}
		return d, cost + d*perDoc, perDoc
	case rc.exact:
		// Exact node-level access: no document is re-evaluated.
		res := math.Inf(1)
		for _, pc := range rc.conjuncts {
			res = math.Min(res, pc.est)
		}
		for _, pc := range rc.conjuncts {
			if n > 0 && pc.est > res {
				res *= math.Min(n, pc.est) / n
			}
		}
		if ps.values {
			per = costResultValue
		}
		return res, cost + res*per, per
	}
	// NodeID filtering: re-evaluate only the anchor subtrees. A subtree is
	// priced as the anchor's share of a document (anchors per document) plus
	// a fixed seek cost.
	pc := rc.conjuncts[0]
	subtrees := pc.est
	perSub := costSubtreeBase + perDoc
	if pc.anchors > 0 && n > 0 {
		subtrees = math.Min(subtrees, pc.anchors)
		perSub = costSubtreeBase + perDoc/(pc.anchors/n)
	}
	return subtrees, cost + subtrees*perSub, perSub
}

// plan prices a recipe and labels it: the one place a Plan is built.
func (ps planStats) plan(rc recipe) *Plan {
	docs, cost, per := ps.price(rc)
	return &Plan{
		Method:       rc.method(),
		Indexes:      rc.indexes(),
		Exact:        rc.exact,
		EstDocs:      int(math.Round(docs)),
		EstCost:      cost,
		recipe:       rc,
		perCandidate: per,
	}
}

// docIDRecipe builds the DocID-filtering recipe: probe the most selective
// index first, then add further indexes greedily — an index joins the
// intersection only when that lowers the recipe's price, i.e. when its probe
// costs less than the document evaluations it is expected to save (this
// prunes the wasteful members of an always-AND-everything plan and fixes
// its order).
func (ps planStats) docIDRecipe(matched []planConjunct) recipe {
	order := slices.Clone(matched)
	sort.SliceStable(order, func(a, b int) bool {
		if order[a].est != order[b].est {
			return order[a].est < order[b].est
		}
		return order[a].ov.meta.Name < order[b].ov.meta.Name
	})
	// A rejected conjunct's slot is overwritten by the next one tried.
	rc := recipe{conjuncts: order[:1:len(order)]}
	_, cost, _ := ps.price(rc)
	for _, pc := range order[1:] {
		with := recipe{conjuncts: append(rc.conjuncts, pc)}
		if _, c, _ := ps.price(with); c < cost {
			rc, cost = with, c
		}
	}
	return rc
}

// selectAccessPath implements §4.3 access-path selection, costed: it builds
// the recipe of every candidate the query admits — exact DocID/NodeID lists
// when index and predicate match exactly, filtering when the index path
// merely contains the query path, ANDing/ORing across multiple indexes, and
// always the parallel scan — prices each against the collection's
// statistics, and returns the cheapest (or the candidate named by
// opts.ForceMethod). valIxs is the caller's snapshot of the collection's
// value indexes.
func (c *Collection) selectAccessPath(q *xpath.Query, valIxs []*openValueIndex, opts QueryOptions) (*Plan, error) {
	var spine []*xpath.Step
	for s := q.Steps; s != nil; s = s.Next {
		spine = append(spine, s)
	}
	// Predicates on any spine step can narrow the candidate documents; only
	// result-step predicates can support exact node-level access (the
	// result node is then a node-ID prefix of the predicate node).
	var matched, orParts []planConjunct
	conjuncts, unindexed, exactAtResult := 0, 0, true
	for i, s := range spine {
		prefix := spine[:i+1]
		for _, p := range s.Preds {
			for _, e := range flattenAnd(p) {
				conjuncts++
				switch e := e.(type) {
				case xpath.Cmp:
					if pc, ok := matchIndex(valIxs, prefix, e); ok {
						matched = append(matched, pc)
						exactAtResult = exactAtResult && pc.exact && i == len(spine)-1
						continue
					}
				case xpath.Or:
					// ORing applies when both sides are indexable
					// comparisons and this is the only conjunct (checked
					// below); the OR itself counts as unindexed.
					l, lok := e.L.(xpath.Cmp)
					r, rok := e.R.(xpath.Cmp)
					if lok && rok {
						pl, okl := matchIndex(valIxs, prefix, l)
						pr, okr := matchIndex(valIxs, prefix, r)
						if okl && okr {
							orParts = []planConjunct{pl, pr}
						}
					}
				}
				unindexed++
			}
		}
	}
	if conjuncts != 1 {
		orParts = nil
	}
	matched = mergeConjuncts(matched)
	// Eligibility of the node-level candidates (§4.3): exact lists need
	// every conjunct exact and anchored at the result step over a pure
	// child-axis spine; subtree filtering needs a single conjunct whose
	// anchor is reachable by a pure child-axis prefix and no predicate
	// residue outside the subtree.
	nodeListOK := len(matched) > 0 && exactAtResult && unindexed == 0 && pureChildSpine(spine)
	filterOK := len(matched) == 1 && unindexed == 0 && pureChildSpine(spine[:matched[0].level])

	// The collection-wide numbers are the heap tables' own counts, read
	// without a lock (heap.Table.Count). Each conjunct's entries come from a
	// dive into its index. So do a filtering conjunct's anchors: the whole
	// index, one anchor per entry. An anchor with no indexed leaf is not
	// counted, one with two is counted twice, and entries an index path
	// covers off the predicate's path count too. A level-1 anchor is the
	// document element, so there are at most as many as documents.
	ps := planStats{values: opts.NeedValues, docs: float64(c.base.Count()), recordsPerDoc: 1}
	if ps.docs > 0 {
		ps.recordsPerDoc = max(1, float64(c.xmlTbl.Count())/ps.docs)
		ps.avgKB = float64(c.xmlTbl.Bytes()) / ps.docs / 1024
	}
	for _, pcs := range [][]planConjunct{matched, orParts} {
		for i := range pcs {
			est, err := pcs[i].ov.ix.Estimate(pcs[i].rng)
			if err != nil {
				return nil, err
			}
			pcs[i].est = est
		}
	}
	if filterOK {
		anchors, err := matched[0].ov.ix.Estimate(valueindex.Range{})
		if err != nil {
			return nil, err
		}
		if matched[0].level == 1 {
			anchors = min(anchors, ps.docs)
		}
		matched[0].anchors = anchors
	}

	// Parallel full scan: always a candidate (and the differential oracle).
	cands := []*Plan{ps.plan(recipe{})}
	if orParts != nil {
		cands = append(cands, ps.plan(recipe{conjuncts: orParts, or: true}))
	}
	if len(matched) > 0 {
		cands = append(cands, ps.plan(ps.docIDRecipe(matched)))
	}
	if nodeListOK {
		// Every conjunct participates: dropping one would widen the exact
		// result.
		cands = append(cands, ps.plan(recipe{conjuncts: matched, level: len(spine), exact: true}))
	}
	if filterOK {
		cands = append(cands, ps.plan(recipe{conjuncts: matched, level: matched[0].level}))
	}

	// Cheapest wins; ties break on method name so plans are deterministic.
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].EstCost != cands[b].EstCost {
			return cands[a].EstCost < cands[b].EstCost
		}
		return cands[a].Method < cands[b].Method
	})
	alts := make([]PlanAlt, len(cands))
	for i, p := range cands {
		alts[i] = PlanAlt{Method: p.Method, EstDocs: p.EstDocs, EstCost: p.EstCost}
	}
	chosen := cands[0]
	if opts.ForceMethod != "" {
		i := slices.IndexFunc(cands, func(p *Plan) bool { return p.Method == opts.ForceMethod })
		if i < 0 {
			return nil, fmt.Errorf("core: access method %q not available for this query", opts.ForceMethod)
		}
		chosen = cands[i]
	}
	chosen.Alternatives = alts
	chosen.q = q
	return chosen, nil
}

// matchIndex finds an index usable for the comparison predicate anchored at
// the last step of prefix: the full predicate path (spine prefix + leaf
// path) must be covered by the index path and the literal must be
// comparable under the index's key type. An operator without a contiguous
// range (!=) matches no index: RangeForOp rejects it.
func matchIndex(valIxs []*openValueIndex, prefix []*xpath.Step, cmp xpath.Cmp) (planConjunct, bool) {
	full := fullPredicatePath(prefix, cmp.Path)
	if full == nil {
		return planConjunct{}, false
	}
	var best planConjunct
	for _, ov := range valIxs {
		if !typeCompatible(ov.meta.Type, cmp.Lit) {
			continue
		}
		exact := xpath.Equivalent(ov.ix.Path(), full)
		if !exact && !xpath.Covers(ov.ix.Path(), full) {
			continue
		}
		rng, err := ov.ix.RangeForOp(cmp.Op, cmp.Lit)
		if err != nil {
			continue
		}
		if best.ov == nil || exact && !best.exact {
			best = planConjunct{ov: ov, rng: rng, exact: exact, level: len(prefix), path: full}
		}
	}
	// The anchor itself (.) or one named attribute of it: never two nodes.
	leaf := cmp.Path
	best.oneNode = leaf.Next == nil && (leaf.Axis == xpath.Self || leaf.Axis == xpath.Attribute && leaf.Test == xpath.TestName)
	return best, best.ov != nil
}

// mergeConjuncts rewrites the conjuncts that read one index at one anchor
// level over equivalent predicate paths as one conjunct over the intersection
// of their ranges: one bounded B+tree scan, priced on the window it reads,
// instead of two half-ranges walked in full and intersected afterwards. XPath
// comparisons are existential — <b>1</b><b>10</b> satisfies [b > 5 and b < 8]
// with no b inside the window — so merging is sound only where an anchor
// cannot hold two compared values: the leaf selects one node at most, or the
// index is SingleValued (no document has ever had two nodes on its path).
func mergeConjuncts(matched []planConjunct) []planConjunct {
	out := matched[:0]
	for _, pc := range matched {
		i := slices.IndexFunc(out, func(o planConjunct) bool {
			return o.ov == pc.ov && o.level == pc.level &&
				(o.oneNode && pc.oneNode || pc.ov.single.Load()) && xpath.Equivalent(o.path, pc.path)
		})
		if i < 0 {
			out = append(out, pc)
			continue
		}
		out[i].rng = intersectRange(out[i].rng, pc.rng)
	}
	return out
}

// intersectRange narrows a to the values b also admits; an empty
// intersection is a range whose low bound passes its high one.
func intersectRange(a, b valueindex.Range) valueindex.Range {
	switch {
	case b.Lo == nil:
	case a.Lo == nil || bytes.Compare(b.Lo, a.Lo) > 0:
		a.Lo, a.LoStrict = b.Lo, b.LoStrict
	case bytes.Equal(b.Lo, a.Lo):
		a.LoStrict = a.LoStrict || b.LoStrict
	}
	switch {
	case b.Hi == nil:
	case a.Hi == nil || bytes.Compare(b.Hi, a.Hi) < 0:
		a.Hi, a.HiStrict = b.Hi, b.HiStrict
	case bytes.Equal(b.Hi, a.Hi):
		a.HiStrict = a.HiStrict || b.HiStrict
	}
	return a
}

// typeCompatible: numeric literals need a numeric index; string literals a
// string or date index.
func typeCompatible(typ xml.TypeID, lit xpath.Literal) bool {
	if lit.IsNum {
		return typ == xml.TDouble || typ == xml.TDecimal
	}
	return typ == xml.TString || typ == xml.TDate
}

// pureChildSpine reports whether every spine step is a child-axis name test.
func pureChildSpine(spine []*xpath.Step) bool {
	for _, s := range spine {
		if s.Axis != xpath.Child || s.Test != xpath.TestName {
			return false
		}
	}
	return true
}

// flattenAnd decomposes nested conjunctions.
func flattenAnd(e xpath.Expr) []xpath.Expr {
	if a, ok := e.(xpath.And); ok {
		return append(flattenAnd(a.L), flattenAnd(a.R)...)
	}
	return []xpath.Expr{e}
}

// fullPredicatePath builds the rooted path "spine-prefix/leaf" used for
// index matching: the anchoring steps (without predicates) followed by the
// predicate's leaf path. Self-axis leaf paths use the prefix itself.
func fullPredicatePath(prefix []*xpath.Step, leaf *xpath.Step) *xpath.Query {
	var steps []xpath.Step
	for _, s := range prefix {
		cp := *s
		cp.Preds, cp.Next = nil, nil
		steps = append(steps, cp)
	}
	for s := leaf; s != nil; s = s.Next {
		if s.Axis == xpath.Self {
			if s.Test != xpath.TestNode || s.Next != nil || len(s.Preds) > 0 {
				return nil
			}
			continue // [. op lit]: the spine node's own value
		}
		if len(s.Preds) > 0 {
			return nil
		}
		cp := *s
		cp.Next = nil
		steps = append(steps, cp)
	}
	if len(steps) == 0 {
		return nil
	}
	for i := 1; i < len(steps); i++ {
		steps[i-1].Next = &steps[i]
	}
	return &xpath.Query{Rooted: true, Steps: &steps[0]}
}
