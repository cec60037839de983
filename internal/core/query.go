package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"rx/internal/catalog"
	"rx/internal/memgov"
	"rx/internal/nodeid"
	"rx/internal/stats"
	"rx/internal/valueindex"
	"rx/internal/xml"
	"rx/internal/xpath"
)

// Result is one query match.
type Result struct {
	Doc  xml.DocID
	Node nodeid.ID
	// Value is the node's string value when requested via QueryValues.
	Value []byte
}

// Plan reports the access method chosen for a query (§4.3, Table 2).
type Plan struct {
	// Method is one of "scan", "nodeid-list", "nodeid-anding",
	// "nodeid-filtering", "docid-list", "docid-anding", "docid-oring".
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
	// Parallelism is the number of workers that visited the candidates (1
	// for serial execution).
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
}

// PlanAlt is one candidate access path the planner considered.
type PlanAlt struct {
	Method  string
	EstDocs int
	EstCost float64
}

// QueryOptions tune one query execution.
type QueryOptions struct {
	// Parallelism caps the worker goroutines that visit the plan's
	// candidates — documents, subtrees or exact result nodes, whichever the
	// access method lists: 0 picks runtime.NumCPU(), 1 forces serial
	// execution.
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
	// full candidate list.
	ForceMethod string
}

func (o QueryOptions) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// ctxCheckEvery is how many index entries a scan visits between
// cancellation checks.
const ctxCheckEvery = 1024

// CreateValueIndex creates an XPath value index (§3.3) and backfills it from
// the stored documents. The path must be a simple XPath expression without
// predicates; typ is one of xml.TString, TDouble, TDate, TDecimal.
func (c *Collection) CreateValueIndex(name, path string, typ xml.TypeID) error {
	if err := c.db.checkWritable(); err != nil {
		return err
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	for _, ov := range c.valIxs {
		if ov.meta.Name == name {
			return fmt.Errorf("core: index %q already exists on %s", name, c.meta.Name)
		}
	}
	ix, err := valueindex.Create(c.db.pool, path, typ)
	if err != nil {
		return err
	}
	im := catalog.ValueIndexMeta{Name: name, Path: path, Type: typ, Meta: ix.MetaPage()}
	kg, err := c.compileKeygen(ix.Path())
	if err != nil {
		return err
	}
	ov := &openValueIndex{meta: im, ix: ix, keygen: kg}
	// Backfill from existing documents.
	docs, err := c.DocIDs()
	if err != nil {
		return err
	}
	for _, doc := range docs {
		r, err := c.reader(doc)
		if err != nil {
			return err
		}
		keys, err := r.eval(kg)
		if err != nil {
			return err
		}
		if err := r.putValueKeys(ix, keys); err != nil {
			return err
		}
	}
	c.ixMu.Lock()
	c.valIxs = append(c.valIxs, ov)
	c.ixMu.Unlock()
	c.meta.Indexes = append(c.meta.Indexes, im)
	// Seed the new index's statistics exactly from the backfilled entries
	// (the backfill just wrote them; one ordered scan builds cardinality and
	// histogram), bump the stats epoch so cached plans replan against the
	// new index, and persist index list + statistics in one row write.
	b := stats.NewBuilder(stats.HistogramBuckets)
	if err := ix.Scan(valueindex.Range{}, func(e valueindex.Entry) bool {
		b.Add(e.EncodedValue)
		return true
	}); err != nil {
		return err
	}
	c.statsMu.Lock()
	is := c.live.EnsureIndex(name)
	is.Entries = b.Count()
	is.Distinct = b.Distinct()
	is.Hist = b.Build()
	c.live.Epoch++
	c.statsDirty = 0
	snap := c.live.Clone()
	c.statsMu.Unlock()
	return c.db.cat.UpdateCollectionStats(c.meta, snap)
}

// ValueIndexes lists the collection's value index names.
func (c *Collection) ValueIndexes() []string {
	var names []string
	for _, ov := range c.indexSnapshot() {
		names = append(names, ov.meta.Name)
	}
	return names
}

// ValueIndex returns an open value index by name (stats, experiments).
func (c *Collection) ValueIndex(name string) *valueindex.Index {
	for _, ov := range c.indexSnapshot() {
		if ov.meta.Name == name {
			return ov.ix
		}
	}
	return nil
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
// (DocID, NodeID) order. Every access method visits its candidates lazily —
// in parallel when opts.Parallelism allows — so callers iterate without
// materializing the full result set. The caller must Close the cursor.
func (c *Collection) Cursor(expr string, opts QueryOptions) (*Cursor, error) {
	p, err := c.Plan(expr, opts)
	if err != nil {
		return nil, err
	}
	return c.CursorPlanned(p, opts)
}

// Plan parses expr and runs access-path selection without executing the
// query: the returned Plan carries the chosen method, its cost estimates,
// and every alternative considered. EXPLAIN and the session plan cache are
// built on it; pass it to CursorPlanned to execute.
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

// CursorPlanned executes a plan produced by Plan. The plan is not consumed:
// execution works on a copy, so a cached plan can be executed repeatedly.
func (c *Collection) CursorPlanned(p *Plan, opts QueryOptions) (*Cursor, error) {
	if err := opts.context().Err(); err != nil {
		return nil, err
	}
	if opts.MemLimit > 0 {
		opts.Mem = opts.Mem.Child("query", opts.MemLimit)
	}
	cp := *p
	cp.Indexes = append([]string(nil), p.Indexes...)
	cp.Alternatives = append([]PlanAlt(nil), p.Alternatives...)
	plan := &cp
	plan.Parallelism = 1
	list, err := c.candidates(opts.context(), plan.recipe)
	if err != nil {
		return nil, err
	}
	if !plan.Exact {
		plan.CandidateDocs = len(list.keys)
	}
	return c.newCursor(plan, list, opts)
}

// planConjunct is one usable comparison conjunct with its matched index.
type planConjunct struct {
	ov    *openValueIndex
	rng   valueindex.Range
	exact bool
	// level is the spine level the predicate anchors at (1-based).
	level int
}

// recipe is a candidate plan's execution, one fixed shape for every §4.3
// access method (Table 2): scan each conjunct's value-index range, cut each
// entry's node ID to level, and combine the conjuncts' keys by AND (or, with
// or set, by OR); candidates turns it into sorted keys and the cursor visits
// each one. A level-0 key is a document to evaluate (a scan has no
// conjuncts and lists every document); a deeper key is a subtree to
// evaluate, or, when the plan is Exact, the result node itself.
type recipe struct {
	conjuncts []planConjunct
	or        bool
	level     int
}

// Cost model constants. Units are abstract ("roughly one record fetch");
// only ratios matter. They price the work each access path actually does:
// scans evaluate every document (fetch its records, run QuickXScan);
// index paths pay a probe to position the B+tree, a per-entry cost to walk
// matching entries, and — for node-level paths — a per-entry cost to derive
// and deduplicate result/subtree prefixes; filtering paths then re-evaluate
// candidate documents or subtrees.
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

// selectAccessPath implements §4.3 access-path selection, costed: it builds
// every candidate the query admits — exact DocID/NodeID lists when index and
// predicate match exactly, filtering when the index path merely contains the
// query path, ANDing/ORing across multiple indexes, and always the parallel
// scan — prices each against the collection's statistics, and returns the
// cheapest (or the candidate named by opts.ForceMethod). valIxs is the
// caller's snapshot of the collection's value indexes.
func (c *Collection) selectAccessPath(q *xpath.Query, valIxs []*openValueIndex, opts QueryOptions) (*Plan, error) {
	spine := spineSteps(q)
	// Predicates on any spine step can narrow the candidate documents; only
	// result-step predicates can support exact node-level access (the
	// result node is then a node-ID prefix of the predicate node).
	type anchored struct {
		stepIdx int
		expr    xpath.Expr
	}
	var conjuncts []anchored
	for i, s := range spine {
		for _, p := range s.Preds {
			for _, e := range flattenAnd(p) {
				conjuncts = append(conjuncts, anchored{stepIdx: i, expr: e})
			}
		}
	}
	var matched []planConjunct
	var orParts []planConjunct
	unindexed := 0
	resultIdx := len(spine) - 1
	allOnResult := true
	for _, conj := range conjuncts {
		switch e := conj.expr.(type) {
		case xpath.Cmp:
			if pc, ok := matchIndex(valIxs, spine[:conj.stepIdx+1], e); ok {
				matched = append(matched, pc)
				if conj.stepIdx != resultIdx {
					allOnResult = false
				}
				continue
			}
		case xpath.Or:
			// ORing applies when both sides are indexable comparisons and
			// this is the only conjunct (otherwise treat as unindexed).
			l, lok := e.L.(xpath.Cmp)
			r, rok := e.R.(xpath.Cmp)
			if lok && rok && len(matched) == 0 && len(conjuncts) == 1 {
				pl, okl := matchIndex(valIxs, spine[:conj.stepIdx+1], l)
				pr, okr := matchIndex(valIxs, spine[:conj.stepIdx+1], r)
				if okl && okr {
					orParts = []planConjunct{pl, pr}
					continue
				}
			}
		}
		unindexed++
	}

	allExact := len(matched) > 0
	for _, pc := range matched {
		if !pc.exact {
			allExact = false
		}
	}
	// Eligibility of the node-level candidates (§4.3): exact lists need
	// every conjunct exact and anchored at the result step over a pure
	// child-axis spine; subtree filtering needs a single conjunct whose
	// anchor is reachable by a pure child-axis prefix and no predicate
	// residue outside the subtree.
	nodeListOK := allExact && allOnResult && unindexed == 0 &&
		len(orParts) == 0 && pureChildSpine(spine)
	anchor := 0
	filterOK := len(matched) == 1 && unindexed == 0 && len(orParts) == 0
	if filterOK {
		anchor = matched[0].level
		filterOK = pureChildSpine(spine[:anchor])
	}

	// Statistics snapshot: everything the cost formulas need, read under
	// one short critical section (histogram probes are pure functions of
	// immutable buckets).
	c.statsMu.Lock()
	n := float64(c.live.DocCount)
	rpd := c.live.RecordsPerDoc()
	avgKB := float64(c.live.AvgDocBytes()) / 1024
	ests := make([]float64, len(matched))
	for i, pc := range matched {
		ests[i] = estimateConjunct(c.live.Index(pc.ov.meta.Name), pc.rng)
	}
	var orEsts [2]float64
	if len(orParts) == 2 {
		orEsts[0] = estimateConjunct(c.live.Index(orParts[0].ov.meta.Name), orParts[0].rng)
		orEsts[1] = estimateConjunct(c.live.Index(orParts[1].ov.meta.Name), orParts[1].rng)
	}
	var anchorCount float64
	if filterOK {
		anchorCount = float64(c.live.PathCounts[spinePath(spine[:anchor])])
	}
	c.statsMu.Unlock()

	// Evaluating a document costs a fetch per packed record plus an
	// evaluation pass over its content: a large document is proportionally
	// more expensive to rehydrate and walk than a small one, whether its
	// bulk sits in one packed record or many.
	perDoc := rpd*costFetchRecord + costEvalRecord + costEvalPerKB*avgKB
	var cands []*Plan

	// Parallel full scan: always a candidate (and the differential oracle).
	cands = append(cands, &Plan{
		Method:  "scan",
		EstDocs: int(math.Round(n)),
		EstCost: n * perDoc,
	})

	if len(orParts) == 2 {
		e := orEsts[0] + orEsts[1]
		d := math.Min(n, e)
		cands = append(cands, &Plan{
			Method:  "docid-oring",
			Indexes: []string{orParts[0].ov.meta.Name, orParts[1].ov.meta.Name},
			EstDocs: int(math.Round(d)),
			EstCost: 2*costIndexProbe + e*costIndexEntry + d*perDoc,
			recipe:  recipe{conjuncts: orParts, or: true},
		})
	}

	if len(matched) > 0 && len(orParts) == 0 {
		// DocID filtering: probe the most selective index first, then add
		// further indexes greedily — an index joins the intersection only
		// when its probe costs less than the document evaluations it is
		// expected to save (this prunes the wasteful members of the old
		// always-AND-everything plan and fixes its arbitrary order).
		order := make([]int, len(matched))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			ia, ib := order[a], order[b]
			if ests[ia] != ests[ib] {
				return ests[ia] < ests[ib]
			}
			return matched[ia].ov.meta.Name < matched[ib].ov.meta.Name
		})
		first := order[0]
		included := []planConjunct{matched[first]}
		names := []string{matched[first].ov.meta.Name}
		cost := costIndexProbe + ests[first]*costIndexEntry
		d := math.Min(n, ests[first])
		for _, i := range order[1:] {
			sel := 1.0
			if n > 0 {
				sel = math.Min(n, ests[i]) / n
			}
			saving := d * (1 - sel) * perDoc
			probe := costIndexProbe + ests[i]*costIndexEntry
			if probe < saving {
				included = append(included, matched[i])
				names = append(names, matched[i].ov.meta.Name)
				cost += probe
				d *= sel
			}
		}
		method := "docid-list"
		if len(included) > 1 {
			method = "docid-anding"
		}
		cands = append(cands, &Plan{
			Method:  method,
			Indexes: names,
			EstDocs: int(math.Round(d)),
			EstCost: cost + d*perDoc,
			recipe:  recipe{conjuncts: included},
		})
	}

	if nodeListOK {
		// Exact node-level access: every conjunct's entries are walked and
		// intersected at the node level; no document is re-evaluated. All
		// conjuncts participate (dropping one would widen the exact result).
		cost := 0.0
		res := math.Inf(1)
		var names []string
		for i, pc := range matched {
			cost += costIndexProbe + ests[i]*(costIndexEntry+costNodeEntry)
			names = append(names, pc.ov.meta.Name)
			res = math.Min(res, ests[i])
		}
		for i := range matched {
			if n > 0 && ests[i] > res {
				res *= math.Min(n, ests[i]) / n
			}
		}
		if opts.NeedValues {
			cost += res * costResultValue
		}
		method := "nodeid-list"
		if len(matched) > 1 {
			method = "nodeid-anding"
		}
		cands = append(cands, &Plan{
			Method:  method,
			Indexes: names,
			Exact:   true,
			EstDocs: int(math.Round(res)),
			EstCost: cost,
			recipe:  recipe{conjuncts: matched, level: len(spine)},
		})
	}

	if filterOK {
		// NodeID filtering: re-evaluate only the anchor subtrees. A subtree
		// is priced as the anchor's share of a document (per-path element
		// counts give anchors-per-document) plus a fixed seek cost.
		e := ests[0]
		subtrees := e
		perSub := costSubtreeBase + perDoc
		if anchorCount > 0 && n > 0 {
			subtrees = math.Min(subtrees, anchorCount)
			perSub = costSubtreeBase + perDoc/(anchorCount/n)
		}
		cands = append(cands, &Plan{
			Method:  "nodeid-filtering",
			Indexes: []string{matched[0].ov.meta.Name},
			EstDocs: int(math.Round(subtrees)),
			EstCost: costIndexProbe + e*(costIndexEntry+costNodeEntry) + subtrees*perSub,
			recipe:  recipe{conjuncts: matched, level: anchor},
		})
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
		chosen = nil
		for _, p := range cands {
			if p.Method == opts.ForceMethod {
				chosen = p
				break
			}
		}
		if chosen == nil {
			return nil, fmt.Errorf("core: access method %q not available for this query", opts.ForceMethod)
		}
	}
	chosen.Alternatives = alts
	chosen.q = q
	return chosen, nil
}

// estimateConjunct estimates how many index entries a conjunct's range scan
// will visit. Caller holds statsMu.
func estimateConjunct(is *stats.IndexStats, rng valueindex.Range) float64 {
	if rng.Lo != nil && rng.Hi != nil && !rng.LoStrict && !rng.HiStrict && bytes.Equal(rng.Lo, rng.Hi) {
		return is.EstimateEq(rng.Lo)
	}
	return is.EstimateRange(rng.Lo, rng.Hi, rng.LoStrict, rng.HiStrict)
}

// spinePath renders a pure child-axis spine prefix as a PathCounts key.
func spinePath(spine []*xpath.Step) string {
	var b strings.Builder
	for _, s := range spine {
		b.WriteByte('/')
		b.WriteString(s.Local)
	}
	return b.String()
}

// matchIndex finds an index usable for the comparison predicate anchored at
// the last step of prefix: the full predicate path (spine prefix + leaf
// path) must be covered by the index path and the literal must be
// comparable under the index's key type.
func matchIndex(valIxs []*openValueIndex, prefix []*xpath.Step, cmp xpath.Cmp) (planConjunct, bool) {
	if cmp.Op == xpath.NE {
		return planConjunct{}, false // no contiguous range
	}
	full := fullPredicatePath(prefix, cmp.Path)
	if full == nil {
		return planConjunct{}, false
	}
	var best *planConjunct
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
		pc := planConjunct{ov: ov, rng: rng, exact: exact, level: len(prefix)}
		if best == nil || (exact && !best.exact) {
			b := pc
			best = &b
		}
	}
	if best == nil {
		return planConjunct{}, false
	}
	return *best, true
}

// typeCompatible: numeric literals need a numeric index; string literals a
// string or date index.
func typeCompatible(typ xml.TypeID, lit xpath.Literal) bool {
	if lit.IsNum {
		return typ == xml.TDouble || typ == xml.TDecimal
	}
	return typ == xml.TString || typ == xml.TDate
}

// spineSteps lists the query's spine steps.
func spineSteps(q *xpath.Query) []*xpath.Step {
	var out []*xpath.Step
	for s := q.Steps; s != nil; s = s.Next {
		out = append(out, s)
	}
	return out
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
		cp.Preds = nil
		cp.Next = nil
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
	out := &xpath.Query{Rooted: true}
	for i := range steps {
		if i > 0 {
			steps[i-1].Next = &steps[i]
		}
	}
	out.Steps = &steps[0]
	return out
}

// candidate is one key of a recipe's candidate list: a document and, for
// node-level plans, a subtree root or result node within it, whose ID is
// ids[lo:hi] of the list's buffer (lo == hi: the document itself). Keys hold
// no pointer: a list of thousands is one allocation the collector need not
// scan.
type candidate struct {
	doc    xml.DocID
	lo, hi uint32
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
			l.keys[i].doc = d
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
		k := candidate{e.Doc, lo, lo + uint32(len(prefix))}
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
// (read-committed at document granularity). The DocID index is re-checked: a
// live document with a missing record is damage, and stays an error for
// scrub to see.
func (c *Collection) deletedUnder(doc xml.DocID, err error) bool {
	return errors.Is(err, ErrNotFound) && !c.Has(doc)
}
