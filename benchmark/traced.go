package main

import (
	"bytes"
	"context"
	"time"

	"rx/benchmark/gen"
	"rx/benchmark/trace"
	"rx/internal/arena"
	"rx/internal/core"
	"rx/internal/nodeid"
	"rx/internal/pack"
	"rx/internal/quickxscan"
	"rx/internal/xml"
	"rx/internal/xmlparse"
	"rx/internal/xpath"
)

// tracer runs operations decomposed into spans around the public calls of
// each layer, as README.md "How to read a trace" lays out. It is the traced
// run's single driver.
type tracer struct {
	rec *trace.Recorder
	db  *core.DB

	// Query accounting for the core.* metrics.
	queries, scans            int
	candidates, results       int64
	estOverActual             float64
	serializedBytes           int64
	parsedBytes, packedBytes  int64
	packedRecords, packedDocs int64
	keygens                   map[string][]*quickxscan.Eval // collection → one evaluator per value index
	a                         *arena.Arena
	buf                       bytes.Buffer
}

func newTracer(rec *trace.Recorder, db *core.DB) *tracer {
	return &tracer{rec: rec, db: db, keygens: map[string][]*quickxscan.Eval{}, a: arena.New()}
}

// addKeygen compiles the evaluator the engine would run to generate one
// value index's keys, for the dry key-generation span.
func (t *tracer) addKeygen(col, path string) error {
	q, err := xpath.Parse(path)
	if err != nil {
		return err
	}
	e, err := quickxscan.Compile(q, t.db.Names(), nil, quickxscan.Options{NeedValues: true})
	if err != nil {
		return err
	}
	t.keygens[col] = append(t.keygens[col], e)
	return nil
}

// query: xpath.Parse → Collection.Plan → Collection.CursorPlanned + drain →
// NodeString per result when values are wanted.
func (t *tracer) query(ctx context.Context, col *core.Collection, op *gen.Op, parallelism int) (int64, bool) {
	type hit struct {
		doc  xml.DocID
		node nodeid.ID
	}
	var hits []hit
	qo := core.QueryOptions{Ctx: ctx, Parallelism: parallelism}
	start := time.Now()
	t.rec.Begin("op.query")
	defer t.rec.End()

	t.rec.Begin("xpath.parse")
	_, err := xpath.Parse(op.Expr)
	t.rec.End()
	if err != nil {
		return int64(time.Since(start)), false
	}
	t.rec.Begin("core.plan")
	plan, err := col.Plan(op.Expr, qo)
	t.rec.End()
	if err != nil {
		return int64(time.Since(start)), false
	}
	t.rec.Begin("core.exec")
	cur, err := col.CursorPlanned(plan, qo)
	if err == nil {
		for cur.Next() {
			r := cur.Result()
			hits = append(hits, hit{r.Doc, nodeid.Clone(r.Node)})
		}
		err = cur.Err()
		plan = cur.Plan() // now with the candidate count of the execution
		cur.Close()
	}
	t.rec.End()
	if err != nil {
		return int64(time.Since(start)), false
	}
	got := gen.Digest{Count: len(hits)}
	if op.Values {
		got.Count = 0
		t.rec.Begin("core.nodestring")
		for _, h := range hits {
			v, verr := col.NodeString(h.doc, h.node)
			if verr != nil {
				err = verr
				break
			}
			got.Add(v)
		}
		t.rec.End()
	}
	ns := int64(time.Since(start))

	t.queries++
	if plan.Method == "scan" {
		t.scans++
	}
	t.candidates += int64(plan.CandidateDocs)
	t.results += int64(len(hits))
	actual := max(plan.CandidateDocs, 1)
	t.estOverActual += float64(plan.EstDocs) / float64(actual)
	return ns, err == nil && got == op.Want
}

// get: Collection.WalkDoc with a handler that does nothing, then
// Collection.Serialize; the difference is the serializer's own time.
func (t *tracer) get(col *core.Collection, op *gen.Op, id xml.DocID) (int64, bool) {
	start := time.Now()
	t.rec.Begin("op.get")
	t.rec.Begin("core.walk")
	err := col.WalkDoc(id, trace.NopHandler{})
	t.rec.End()
	t.buf.Reset()
	if err == nil {
		t.rec.Begin("serialize")
		err = col.Serialize(id, &t.buf)
		t.rec.End()
	}
	t.rec.End()
	ns := int64(time.Since(start))
	b := t.buf.Bytes()
	t.serializedBytes += int64(len(b))
	return ns, err == nil && len(b) == op.WantLen && gen.HashBytes(b) == op.WantHash
}

// dryIngest repeats outside the engine what an insert does inside it before
// storage — parse, pack, one key-generation pass per value index — as spans
// under the operation in flight. The results are discarded.
func (t *tracer) dryIngest(col string, doc []byte) error {
	defer t.a.Reset()
	t.rec.Begin("xmlparse")
	stream, err := xmlparse.Parse(doc, t.db.Names(), xmlparse.Options{Arena: t.a})
	t.rec.End()
	if err != nil {
		return err
	}
	t.parsedBytes += int64(len(doc))
	t.rec.Begin("pack")
	err = pack.PackStreamArena(stream, 0, t.a, func(r pack.EncodedRecord) error {
		t.packedRecords++
		t.packedBytes += int64(len(r.Payload))
		return nil
	})
	t.rec.End()
	if err != nil {
		return err
	}
	t.packedDocs++
	for _, e := range t.keygens[col] {
		t.rec.Begin("quickxscan.keygen")
		_, err = quickxscan.EvalTokens(e, stream)
		t.rec.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// dryMaint repeats what an update does to maintain value indexes: one
// evaluation of the stored document per index before the change and one
// after it.
func (t *tracer) dryMaint(col *core.Collection, id xml.DocID) error {
	t.rec.Begin("valueindex.maint")
	defer t.rec.End()
	for pass := 0; pass < 2; pass++ {
		for _, e := range t.keygens[col.Name()] {
			if err := col.WalkDoc(id, trace.EvalHandler{E: e}); err != nil {
				return err
			}
			if _, err := e.EndDocument(); err != nil {
				return err
			}
		}
	}
	return nil
}

// reportQueries writes the planner and executor metrics.
func (t *tracer) reportQueries(r *result) {
	if t.queries == 0 {
		return
	}
	m := r.metrics
	n := float64(t.queries)
	m["xpath.parse_us"] = float64(t.rec.Sum("xpath.parse").TotalNS) / n / 1e3
	plan := t.rec.Sum("core.plan").TotalNS - t.rec.Sum("xpath.parse").TotalNS // Plan parses again
	m["core.plan_us"] = float64(max(plan, 0)) / n / 1e3
	m["core.exec_self_ms"] = float64(t.rec.Sum("core.exec").SelfNS) / 1e6
	m["core.candidate_docs_per_result"] = float64(t.candidates) / float64(max(t.results, 1))
	m["core.est_over_actual"] = t.estOverActual / n
	m["core.method_share.scan"] = float64(t.scans) / n
	m["core.method_share.index"] = 1 - float64(t.scans)/n
	m["quickxscan.docs_evaluated"] = float64(t.candidates)
}

// reportGets writes the traversal and serializer metrics.
func (t *tracer) reportGets(r *result) {
	walk, ser := t.rec.Sum("core.walk").TotalNS, t.rec.Sum("serialize").TotalNS
	if walk == 0 || t.serializedBytes == 0 {
		return
	}
	self := max(ser-walk, 1)
	r.metrics["serialize.busy_ms"] = float64(self) / 1e6
	r.metrics["serialize.mb_per_s"] = float64(t.serializedBytes) / 1e6 / (float64(self) / 1e9)
	r.metrics["pack.decode_mb_per_s"] = float64(t.serializedBytes) / 1e6 / (float64(walk) / 1e9)
}

// reportIngest writes the parse, pack and key-generation metrics.
func (t *tracer) reportIngest(r *result) {
	if t.packedDocs == 0 {
		return
	}
	parse := t.rec.Sum("xmlparse").TotalNS
	r.metrics["xmlparse.busy_ms"] = float64(parse) / 1e6
	r.metrics["xmlparse.mb_per_s"] = float64(t.parsedBytes) / 1e6 / (float64(max(parse, 1)) / 1e9)
	r.metrics["pack.busy_ms"] = float64(t.rec.Sum("pack").TotalNS) / 1e6
	r.metrics["pack.records_per_doc"] = float64(t.packedRecords) / float64(t.packedDocs)
	r.metrics["pack.bytes_per_user_byte"] = float64(t.packedBytes) / float64(t.parsedBytes)
	r.metrics["quickxscan.keygen_ms"] = float64(t.rec.Sum("quickxscan.keygen").TotalNS) / 1e6
}

// attributed is the share of the untraced time of the operations that the
// traced run assigns to a layer: for each kind, the self times of every
// span but the operation's own, per traced operation, over the untraced
// mean. The rest — glue between the benchmark's calls, and whatever the
// untraced path does that the decomposition does not — is unattributed.
func attributed(rec *trace.Recorder, untraced *tally, kinds ...gen.Kind) float64 {
	var layered, total float64
	for _, k := range kinds {
		layers := rec.Layers("op." + k.String())
		root := layers["op."+k.String()]
		if root.Count == 0 || len(untraced.byKind[k]) == 0 {
			continue
		}
		var self int64
		for name, lt := range layers {
			if name != "op."+k.String() {
				self += lt.SelfNS
			}
		}
		weight := float64(len(untraced.byKind[k]))
		layered += weight * float64(self) / float64(root.Count)
		total += weight * untraced.byKind[k].meanNS()
	}
	if total == 0 {
		return 0
	}
	return min(layered/total, 1)
}
