package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"rx/benchmark/gen"
	"rx/benchmark/trace"
	"rx/internal/core"
	"rx/internal/session"
	"rx/internal/xml"
	"rx/internal/xpath"
)

const ordersCol = "orders"

type lookupEnv struct {
	eng *engine
	col *core.Collection
	ids []xml.DocID
}

// readOp runs one read operation of a stream through the session API.
func readOp(ctx context.Context, api session.API, op *gen.Op, ids []xml.DocID, t *tally, extra ...session.QueryOption) {
	var ns int64
	var ok bool
	if op.Kind == gen.Query {
		ns, ok = runQuery(ctx, api, op, extra...)
	} else {
		ns, ok = runGet(ctx, api, op, ids[op.Doc])
	}
	t.add(op.Kind, ns, ok)
}

// lookupDrivers is the number of sessions of the untraced pass; the traced
// pass has one.
const lookupDrivers = 2

// lookupRun is the lookup workload's generated input and its set-up.
type lookupRun struct {
	cfg     config
	sc      scale
	pop     *gen.Population
	streams [][]gen.Op // one per driver: warmOps operations of warm-up, then the timed ones
	rec     *trace.Recorder
}

// setup loads the corpus, builds both indexes, refreshes the statistics,
// checkpoints and warms the pool up with the first operations of each
// stream.
func (l *lookupRun) setup(dir string, counted bool) (*lookupEnv, setupCost, error) {
	ctx := context.Background()
	var cost setupCost
	start := time.Now()
	eng, err := openEngine(engineOpts{dir: dir, poolPages: l.sc.lookupPool, counted: counted, rec: l.rec})
	if err != nil {
		return nil, cost, err
	}
	env := &lookupEnv{eng: eng}
	sess := session.New(eng.db)
	defer sess.Close()
	fail := func(err error) (*lookupEnv, setupCost, error) { eng.close(); return nil, cost, err }
	if env.col, err = eng.db.CreateCollection(ordersCol, core.CollectionOptions{}); err != nil {
		return fail(err)
	}
	load := time.Now()
	if env.ids, err = loadBatches(ctx, sess, ordersCol, l.pop.Docs); err != nil {
		return fail(err)
	}
	cost.mbPerS = float64(l.pop.Bytes) / 1e6 / time.Since(load).Seconds()
	if err = env.col.CreateValueIndex("by_customer", "/Order/Customer", xml.TString); err != nil {
		return fail(err)
	}
	if err = env.col.CreateValueIndex("by_total", "/Order/Total", xml.TDouble); err != nil {
		return fail(err)
	}
	refresh := time.Now()
	if err = eng.db.RefreshStats(); err != nil {
		return fail(err)
	}
	cost.refreshMS = float64(time.Since(refresh)) / 1e6
	if err = eng.db.Checkpoint(); err != nil {
		return fail(err)
	}
	var warm tally
	for _, s := range l.streams {
		for i := 0; i < l.sc.warmOps; i++ {
			readOp(ctx, sess, &s[i], env.ids, &warm)
		}
	}
	if warm.failed > 0 {
		return fail(fmt.Errorf("lookup: %d of %d warm-up operations failed the oracle", warm.failed, warm.attempted))
	}
	cost.seconds = time.Since(start).Seconds()
	return env, cost, nil
}

// runLookup is the lookup workload: embedded, two sessions, read-only, a
// corpus that fits the buffer pool. Indexed equality, narrow indexed range,
// two-index ANDing and Get by Zipf DocID; see README.md for why.
func runLookup(cfg config) (*result, error) {
	res := newResult()
	l := &lookupRun{cfg: cfg, sc: scaleFor(cfg)}
	genStart := time.Now()
	rng := rand.New(rand.NewSource(cfg.seed))
	l.pop = gen.NewPopulation(rng, l.sc.lookupOrders, "cust")
	mix := gen.NewReadMix(rng, ordersCol, "cust", l.pop, gen.LookupWeights)
	perDriver := ops(l.sc.lookupRate, cfg.seconds) / lookupDrivers
	for i := 0; i < lookupDrivers; i++ {
		l.streams = append(l.streams, gen.LookupOps(rng, mix, l.sc.warmOps+perDriver))
	}
	res.metrics["harness.gen_s"] = time.Since(genStart).Seconds()
	if err := l.untraced(res); err != nil || !cfg.trace {
		return res, err
	}
	return res, l.traced(res)
}

// untraced measures the workload as users run it: rx.Open, one session per
// driver, closed loop, each driver running its own stream to the end.
func (l *lookupRun) untraced(res *result) error {
	ctx := context.Background()
	env, cost, err := measureSetups(l.cfg, false, l.setup, func(e *lookupEnv) error { return e.eng.close() })
	if err != nil {
		return err
	}
	defer env.eng.close()
	stored, err := env.eng.storedBytes()
	if err != nil {
		return err
	}
	ts := newTallies(lookupDrivers)
	var wg sync.WaitGroup
	start := time.Now()
	for g := range ts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := session.New(env.eng.db)
			defer sess.Close()
			s := l.streams[g]
			for i := l.sc.warmOps; i < len(s); i++ {
				readOp(ctx, sess, &s[i], env.ids, ts[g])
			}
		}(g)
	}
	wg.Wait()
	el := time.Since(start)
	t := ts.merged()
	res.attempted, res.failed = res.attempted+t.attempted, res.failed+t.failed
	res.putEndToEnd(cost, t.attempted, el, float64(stored)/float64(l.pop.Bytes))
	res.putLatency("query", t.byKind[gen.Query])
	res.putLatency("get", t.byKind[gen.Get])
	return nil
}

// traced sets the database up again over the counting wrappers and runs
// driver 0's stream single-driver: the first half through a session for
// reference, the second half decomposed into spans; then the micro-probes.
func (l *lookupRun) traced(res *result) error {
	ctx := context.Background()
	cfg, sc := l.cfg, l.sc
	l.rec = trace.NewRecorder(sc.keepSpans)
	env, _, err := measureSetups(cfg, true, l.setup, func(e *lookupEnv) error { return e.eng.close() })
	if err != nil {
		return err
	}
	defer env.eng.close()
	s := l.streams[0]
	half := sc.warmOps + (len(s)-sc.warmOps)/2
	env.eng.wal.ResetSyncs()
	mem := startMem()
	before := env.eng.snapshot()
	ref := &tally{}
	sess := session.New(env.eng.db)
	start := time.Now()
	for i := sc.warmOps; i < half; i++ {
		readOp(ctx, sess, &s[i], env.ids, ref)
	}
	refEl := time.Since(start)
	sess.Close()
	after := env.eng.snapshot()
	res.reportCounters(env.eng, before, after, 0)
	if after.reads != before.reads && !cfg.smoke {
		return fmt.Errorf("lookup is mis-sized: %d page reads after warm-up, want 0 (the corpus must fit the pool)", after.reads-before.reads)
	}
	tr := newTracer(l.rec, env.eng.db)
	traced := &tally{}
	start = time.Now()
	for i := half; i < len(s); i++ {
		op := &s[i]
		var ns int64
		var ok bool
		if op.Kind == gen.Query {
			ns, ok = tr.query(ctx, env.col, op, 1)
		} else {
			ns, ok = tr.get(env.col, op, env.ids[op.Doc])
		}
		traced.add(op.Kind, ns, ok)
	}
	tracedEl := time.Since(start)
	mem.report(res, ref.attempted+traced.attempted)
	tr.reportQueries(res)
	tr.reportGets(res)
	res.attempted, res.failed = res.attempted+ref.attempted+traced.attempted, res.failed+ref.failed+traced.failed
	res.putTraceOverhead(ref.attempted, refEl, traced.attempted, tracedEl)
	res.metrics["harness.attributed_share"] = attributed(l.rec, ref, gen.Query, gen.Get)

	// Probe every literal of the equality template.
	in := trace.ProbeInput{DB: env.eng.db, Col: env.col, Docs: sample(env.ids, sc.probeKeys), Index: "by_customer", Sources: l.pop.Docs[:min(200, len(l.pop.Docs))]}
	for k := 0; k < gen.Customers; k++ {
		in.Literals = append(in.Literals, xpath.Literal{Str: gen.CustomerName("cust", k)})
	}
	in.WantResults = len(l.pop.Orders) // every order has one customer of the domain
	if err := res.putProbes(in); err != nil {
		return err
	}
	return l.rec.WriteFile(filepath.Join(cfg.dir, "trace-lookup.json"), "lookup")
}

// sample returns up to n of ids, evenly spaced.
func sample(ids []xml.DocID, n int) []xml.DocID {
	if len(ids) <= n {
		return ids
	}
	out := make([]xml.DocID, n)
	for i := range out {
		out[i] = ids[i*len(ids)/n]
	}
	return out
}
