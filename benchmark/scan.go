package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"rx/benchmark/gen"
	"rx/benchmark/trace"
	"rx/internal/core"
	"rx/internal/session"
	"rx/internal/xml"
)

// scanParallelism is the session's query parallelism: the reference box has
// two processors and the load shape is frozen, so it is not read from the
// machine.
const scanParallelism = 2

type scanEnv struct {
	eng  *engine
	cols map[string]*core.Collection
	ids  map[string][]xml.DocID
}

// scanRun is the scan workload's generated input and its set-up.
type scanRun struct {
	cfg       config
	sc        scale
	cols      []*gen.ScanCollection
	byName    map[string]*gen.ScanCollection
	userBytes int64
	stream    []gen.Op // warmOps/10 operations of warm-up, then the timed ones
	rec       *trace.Recorder
}

// do runs one operation through a session with parallel query execution.
func (s *scanRun) do(sess *session.Session, env *scanEnv, op *gen.Op, t *tally) {
	var ids []xml.DocID
	if op.Kind == gen.Get {
		ids = env.ids[op.Col]
	}
	readOp(context.Background(), sess, op, ids, t, session.Parallelism(scanParallelism))
}

func (s *scanRun) warm() int { return s.sc.warmOps / 10 }

// setup loads every collection, refreshes the statistics, checkpoints and
// runs the stream's first operations.
func (s *scanRun) setup(dir string, counted bool) (*scanEnv, setupCost, error) {
	ctx := context.Background()
	var cost setupCost
	start := time.Now()
	eng, err := openEngine(engineOpts{dir: dir, poolPages: s.sc.scanPool, counted: counted, rec: s.rec})
	if err != nil {
		return nil, cost, err
	}
	env := &scanEnv{eng: eng, cols: map[string]*core.Collection{}, ids: map[string][]xml.DocID{}}
	sess := session.New(eng.db)
	defer sess.Close()
	fail := func(err error) (*scanEnv, setupCost, error) { eng.close(); return nil, cost, err }
	var loadTime time.Duration
	for _, c := range s.cols {
		col, err := eng.db.CreateCollection(c.Name, core.CollectionOptions{})
		if err != nil {
			return fail(err)
		}
		env.cols[c.Name] = col
		load := time.Now()
		if env.ids[c.Name], err = loadBatches(ctx, sess, c.Name, c.Docs); err != nil {
			return fail(err)
		}
		loadTime += time.Since(load)
	}
	cost.mbPerS = float64(s.userBytes) / 1e6 / loadTime.Seconds()
	refresh := time.Now()
	if err = eng.db.RefreshStats(); err != nil {
		return fail(err)
	}
	cost.refreshMS = float64(time.Since(refresh)) / 1e6
	if err = eng.db.Checkpoint(); err != nil {
		return fail(err)
	}
	var warm tally
	for i := 0; i < s.warm(); i++ {
		s.do(sess, env, &s.stream[i], &warm)
	}
	if warm.failed > 0 {
		return fail(fmt.Errorf("scan: %d of %d warm-up operations failed the oracle", warm.failed, warm.attempted))
	}
	cost.seconds = time.Since(start).Seconds()
	return env, cost, nil
}

// runScan is the scan workload: embedded, one session with parallel query
// execution, read-only, many collections whose total is about four times
// the buffer pool, and queries no index serves; see README.md for why.
func runScan(cfg config) (*result, error) {
	res := newResult()
	s := &scanRun{cfg: cfg, sc: scaleFor(cfg), byName: map[string]*gen.ScanCollection{}}
	genStart := time.Now()
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < s.sc.scanCols; i++ {
		c := gen.NewScanCollection(rng, i, s.sc.scanShape)
		s.cols = append(s.cols, c)
		s.byName[c.Name] = c
		s.userBytes += c.Bytes
	}
	s.stream = gen.ScanOps(rng, s.cols, s.warm()+ops(s.sc.scanRate, cfg.seconds))
	res.metrics["harness.gen_s"] = time.Since(genStart).Seconds()
	if err := s.untraced(res); err != nil || !cfg.trace {
		return res, err
	}
	return res, s.traced(res)
}

// untraced measures the workload as users run it: rx.Open, one session,
// closed loop over the whole stream.
func (s *scanRun) untraced(res *result) error {
	env, cost, err := measureSetups(s.cfg, false, s.setup, func(e *scanEnv) error { return e.eng.close() })
	if err != nil {
		return err
	}
	defer env.eng.close()
	stored, err := env.eng.storedBytes()
	if err != nil {
		return err
	}
	t := &tally{}
	sess := session.New(env.eng.db)
	defer sess.Close()
	start := time.Now()
	for i := s.warm(); i < len(s.stream); i++ {
		s.do(sess, env, &s.stream[i], t)
	}
	el := time.Since(start)
	res.attempted, res.failed = res.attempted+t.attempted, res.failed+t.failed
	res.putEndToEnd(cost, t.attempted, el, float64(stored)/float64(s.userBytes))
	res.putLatency("query", t.byKind[gen.Query])
	res.putLatency("get", t.byKind[gen.Get])
	return nil
}

// traced sets the database up again over the counting wrappers and runs
// the stream again: the first half through a session for reference, the
// second half decomposed into spans; then the micro-probes.
func (s *scanRun) traced(res *result) error {
	ctx := context.Background()
	cfg, sc := s.cfg, s.sc
	s.rec = trace.NewRecorder(sc.keepSpans)
	env, _, err := measureSetups(cfg, true, s.setup, func(e *scanEnv) error { return e.eng.close() })
	if err != nil {
		return err
	}
	defer env.eng.close()
	stored, err := env.eng.storedBytes()
	if err != nil {
		return err
	}
	half := s.warm() + (len(s.stream)-s.warm())/2
	env.eng.wal.ResetSyncs()
	mem := startMem()
	before := env.eng.snapshot()
	ref := &tally{}
	sess := session.New(env.eng.db)
	start := time.Now()
	for i := s.warm(); i < half; i++ {
		s.do(sess, env, &s.stream[i], ref)
	}
	refEl := time.Since(start)
	sess.Close()
	after := env.eng.snapshot()
	res.reportCounters(env.eng, before, after, 0)
	// The workload must be cold: the pool holds a quarter of the data, so a
	// scan has to read most of its collection from the store. (The pool's
	// own hit ratio cannot show that: it counts every pin, and a document
	// walk pins the same page once per record.)
	pagesPerCol := float64(stored) / 8192 / float64(len(s.cols))
	if q := len(ref.byKind[gen.Query]); !cfg.smoke && float64(after.reads-before.reads) < 0.5*pagesPerCol*float64(q) {
		return fmt.Errorf("scan is mis-sized: %d page reads for %d scans of ≈%.0f-page collections; the pool must be well below the data",
			after.reads-before.reads, q, pagesPerCol)
	}
	tr := newTracer(s.rec, env.eng.db)
	traced := &tally{}
	var scannedBytes int64
	start = time.Now()
	for i := half; i < len(s.stream); i++ {
		op := &s.stream[i]
		var ns int64
		var ok bool
		if op.Kind == gen.Query {
			ns, ok = tr.query(ctx, env.cols[op.Col], op, scanParallelism)
			scannedBytes += s.byName[op.Col].Bytes
		} else {
			ns, ok = tr.get(env.cols[op.Col], op, env.ids[op.Col][op.Doc])
		}
		traced.add(op.Kind, ns, ok)
	}
	tracedEl := time.Since(start)
	mem.report(res, ref.attempted+traced.attempted)
	tr.reportQueries(res)
	tr.reportGets(res)
	if exec := s.rec.Sum("core.exec").TotalNS; exec > 0 {
		res.metrics["quickxscan.eval_mb_per_s"] = float64(scannedBytes) / 1e6 / (float64(exec) / 1e9)
	}
	res.attempted, res.failed = res.attempted+ref.attempted+traced.attempted, res.failed+ref.failed+traced.failed
	res.putTraceOverhead(ref.attempted, refEl, traced.attempted, tracedEl)
	res.metrics["harness.attributed_share"] = attributed(s.rec, ref, gen.Query, gen.Get)

	c0 := s.cols[0]
	err = res.putProbes(trace.ProbeInput{DB: env.eng.db, Col: env.cols[c0.Name], Docs: sample(env.ids[c0.Name], sc.probeKeys),
		Sources: c0.Docs[:min(200, len(c0.Docs))], Exprs: []string{`//a//a//b`, `//Item[Qty > 8]/Part`}})
	if err != nil {
		return err
	}
	return s.rec.WriteFile(filepath.Join(cfg.dir, "trace-scan.json"), "scan")
}
