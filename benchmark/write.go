package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"rx"
	"rx/benchmark/gen"
	"rx/benchmark/trace"
	"rx/internal/core"
	"rx/internal/nodeid"
	"rx/internal/session"
	"rx/internal/wal"
	"rx/internal/xml"
	"rx/internal/xpath"
)

// Value indexes of the write collection: every insert generates keys for
// both, every update reconciles both.
var writeIndexes = [][2]string{{"by_price", "/Order/Items/Item/Price"}, {"by_qty", "/Order/Items/Item/Qty"}}

type writeEnv struct {
	eng   *engine
	col   *core.Collection
	sess  *session.Session
	ids   []xml.DocID   // by document index
	items [][]nodeid.ID // by document index: the node ID of each Item element, in document order
}

var (
	orderRoot = nodeid.ID(nodeid.RelAt(0))
	itemsID   = nodeid.Append(orderRoot, nodeid.RelAt(gen.SlotItems))
)

// initialItems computes the node IDs the engine assigns to a freshly
// inserted order's items: IDs follow child positions (see gen.SlotItems).
func initialItems(n int) []nodeid.ID {
	ids := make([]nodeid.ID, n)
	for i := range ids {
		ids[i] = nodeid.Append(itemsID, nodeid.RelAt(i))
	}
	return ids
}

// textOf addresses the text node of an item's Qty or Price element.
func textOf(item nodeid.ID, slot int) nodeid.ID {
	return nodeid.Append(nodeid.Append(item, nodeid.RelAt(slot)), nodeid.RelAt(0))
}

// apply runs one phase-B operation, acknowledged durable (sync per commit),
// and returns its latency. On success the caller records it in the model.
// With a tracer the operation and the engine call inside it are spans, and
// inserts and updates first repeat outside the engine what the engine does
// inside (see tracer.dryIngest, tracer.dryMaint).
func (e *writeEnv) apply(ctx context.Context, op *gen.Op, tr *tracer) (int64, error) {
	db := e.eng.db
	var rec *trace.Recorder // nil records nothing
	if tr != nil {
		rec = tr.rec
	}
	var err error
	start := time.Now()
	rec.Begin("op." + op.Kind.String())
	switch {
	case tr == nil:
	case op.Kind == gen.Insert:
		err = tr.dryIngest(op.Col, op.Payload)
	case op.Kind == gen.Update:
		err = tr.dryMaint(e.col, e.ids[op.Doc])
	}
	rec.Begin("core." + op.Kind.String())
	switch {
	case err != nil:
	case op.Kind == gen.Insert:
		var id xml.DocID
		if id, err = e.sess.Insert(ctx, op.Col, op.Payload); err == nil {
			e.ids = append(e.ids, id)
			e.items = append(e.items, initialItems(len(op.Order.Items)))
		}
	case op.Kind == gen.Update:
		node := textOf(e.items[op.Doc][op.Item], op.Slot)
		err = db.RunTxn(func(t *core.Txn) error { return t.UpdateText(e.col, e.ids[op.Doc], node, op.Payload) })
	case op.Kind == gen.InsertFragment:
		var newID nodeid.ID
		err = db.RunTxn(func(t *core.Txn) (ierr error) {
			newID, ierr = t.InsertFragment(e.col, e.ids[op.Doc], itemsID, core.AsLastChild, op.Payload)
			return
		})
		if err == nil {
			e.items[op.Doc] = append(e.items[op.Doc], nodeid.Clone(newID))
		}
	case op.Kind == gen.DeleteSubtree:
		err = db.RunTxn(func(t *core.Txn) error { return t.DeleteSubtree(e.col, e.ids[op.Doc], e.items[op.Doc][op.Item]) })
		if err == nil {
			its := e.items[op.Doc]
			e.items[op.Doc] = append(its[:op.Item:op.Item], its[op.Item+1:]...)
		}
	case op.Kind == gen.Delete:
		err = e.sess.Delete(ctx, op.Col, e.ids[op.Doc])
	}
	rec.End()
	rec.End()
	return int64(time.Since(start)), err
}

// storedRatio is the database file's size over the source bytes of the
// documents alive in the model. Call it right after a checkpoint.
func (e *writeEnv) storedRatio(m *gen.WriteModel) (float64, error) {
	stored, err := e.eng.storedBytes()
	if err != nil {
		return 0, err
	}
	var live int64
	for d := 0; d < m.Docs(); d++ {
		live += int64(len(m.Expected(d)))
	}
	return float64(stored) / float64(live), nil
}

// writeRun is one pass of the write workload over one freshly set-up
// database. Each pass generates its inputs from the seed again, because a
// pass consumes them: the model follows the acknowledged prefix of the
// stream.
type writeRun struct {
	cfg    config
	sc     scale
	res    *result
	rng    *rand.Rand
	model  *gen.WriteModel
	docs   [][]byte
	stream []gen.Op // phase B, exactly the operations it runs
	rec    *trace.Recorder
	env    *writeEnv
	cost   setupCost

	next         int // stream position
	checkpointNS int64
	checkpoints  int
	userBytes    int64 // source XML bytes phase B handed the engine
}

// newWriteRun generates the corpus and the phase-B stream and runs phase A:
// the bulk load with both value indexes defined, which is this workload's
// set-up (setup_s, ingest_mb_per_s).
func newWriteRun(cfg config, res *result, counted bool) (*writeRun, error) {
	w := &writeRun{cfg: cfg, sc: scaleFor(cfg), res: res}
	ctx := context.Background()
	genStart := time.Now()
	w.rng = rand.New(rand.NewSource(cfg.seed))
	w.model, w.docs = gen.NewWriteCorpus(w.rng, w.sc.writeShape)
	var corpusBytes int64
	for _, d := range w.docs {
		corpusBytes += int64(len(d))
	}
	w.stream = gen.WriteOps(w.rng, ordersCol, w.model, ops(w.sc.writeRate, cfg.seconds))
	res.metrics["harness.gen_s"] = time.Since(genStart).Seconds()
	if counted {
		w.rec = trace.NewRecorder(w.sc.keepSpans)
	}

	setup := func(dir string, counted bool) (*writeEnv, setupCost, error) {
		var cost setupCost
		start := time.Now()
		eng, err := openEngine(engineOpts{dir: dir, poolPages: w.sc.writePool, counted: counted, rec: w.rec})
		if err != nil {
			return nil, cost, err
		}
		env := &writeEnv{eng: eng, sess: session.New(eng.db)}
		fail := func(err error) (*writeEnv, setupCost, error) { env.close(); return nil, cost, err }
		if env.col, err = eng.db.CreateCollection(ordersCol, core.CollectionOptions{}); err != nil {
			return fail(err)
		}
		for _, ix := range writeIndexes {
			if err = env.col.CreateValueIndex(ix[0], ix[1], xml.TDouble); err != nil {
				return fail(err)
			}
		}
		load := time.Now()
		if env.ids, err = loadBatches(ctx, env.sess, ordersCol, w.docs); err != nil {
			return fail(err)
		}
		cost.mbPerS = float64(corpusBytes) / 1e6 / time.Since(load).Seconds()
		cost.seconds = time.Since(start).Seconds()
		return env, cost, nil
	}
	var err error
	if w.env, w.cost, err = measureSetups(cfg, counted, setup, (*writeEnv).close); err != nil {
		return nil, err
	}
	w.env.items = make([][]nodeid.ID, len(w.docs))
	for d := range w.docs {
		if o := w.model.Orders[d]; o != nil {
			w.env.items[d] = initialItems(len(o.Items))
		}
	}
	return w, nil
}

func (e *writeEnv) close() error {
	e.sess.Close()
	return e.eng.close()
}

// drive runs the next n operations of phase B in a closed loop with one
// driver, checkpointing every checkpointEvery operations of the stream.
func (w *writeRun) drive(n int, tr *tracer) (*tally, time.Duration, error) {
	ctx := context.Background()
	t := &tally{}
	start := time.Now()
	for end := w.next + n; w.next < end; w.next++ {
		op := &w.stream[w.next]
		ns, err := w.env.apply(ctx, op, tr)
		t.add(op.Kind, ns, err == nil)
		if err != nil {
			return t, time.Since(start), fmt.Errorf("write: operation %d (%s) failed: %w", w.next, op.Kind, err)
		}
		w.model.Apply(op)
		w.userBytes += int64(len(op.Payload))
		if (w.next+1)%w.sc.checkpointEvery == 0 {
			c := time.Now()
			if err := w.env.eng.db.Checkpoint(); err != nil {
				return t, time.Since(start), err
			}
			w.checkpointNS += int64(time.Since(c))
			w.checkpoints++
		}
	}
	return t, time.Since(start), nil
}

// runWrite is the write workload: embedded, one session, sync per commit.
// Phase A bulk-loads a mixed corpus (set-up: setup_s, ingest_mb_per_s),
// phase B is the timed closed loop of inserts and sub-document updates,
// phase C recovers a crash copy and reads everything back; see README.md.
func runWrite(cfg config) (*result, error) {
	res := newResult()
	if err := writeUntraced(cfg, res); err != nil || !cfg.trace {
		return res, err
	}
	return res, writeTraced(cfg, res)
}

// writeUntraced measures the workload as a user runs it, through rx.Open.
func writeUntraced(cfg config, res *result) error {
	ctx := context.Background()
	w, err := newWriteRun(cfg, res, false)
	if err != nil {
		return err
	}
	env, sc := w.env, w.sc
	closed := false
	defer func() {
		if !closed {
			env.close()
		}
	}()
	phaseB, el, err := w.drive(len(w.stream), nil)
	if err != nil {
		return err
	}

	// Phase C: copy the files as a killed process would leave them (no
	// Close, no Flush), recover the copy, and read everything back.
	crashDir := filepath.Join(cfg.dir, "write", "crash")
	if err := os.MkdirAll(crashDir, 0o755); err != nil {
		return err
	}
	if err := copyFile(filepath.Join(crashDir, "db.rxdb"), env.eng.dbPath); err != nil {
		return err
	}
	if err := copyFile(filepath.Join(crashDir, "db.wal"), env.eng.walPath); err != nil {
		return err
	}
	walAtCrash, err := os.Stat(env.eng.walPath)
	if err != nil {
		return err
	}
	res.metrics["wal.bytes_at_crash"] = float64(walAtCrash.Size())
	// The stored ratio is the state after phase B, every page written back.
	if err := env.eng.db.Checkpoint(); err != nil {
		return err
	}
	storedRatio, err := env.storedRatio(w.model)
	if err != nil {
		return err
	}
	closed = true
	if err := env.close(); err != nil {
		return err
	}

	model := w.model
	readBack := model.ReadBackOps(w.rng, ordersCol, sc.readBack)
	if cfg.trace {
		// Before recovery, which checkpoints the log it replayed.
		redo, err := redoRecords(filepath.Join(crashDir, "db.wal"))
		if err != nil {
			return err
		}
		res.metrics["core.recover_redo_records"] = float64(redo)
	}
	recStart := time.Now()
	crashed, err := openEngine(engineOpts{dir: crashDir, poolPages: sc.writePool})
	if err != nil {
		return fmt.Errorf("write: recovery failed: %w", err)
	}
	defer crashed.close()
	sess := session.New(crashed.db)
	defer sess.Close()
	_, firstOK := runQuery(ctx, sess, &readBack[0])
	res.metrics["recovery_s"] = time.Since(recStart).Seconds()
	if !firstOK {
		return errors.New("write: the first query after recovery mismatched the oracle")
	}

	// Every acknowledged document must be there with the acknowledged
	// content, every deleted one gone, and the live set exact. The first
	// pass over the recovered database verifies and is cold (every page it
	// touches is read from the file); three more passes repeat the same
	// reads warm and are the ones timed as get_* and query_*: a median over
	// a pass that is part cold, part warm flips between the two.
	verify, back := &tally{}, &tally{}
	live := map[xml.DocID]bool{}
	var gets []gen.Op
	for d := 0; d < model.Docs(); d++ {
		want := model.Expected(d)
		if want == nil {
			if _, gerr := sess.Get(ctx, ordersCol, env.ids[d]); !errors.Is(gerr, rx.ErrNotFound) {
				verify.failed++
				res.notef("write: deleted document %d still answers after recovery (%v)", d, gerr)
			}
			verify.attempted++
			continue
		}
		live[env.ids[d]] = true
		gets = append(gets, gen.GetOp(ordersCol, d, want))
	}
	got, err := sess.DocIDs(ctx, ordersCol)
	if err != nil {
		return err
	}
	res.checkLiveSet(verify, got, live)
	for _, t := range []*tally{verify, back, back, back} {
		for i := range gets {
			ns, ok := runGet(ctx, sess, &gets[i], env.ids[gets[i].Doc])
			t.add(gen.Get, ns, ok)
		}
		for i := range readBack {
			ns, ok := runQuery(ctx, sess, &readBack[i])
			t.add(gen.Query, ns, ok)
		}
	}

	res.attempted += phaseB.attempted + verify.attempted + back.attempted
	res.failed += phaseB.failed + verify.failed + back.failed
	res.putEndToEnd(w.cost, phaseB.attempted, el, storedRatio)
	res.putLatency("query", back.byKind[gen.Query])
	res.putLatency("get", back.byKind[gen.Get])
	res.putLatency("insert", phaseB.byKind[gen.Insert])
	res.putLatency("update", phaseB.byKind[gen.Update])
	if w.checkpoints > 0 {
		res.metrics["core.checkpoint_ms"] = float64(w.checkpointNS) / 1e6 / float64(w.checkpoints)
	}
	return nil
}

// writeTraced sets the database up again over the counting wrappers and
// runs phase B single-driver as before: the first half untraced for
// reference, the second half decomposed into spans; then the micro-probes.
func writeTraced(cfg config, res *result) error {
	w, err := newWriteRun(cfg, res, true)
	if err != nil {
		return err
	}
	env, sc := w.env, w.sc
	defer env.close()
	tr := newTracer(w.rec, env.eng.db)
	for _, ix := range writeIndexes {
		if err := tr.addKeygen(ordersCol, ix[1]); err != nil {
			return err
		}
	}
	env.eng.wal.ResetSyncs()
	mem := startMem()
	before := env.eng.snapshot()
	half := len(w.stream) / 2
	ref, refEl, err := w.drive(half, nil)
	if err != nil {
		return err
	}
	traced, tracedEl, err := w.drive(len(w.stream)-half, tr)
	if err != nil {
		return err
	}
	after := env.eng.snapshot()
	res.attempted += ref.attempted + traced.attempted
	res.failed += ref.failed + traced.failed

	res.reportCounters(env.eng, before, after, w.userBytes)
	mem.report(res, ref.attempted+traced.attempted)
	tr.reportIngest(res)
	if m := w.rec.Sum("valueindex.maint"); m.Count > 0 {
		res.metrics["valueindex.maint_us_per_update"] = float64(m.TotalNS) / float64(m.Count) / 1e3
	}
	res.putTraceOverhead(ref.attempted, refEl, traced.attempted, tracedEl)
	res.metrics["harness.attributed_share"] = attributed(w.rec, ref, gen.Insert, gen.Update, gen.InsertFragment, gen.DeleteSubtree, gen.Delete)

	live, err := env.sess.DocIDs(context.Background(), ordersCol)
	if err != nil {
		return err
	}
	readBack := w.model.ReadBackOps(w.rng, ordersCol, 500)
	in := trace.ProbeInput{DB: env.eng.db, Col: env.col, Docs: sample(live, sc.probeKeys), Index: "by_price", Sources: w.docs[:min(200, len(w.docs))]}
	for i := range readBack {
		if p, perr := strconv.ParseFloat(readBack[i].Literal, 64); perr == nil {
			in.Literals = append(in.Literals, xpath.Literal{IsNum: true, Num: p})
			in.WantResults += readBack[i].Want.Count
		}
	}
	if err := res.putProbes(in); err != nil {
		return err
	}
	return w.rec.WriteFile(filepath.Join(cfg.dir, "trace-write.json"), "write")
}

// redoRecords counts the log records after the last checkpoint of the log at
// path: what recovery has to redo.
func redoRecords(path string) (int, error) {
	fd, err := wal.OpenFileDevice(path)
	if err != nil {
		return 0, err
	}
	defer fd.Close()
	log, err := wal.Open(fd)
	if err != nil {
		return 0, err
	}
	recs, err := log.Records()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, r := range recs {
		n++
		if r.Kind == wal.KindCheckpoint {
			n = 0
		}
	}
	return n, nil
}
