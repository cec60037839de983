package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rx"
	"rx/benchmark/gen"
	"rx/benchmark/trace"
	"rx/client"
	"rx/internal/server"
	"rx/internal/session"
	"rx/internal/xml"
)

const (
	servedConns = 2
	// groupCommit is the served engine's flush policy: commits wait up to
	// this long for company, one sync covers the group.
	groupCommit = 2 * time.Millisecond
	// latencyLimit is the open loop's limit: an operation finishing later
	// than this after its due time is late.
	latencyLimit = 25 * time.Millisecond
	// openShare is the part of the timed phase the open loop takes; the
	// closed-loop tail measuring capacity takes the rest.
	openShare = 0.7
)

var errMismatch = errors.New("result mismatched the oracle")

type servedEnv struct {
	eng   *engine
	srv   *server.Server
	lis   *trace.Listener
	done  chan error
	conns []*client.DB
	ids   []xml.DocID // base documents by index
}

func (e *servedEnv) close() error {
	for _, c := range e.conns {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.done; err == nil {
		err = serr
	}
	if cerr := e.eng.close(); err == nil {
		err = cerr
	}
	return err
}

// servedConn is one connection's driver state: the documents it inserted
// and has not deleted, oldest first.
type servedConn struct {
	api session.API
	own []xml.DocID
	// inserted and deleted record every document this connection ever
	// acknowledged, for the live-set check.
	inserted []ownDoc
	deleted  map[xml.DocID]bool
	tally    *tally
	late     int
	timeouts int      // operations that failed on a lock wait
	errs     []string // the first few failures, for the report
}

func (c *servedConn) fail(op *gen.Op, err error) bool {
	if errors.Is(err, rx.ErrLockTimeout) {
		c.timeouts++
	}
	if len(c.errs) < 3 {
		c.errs = append(c.errs, fmt.Sprintf("%s %s: %v", op.Kind, op.Expr, err))
	}
	return false
}

type ownDoc struct {
	id  xml.DocID
	doc []byte
}

// exec runs one served operation and returns whether it succeeded. Its
// latency is recorded by the caller, who knows when it was due.
func (c *servedConn) exec(ctx context.Context, op *gen.Op, base []xml.DocID) bool {
	switch op.Kind {
	case gen.Query:
		if _, ok := runQuery(ctx, c.api, op); !ok {
			return c.fail(op, errMismatch)
		}
		return true
	case gen.Get:
		if _, ok := runGet(ctx, c.api, op, base[op.Doc]); !ok {
			return c.fail(op, errMismatch)
		}
		return true
	case gen.Insert:
		id, err := c.api.Insert(ctx, op.Col, op.Payload)
		if err != nil {
			return c.fail(op, err)
		}
		c.own = append(c.own, id)
		c.inserted = append(c.inserted, ownDoc{id, op.Payload})
		return true
	case gen.Delete:
		if len(c.own) == 0 {
			return c.fail(op, errors.New("nothing of its own to delete"))
		}
		id := c.own[0]
		if err := c.api.Delete(ctx, op.Col, id); err != nil {
			return c.fail(op, err)
		}
		c.own = c.own[1:]
		c.deleted[id] = true
		return true
	case gen.Txn:
		if err := c.api.Begin(ctx); err != nil {
			return c.fail(op, err)
		}
		id1, err := c.api.Insert(ctx, op.Col, op.Payload)
		var id2 xml.DocID
		if err == nil {
			id2, err = c.api.Insert(ctx, op.Col, op.Payload2)
		}
		if err != nil {
			c.api.Rollback(ctx)
			return c.fail(op, err)
		}
		if err := c.api.Commit(ctx); err != nil {
			return c.fail(op, err)
		}
		c.own = append(c.own, id1, id2)
		c.inserted = append(c.inserted, ownDoc{id1, op.Payload}, ownDoc{id2, op.Payload2})
		return true
	}
	return false
}

// waitUntil sleeps to shortly before t and yields for the rest, so that the
// generator starts an operation within microseconds of its due time. The
// sleep stops 1.5 ms short because a sleep here overshoots by up to a
// millisecond; yielding, not spinning, lets the server's goroutines have the
// processor whenever they can run.
func waitUntil(t time.Time) {
	const short = 1500 * time.Microsecond
	if d := time.Until(t); d > short {
		time.Sleep(d - short)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// servedRun is the served workload's generated input and its set-up.
type servedRun struct {
	cfg    config
	sc     scale
	pop    *gen.Population
	stream []gen.Op // the open loop's operations, then the closed-loop tail's
	nOpen  int
	due    []time.Duration // when each open-loop operation is to be sent, from the loop's start
	rec    *trace.Recorder
}

// setup starts the server over a fresh engine, dials the connections, loads
// the base population through the wire, builds both indexes, refreshes the
// statistics, checkpoints and warms up with reads of the mix.
func (s *servedRun) setup(dir string, counted bool) (*servedEnv, setupCost, error) {
	ctx := context.Background()
	var cost setupCost
	start := time.Now()
	eng, err := openEngine(engineOpts{dir: dir, poolPages: s.sc.servedPool, groupCommit: groupCommit, counted: counted, rec: s.rec})
	if err != nil {
		return nil, cost, err
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.close()
		return nil, cost, err
	}
	env := &servedEnv{eng: eng, srv: server.New(eng.db, server.Options{}), lis: trace.WrapListener(inner, s.rec), done: make(chan error, 1)}
	go func() { env.done <- env.srv.Serve(env.lis) }()
	fail := func(err error) (*servedEnv, setupCost, error) { env.close(); return nil, cost, err }
	for i := 0; i < servedConns; i++ {
		c, err := client.Dial(inner.Addr().String())
		if err != nil {
			return fail(err)
		}
		env.conns = append(env.conns, c)
	}
	c0 := env.conns[0]
	if err = c0.CreateCollection(ctx, ordersCol); err != nil {
		return fail(err)
	}
	load := time.Now()
	if env.ids, err = loadBatches(ctx, c0, ordersCol, s.pop.Docs); err != nil {
		return fail(err)
	}
	cost.mbPerS = float64(s.pop.Bytes) / 1e6 / time.Since(load).Seconds()
	if err = c0.CreateValueIndex(ctx, ordersCol, "by_customer", "/Order/Customer", xml.TString); err != nil {
		return fail(err)
	}
	if err = c0.CreateValueIndex(ctx, ordersCol, "by_total", "/Order/Total", xml.TDouble); err != nil {
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
	// Warm-up: each connection runs read operations of the mix.
	var warm tally
	for i, n := 0, 0; n < s.sc.warmOps && i < len(s.stream); i++ {
		if op := &s.stream[i]; op.Kind == gen.Query || op.Kind == gen.Get {
			readOp(ctx, env.conns[i%servedConns], op, env.ids, &warm)
			n++
		}
	}
	if warm.failed > 0 {
		return fail(fmt.Errorf("served: %d of %d warm-up operations failed the oracle", warm.failed, warm.attempted))
	}
	cost.seconds = time.Since(start).Seconds()
	return env, cost, nil
}

// runServed is the served workload: the wire server in-process on a
// loopback listener over an engine with WAL and group commit, two client
// connections, an open loop at the frozen rate R timed from due time, then a
// closed-loop tail of the same mix for capacity; see README.md for why.
func runServed(cfg config) (*result, error) {
	res := newResult()
	s := &servedRun{cfg: cfg, sc: scaleFor(cfg)}
	genStart := time.Now()
	rng := rand.New(rand.NewSource(cfg.seed))
	s.pop = gen.NewPopulation(rng, s.sc.servedBase, "cust")
	mix := gen.NewReadMix(rng, ordersCol, "cust", s.pop, gen.ServedWeights)
	s.nOpen = ops(s.sc.servedRate*openShare, cfg.seconds)
	s.stream = gen.ServedOps(rng, mix, servedConns, s.nOpen+ops(s.sc.servedTailRate*(1-openShare), cfg.seconds))
	// Exponential gaps at rate R.
	s.due = make([]time.Duration, s.nOpen)
	var at float64
	for i := range s.due {
		at += rng.ExpFloat64() / s.sc.servedRate
		s.due[i] = time.Duration(at * float64(time.Second))
	}
	res.metrics["harness.gen_s"] = time.Since(genStart).Seconds()
	if err := s.untraced(res); err != nil || !cfg.trace {
		return res, err
	}
	return res, s.traced(res)
}

// servedDrivers runs the stream over an environment's connections:
// operation i belongs to driver i mod the number of drivers, and each driver
// runs its operations in order on its own connection.
type servedDrivers struct {
	env         *servedEnv
	conns       []*servedConn
	waitersPeak atomic.Int64
}

func newServedDrivers(env *servedEnv, n int) *servedDrivers {
	d := &servedDrivers{env: env}
	for i := 0; i < n; i++ {
		d.conns = append(d.conns, &servedConn{api: env.conns[i], deleted: map[xml.DocID]bool{}, tally: &tally{}})
	}
	return d
}

func (d *servedDrivers) noteWaiters() {
	if w := int64(d.env.eng.db.Locks().Waiting()); w > d.waitersPeak.Load() {
		d.waitersPeak.Store(w)
	}
}

// each runs fn(g) on one goroutine per driver and waits for all of them.
func (d *servedDrivers) each(fn func(g int)) {
	var wg sync.WaitGroup
	for g := range d.conns {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fn(g)
		}(g)
	}
	wg.Wait()
}

// closedLoop runs stream[from:to]: each driver sends its next operation when
// the previous one completes; latency runs from the send.
func (d *servedDrivers) closedLoop(stream []gen.Op, from, to int, exec func(c *servedConn, op *gen.Op) (int64, bool)) (*tally, time.Duration) {
	start := time.Now()
	ts := newTallies(len(d.conns))
	d.each(func(g int) {
		i := from + (g-from%len(d.conns)+len(d.conns))%len(d.conns) // the first operation at or after from that is g's
		for ; i < to; i += len(d.conns) {
			ns, ok := exec(d.conns[g], &stream[i])
			ts[g].add(stream[i].Kind, ns, ok)
			d.noteWaiters()
		}
	})
	return ts.merged(), time.Since(start)
}

// plain runs one operation and times it from the send.
func (d *servedDrivers) plain(c *servedConn, op *gen.Op) (int64, bool) {
	t := time.Now()
	ok := c.exec(context.Background(), op, d.env.ids)
	return int64(time.Since(t)), ok
}

// verify checks the live set — base ∪ inserted − deleted — and every
// inserted document's bytes, and returns the verification's tally and the
// source bytes of the live documents.
func (d *servedDrivers) verify(res *result, baseBytes int64) (*tally, int64, error) {
	ctx := context.Background()
	verify := &tally{}
	live := map[xml.DocID]bool{}
	for _, id := range d.env.ids {
		live[id] = true
	}
	liveBytes := baseBytes
	for _, c := range d.conns {
		for _, doc := range c.inserted {
			if c.deleted[doc.id] {
				continue
			}
			live[doc.id] = true
			liveBytes += int64(len(doc.doc))
			op := gen.GetOp(ordersCol, 0, doc.doc)
			_, ok := runGet(ctx, c.api, &op, doc.id)
			verify.add(gen.Get, 0, ok)
		}
		for _, e := range c.errs {
			res.notef("served: failed: %s", e)
		}
	}
	got, err := d.conns[0].api.DocIDs(ctx, ordersCol)
	if err != nil {
		return nil, 0, err
	}
	res.checkLiveSet(verify, got, live)
	return verify, liveBytes, nil
}

func (d *servedDrivers) reconnects() (n uint64) {
	for _, c := range d.env.conns {
		n += c.Reconnects()
	}
	return n
}

// untraced measures the workload as users run it: rx.Open with group
// commit, client.Dial, two connections.
func (s *servedRun) untraced(res *result) error {
	ctx := context.Background()
	env, cost, err := measureSetups(s.cfg, false, s.setup, (*servedEnv).close)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			env.close()
		}
	}()
	d := newServedDrivers(env, servedConns)

	// Open loop: operation i is due at t0+due[i]; latency runs from the due
	// time, so a stall delays — and is charged to — every operation queued
	// behind it on the connection.
	open, late := &tally{}, 0
	lates := make([]lat, servedConns)
	t0 := time.Now()
	d.each(func(g int) {
		c := d.conns[g]
		for i := g; i < s.nOpen; i += servedConns {
			op, at := &s.stream[i], t0.Add(s.due[i])
			if time.Now().Before(at) {
				waitUntil(at)
				// The driver was idle: any delay past the due time is the
				// generator's own lateness.
				lates[g] = append(lates[g], int64(time.Since(at)))
			}
			ok := c.exec(ctx, op, env.ids)
			ns := int64(time.Since(at))
			c.tally.add(op.Kind, ns, ok)
			if !ok || ns > int64(latencyLimit) {
				c.late++
			}
			d.noteWaiters()
		}
	})
	var genLate lat
	for g, c := range d.conns {
		genLate = append(genLate, lates[g]...)
		late += c.late
		open = tallies{open, c.tally}.merged()
	}
	tail, tailEl := d.closedLoop(s.stream, s.nOpen, len(s.stream), d.plain)

	verify, liveBytes, err := d.verify(res, s.pop.Bytes)
	if err != nil {
		return err
	}
	if err := env.eng.db.Checkpoint(); err != nil {
		return err
	}
	stored, err := env.eng.storedBytes()
	if err != nil {
		return err
	}
	reconnects := d.reconnects()
	closed = true
	if err := env.close(); err != nil {
		return err
	}

	res.attempted += open.attempted + tail.attempted + verify.attempted
	res.failed += open.failed + tail.failed + verify.failed
	res.putEndToEnd(cost, tail.attempted, tailEl, float64(stored)/float64(liveBytes))
	res.putLatency("query", open.byKind[gen.Query])
	res.putLatency("get", open.byKind[gen.Get])
	res.putLatency("insert", open.byKind[gen.Insert])
	res.metrics["late_share"] = float64(late) / float64(open.attempted)
	res.metrics["harness.gen_late_p99_ms"] = genLate.sorted().quantileMS(0.99)
	res.metrics["lock.waiters_peak"] = float64(d.waitersPeak.Load())
	res.metrics["client.reconnects"] = float64(reconnects)
	timeouts := 0
	for _, c := range d.conns {
		timeouts += c.timeouts
	}
	res.metrics["lock.timeouts"] = float64(timeouts)
	res.notef("served: open loop %d operations at R=%g/s, %d later than %v", open.attempted, s.sc.servedRate, late, latencyLimit)
	return nil
}

// traced sets the server up again over the counting wrappers and runs the
// whole stream closed-loop with a single driver on one connection: the first
// half for reference, the second half as spans with the device and wire
// calls under them, each read repeated on an embedded session.
func (s *servedRun) traced(res *result) error {
	ctx := context.Background()
	s.rec = trace.NewRecorder(s.sc.keepSpans)
	env, _, err := measureSetups(s.cfg, true, s.setup, (*servedEnv).close)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			env.close()
		}
	}()
	d := newServedDrivers(env, 1)
	l, rec := env.lis, s.rec
	half := len(s.stream) / 2
	env.eng.wal.ResetSyncs()
	mem := startMem()
	before, srvBefore := env.eng.snapshot(), env.srv.Stats()
	wireBytes, wireWrites := l.ReadBytes.Load()+l.WriteBytes.Load(), l.WriteCalls.Load()
	ref, refEl := d.closedLoop(s.stream, 0, half, d.plain)
	sess := session.New(env.eng.db)
	defer sess.Close()
	var embedded tally
	var query struct{ bytes, writes, rows, n int64 }
	traced, tracedEl := d.closedLoop(s.stream, half, len(s.stream), func(c *servedConn, op *gen.Op) (int64, bool) {
		b, w := l.WriteBytes.Load(), l.WriteCalls.Load()
		rec.Begin("op." + op.Kind.String())
		ns, ok := d.plain(c, op)
		rec.End()
		if op.Kind == gen.Query {
			query.bytes += l.WriteBytes.Load() - b
			query.writes += l.WriteCalls.Load() - w
			query.rows += int64(op.Want.Count)
			query.n++
		}
		// The same read on an embedded session, for server.overhead_us.
		if op.Kind == gen.Query || op.Kind == gen.Get {
			readOp(ctx, sess, op, env.ids, &embedded)
		}
		return ns, ok
	})
	after, srvAfter := env.eng.snapshot(), env.srv.Stats()
	wireBytes = l.ReadBytes.Load() + l.WriteBytes.Load() - wireBytes
	wireWrites = l.WriteCalls.Load() - wireWrites

	verify, _, err := d.verify(res, s.pop.Bytes)
	if err != nil {
		return err
	}
	reconnects := d.reconnects()
	closed = true
	if err := env.close(); err != nil {
		return err
	}

	n := ref.attempted + traced.attempted
	res.attempted += n + verify.attempted
	res.failed += ref.failed + traced.failed + verify.failed
	var userBytes int64
	for _, doc := range d.conns[0].inserted {
		userBytes += int64(len(doc.doc))
	}
	res.reportCounters(env.eng, before, after, userBytes)
	mem.report(res, n)
	res.metrics["lock.waiters_peak"] = max(res.metrics["lock.waiters_peak"], float64(d.waitersPeak.Load()))
	res.metrics["lock.timeouts"] += float64(d.conns[0].timeouts)
	res.metrics["client.reconnects"] += float64(reconnects)
	res.metrics["server.requests"] = float64(srvAfter.Requests - srvBefore.Requests)
	res.metrics["server.rejected_busy"] = float64(srvAfter.RejectedBusy - srvBefore.RejectedBusy)
	reads := func(t *tally) lat {
		return append(append(lat(nil), t.byKind[gen.Query]...), t.byKind[gen.Get]...).sorted()
	}
	res.metrics["server.overhead_us"] = (reads(traced).quantileMS(0.5) - reads(&embedded).quantileMS(0.5)) * 1e3
	res.putTraceOverhead(ref.attempted, refEl, traced.attempted, tracedEl)
	res.metrics["harness.attributed_share"] = attributed(rec, ref, gen.Query, gen.Get, gen.Insert, gen.Delete, gen.Txn)
	res.metrics["wire.bytes_per_op"] = float64(wireBytes) / float64(n)
	res.metrics["wire.conn_writes_per_op"] = float64(wireWrites) / float64(n)
	if query.n > 0 {
		res.metrics["wire.bytes_per_row"] = float64(query.bytes) / float64(max(query.rows, 1))
		res.metrics["wire.frames_per_query"] = float64(query.writes) / float64(query.n)
	}
	return rec.WriteFile(filepath.Join(s.cfg.dir, "trace-served.json"), "served")
}
