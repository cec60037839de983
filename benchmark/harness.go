package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"rx"
	"rx/benchmark/gen"
	"rx/benchmark/trace"
	"rx/internal/core"
	"rx/internal/pagestore"
	"rx/internal/session"
	"rx/internal/wal"
	"rx/internal/xml"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	dir      string // work directory; databases and trace files live here
}

// setups is how many times a run sets its database up; setup_s and
// ingest_mb_per_s are the medians (the pipeline asks for a median of several
// set-ups per run). A traced run sets up once for its untraced pass and once
// over the counting wrappers for its traced pass.
const setups = 5

// batchDocs is the bulk-load batch: one WAL commit (one sync) per batch.
const batchDocs = 256

// result is what one run reports.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	notes     []string // human-readable lines printed before the result line
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) notef(format string, a ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

// lat is a set of latency samples in nanoseconds.
type lat []int64

func (l lat) sorted() lat {
	s := append(lat(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantileMS returns the q-quantile of sorted samples in milliseconds.
func (l lat) quantileMS(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	return float64(l[int(q*float64(len(l)-1))]) / 1e6
}

func (l lat) meanNS() float64 {
	if len(l) == 0 {
		return 0
	}
	var s int64
	for _, v := range l {
		s += v
	}
	return float64(s) / float64(len(l))
}

// tally collects one driver's samples, in the order the driver ran them.
type tally struct {
	byKind    [gen.NumKinds]lat
	attempted int
	failed    int
}

func (t *tally) add(k gen.Kind, ns int64, ok bool) {
	t.byKind[k] = append(t.byKind[k], ns)
	t.attempted++
	if !ok {
		t.failed++
	}
}

// tallies holds one tally per driver of a phase.
type tallies []*tally

func newTallies(n int) tallies {
	ts := make(tallies, n)
	for i := range ts {
		ts[i] = &tally{}
	}
	return ts
}

// merged folds the drivers into one tally.
func (ts tallies) merged() *tally {
	m := &tally{}
	for _, t := range ts {
		for k := range m.byKind {
			m.byKind[k] = append(m.byKind[k], t.byKind[k]...)
		}
		m.attempted += t.attempted
		m.failed += t.failed
	}
	return m
}

// minP99Samples is the least number of samples a reported p99 should rest
// on; a thinner one is reported with a note.
const minP99Samples = 2000

// putLatency reports the median and the 99th percentile of every sample of
// the phase under prefix. Both are over the whole phase: a checkpoint, a
// slow sync or a collection pause that lands in it is what the p99 is there
// to show.
func (r *result) putLatency(prefix string, samples lat) {
	s := samples.sorted()
	r.metrics[prefix+"_p50_ms"] = s.quantileMS(0.50)
	r.metrics[prefix+"_p99_ms"] = s.quantileMS(0.99)
	if len(s) < minP99Samples {
		r.notef("note: %s_p99_ms rests on %d samples (< %d)", prefix, len(s), minP99Samples)
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// engine is an open database plus, in a traced run, the counting wrappers
// it was opened over.
type engine struct {
	db      *core.DB
	dbPath  string
	walPath string
	close   func() error

	device  *trace.Store  // below the checksum layer: what reaches the file
	logical *trace.Store  // above it: one read is one checksum verification
	wal     *trace.Device // the log device
}

type engineOpts struct {
	dir         string
	poolPages   int
	groupCommit time.Duration
	counted     bool            // open over the counting wrappers
	rec         *trace.Recorder // device calls become child spans (counted only)
}

// openEngine opens (or recovers) the database in o.dir with the production
// configuration: file store, WAL, checksums. Uncounted it goes through
// rx.Open exactly as a user would; counted it assembles the same stack from
// the same public constructors with the wrappers in between.
func openEngine(o engineOpts) (*engine, error) {
	e := &engine{dbPath: filepath.Join(o.dir, "db.rxdb"), walPath: filepath.Join(o.dir, "db.wal")}
	if !o.counted {
		opts := []rx.Option{rx.WithWAL(e.walPath), rx.WithChecksums(), rx.WithPoolPages(o.poolPages)}
		if o.groupCommit > 0 {
			opts = append(opts, rx.WithGroupCommit(o.groupCommit))
		}
		db, err := rx.Open(e.dbPath, opts...)
		if err != nil {
			return nil, err
		}
		e.db, e.close = db.Engine(), db.Close
		return e, nil
	}
	fs, err := pagestore.OpenFile(e.dbPath)
	if err != nil {
		return nil, err
	}
	e.device = trace.WrapStore(fs, o.rec)
	e.logical = trace.WrapStore(pagestore.NewChecksumStore(e.device), nil)
	fd, err := wal.OpenFileDevice(e.walPath)
	if err != nil {
		fs.Close()
		return nil, err
	}
	e.wal = trace.WrapDevice(fd, o.rec)
	var wopts []wal.Option
	if o.groupCommit > 0 {
		wopts = append(wopts, wal.WithGroupCommit(o.groupCommit))
	}
	log, err := wal.Open(e.wal, wopts...)
	if err == nil {
		e.db, err = core.Recover(e.logical, log, core.Options{PoolPages: o.poolPages, WAL: log})
	}
	if err != nil {
		fs.Close()
		fd.Close()
		return nil, err
	}
	e.close = func() error { return errors.Join(e.db.Close(), fd.Close()) }
	return e, nil
}

// storedBytes is the size of the database file (data pages and checksum
// sidecar pages share it); the WAL is reported separately.
func (e *engine) storedBytes() (int64, error) {
	st, err := os.Stat(e.dbPath)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// loadBatches bulk-loads docs in batchDocs-sized batches and returns the
// DocIDs in input order.
func loadBatches(ctx context.Context, api session.API, col string, docs [][]byte) ([]xml.DocID, error) {
	ids := make([]xml.DocID, 0, len(docs))
	for i := 0; i < len(docs); i += batchDocs {
		j := min(i+batchDocs, len(docs))
		got, err := api.InsertBatch(ctx, col, docs[i:j])
		if err != nil {
			return nil, fmt.Errorf("load %s batch at %d: %w", col, i, err)
		}
		ids = append(ids, got...)
	}
	return ids, nil
}

// runQuery opens a cursor, drains it and checks the result against the
// oracle. The time is open cursor → last row drained.
func runQuery(ctx context.Context, api session.API, op *gen.Op, extra ...session.QueryOption) (int64, bool) {
	opts := extra
	if op.Values {
		opts = append(opts[:len(opts):len(opts)], session.NeedValues())
	}
	var got gen.Digest
	t := time.Now()
	cur, err := api.Query(ctx, op.Col, op.Expr, opts...)
	if err != nil {
		return int64(time.Since(t)), false
	}
	for cur.Next() {
		if op.Values {
			got.Add(cur.Result().Value)
		} else {
			got.Count++
		}
	}
	err = cur.Err()
	cur.Close()
	ns := int64(time.Since(t))
	return ns, err == nil && got == op.Want
}

// runGet fetches a document and checks its bytes against the oracle. The
// time is DocID → serialized bytes; hashing them is outside it.
func runGet(ctx context.Context, api session.API, op *gen.Op, id xml.DocID) (int64, bool) {
	t := time.Now()
	b, err := api.Get(ctx, op.Col, id)
	ns := int64(time.Since(t))
	return ns, err == nil && len(b) == op.WantLen && gen.HashBytes(b) == op.WantHash
}

// measureSetups sets a workload's database up in fresh directories under the
// run's directory — setups times, once in a traced run, through rx.Open or
// (counted) over the counting wrappers — closing all but the last database,
// and returns the last one with the medians of the set-up time and of the
// bulk-load rate.
func measureSetups[T any](cfg config, counted bool, setup func(dir string, counted bool) (T, setupCost, error), discard func(T) error) (T, setupCost, error) {
	var last T
	var secs, rates []float64
	var cost setupCost
	dir, n := filepath.Join(cfg.dir, cfg.workload), setups
	if cfg.trace {
		n = 1
	}
	for i := 0; i < n; i++ {
		d := filepath.Join(dir, fmt.Sprintf("db%d-%v", i, counted))
		if err := os.MkdirAll(d, 0o755); err != nil {
			return last, cost, err
		}
		v, c, err := setup(d, counted)
		if err != nil {
			return last, cost, err
		}
		secs, rates = append(secs, c.seconds), append(rates, c.mbPerS)
		cost = c
		if i < n-1 {
			// Closed but not removed: deleting tens of megabytes now would
			// have the file system trimming blocks during the timed phase.
			// The run's whole directory is removed when the run ends.
			if err := discard(v); err != nil {
				return last, cost, err
			}
		} else {
			last = v
		}
	}
	cost.seconds, cost.mbPerS = median(secs), median(rates)
	// Flush what the discarded set-ups wrote, so that it is not written back
	// during the timed phase.
	syscall.Sync()
	return last, cost, nil
}

// setupCost is what one set-up took: engine work before timing (open, load,
// index build, RefreshStats, warm-up), the bulk-load rate inside it, and
// the statistics refresh inside it.
type setupCost struct {
	seconds   float64
	mbPerS    float64
	refreshMS float64
}

// putEndToEnd reports the user metrics every workload has: ops operations
// in el of timed phase, the stored-to-source ratio, and the share of all
// the run's verified operations that failed.
func (r *result) putEndToEnd(cost setupCost, ops int, el time.Duration, storedRatio float64) {
	r.metrics["setup_s"] = cost.seconds
	r.metrics["ingest_mb_per_s"] = cost.mbPerS
	r.metrics["ops_per_s"] = float64(ops) / el.Seconds()
	r.metrics["stored_bytes_per_user_byte"] = storedRatio
	r.metrics["failed_share"] = float64(r.failed) / float64(max(r.attempted, 1))
	r.metrics["stats.refresh_ms"] = cost.refreshMS
}

// putTraceOverhead reports how much slower the traced pass ran than the
// untraced reference pass.
func (r *result) putTraceOverhead(refOps int, refEl time.Duration, tracedOps int, tracedEl time.Duration) {
	refRate, tracedRate := float64(refOps)/refEl.Seconds(), float64(tracedOps)/tracedEl.Seconds()
	r.metrics["harness.trace_overhead_share"] = 1 - tracedRate/refRate
}

// putProbes runs the micro-probes and reports what they measured.
func (r *result) putProbes(in trace.ProbeInput) error {
	probes, err := trace.Probe(in)
	for k, v := range probes {
		r.metrics[k] = v
	}
	return err
}

// checkLiveSet checks that the collection holds exactly the documents of
// live, as one verified operation of t.
func (r *result) checkLiveSet(t *tally, got []xml.DocID, live map[xml.DocID]bool) {
	t.attempted++
	if len(got) != len(live) {
		t.failed++
		r.notef("%d documents at the end, want %d", len(got), len(live))
		return
	}
	for _, id := range got {
		if !live[id] {
			t.failed++
			r.notef("unexpected document %d at the end", id)
			return
		}
	}
}

// copyFile copies src to dst as the bytes are on disk now, without closing
// or flushing whatever has src open: a crash image of a killed process.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// memDelta is the Go runtime's view of a phase.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) report(r *result, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if ops > 0 {
		r.metrics["runtime.allocs_per_op"] = float64(after.Mallocs-m.before.Mallocs) / float64(ops)
		r.metrics["runtime.bytes_per_op"] = float64(after.TotalAlloc-m.before.TotalAlloc) / float64(ops)
	}
	r.metrics["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-m.before.PauseTotalNs) / 1e6
	r.metrics["runtime.heap_peak_mb"] = float64(after.HeapSys) / 1e6
}

// counters is a snapshot of everything the engine and the wrappers count;
// phases report differences of two snapshots.
type counters struct {
	stats                         core.Stats
	reads, writes, syncs          int64
	readNS, writeNS               int64
	verifies                      int64
	walWrites, walBytes, walSyncs int64
}

func (e *engine) snapshot() counters {
	c := counters{stats: e.db.Stats()}
	if e.device != nil {
		c.reads, c.writes, c.syncs = e.device.Reads.Load(), e.device.Writes.Load(), e.device.Syncs.Load()
		c.readNS, c.writeNS = e.device.ReadNS.Load(), e.device.WriteNS.Load()
		c.verifies = e.logical.Reads.Load()
		c.walWrites, c.walBytes, c.walSyncs = e.wal.Writes.Load(), e.wal.WriteBytes.Load(), e.wal.Syncs.Load()
	}
	return c
}

// reportCounters writes the per-layer metrics that are differences of
// engine and wrapper counters over a phase that handled userBytes bytes of
// source XML.
func (r *result) reportCounters(e *engine, a, b counters, userBytes int64) {
	m := r.metrics
	hits, misses := b.stats.PoolHits-a.stats.PoolHits, b.stats.PoolMisses-a.stats.PoolMisses
	if hits+misses > 0 {
		m["buffer.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["buffer.evictions"] = float64(b.stats.PoolEvictions - a.stats.PoolEvictions)
	m["buffer.write_backs"] = float64(b.stats.PoolWriteBacks - a.stats.PoolWriteBacks)
	m["buffer.pinned_hw"] = float64(b.stats.PoolPinnedHW)
	m["pagestore.reads"] = float64(b.reads - a.reads)
	m["pagestore.writes"] = float64(b.writes - a.writes)
	m["pagestore.syncs"] = float64(b.syncs - a.syncs)
	m["pagestore.read_ms"] = float64(b.readNS-a.readNS) / 1e6
	m["pagestore.write_ms"] = float64(b.writeNS-a.writeNS) / 1e6
	m["pagestore.checksum_verifies"] = float64(b.verifies - a.verifies)
	m["wal.writes"] = float64(b.walWrites - a.walWrites)
	if userBytes > 0 {
		m["pagestore.bytes_written_per_user_byte"] = float64(b.writes-a.writes) * pagestore.PageSize / float64(userBytes)
		m["wal.bytes_per_user_byte"] = float64(b.walBytes-a.walBytes) / float64(userBytes)
	}
	if c := b.stats.WALCommits - a.stats.WALCommits; c > 0 {
		m["wal.syncs_per_commit"] = float64(b.stats.WALSyncs-a.stats.WALSyncs) / float64(c)
	}
	if e.wal != nil {
		m["wal.sync_ms_p50"] = e.wal.SyncQuantile(0.50)
		m["wal.sync_ms_p99"] = e.wal.SyncQuantile(0.99)
	}
	if pc := (b.stats.PlanCacheHits - a.stats.PlanCacheHits) + (b.stats.PlanCacheMisses - a.stats.PlanCacheMisses); pc > 0 {
		m["session.plan_cache_hit_ratio"] = float64(b.stats.PlanCacheHits-a.stats.PlanCacheHits) / float64(pc)
	}
	m["lock.deadlock_reruns"] = float64(b.stats.DeadlockReruns - a.stats.DeadlockReruns)
	m["memgov.high_water_bytes"] = float64(b.stats.MemHighWater)
	m["memgov.denials"] = float64(b.stats.MemDenials - a.stats.MemDenials)
}
