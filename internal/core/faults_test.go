package core

// The fault-schedule driver. Every seeded fault matrix — power loss and
// process kills, torn writes and bit flips on the checksummed stack, and a
// full device — runs one workload against one oracle:
//
//   - the model is each committed document's expected serialization;
//   - a draw reads only the committed model (and the drawing transaction's
//     own staged ops), so a run stopped by a fault replays an exact prefix of
//     its seed's fault-free profile;
//   - an error passes only when the schedule's fault explains it: the
//     injector stopped the run, or the device is cut and the error is the
//     typed rxerr.ErrNoSpace;
//   - a run the fault did not stop is checked live, then killed (or power
//     cut); either way the engine is recovered from the durable image and
//     held to the model, with the in-flight commit in doubt only where the
//     stop landed writes the engine had not synced (a kill or a tear).
//
// Schedules come from one enumerator over the profile's write, sync and
// read counts (and, on the disk leg, a cut run's denial count), and each is
// labelled (fault action, workload step whose call returned the fault). A
// leg logs its class table and, on the default window, fails when a class
// its matrix reached before is missing. Replay works because record
// placement and index maintenance are deterministic functions of the
// operation history (heap.Insert, Collection.Vacuum, reconcileValueKeys).

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"rx/internal/fault"
	"rx/internal/leakcheck"
	"rx/internal/nodeid"
	"rx/internal/pagestore"
	"rx/internal/quickxscan"
	"rx/internal/rxerr"
	"rx/internal/wal"
	"rx/internal/xml"
	"rx/internal/xpath"
)

// faultPool is the engine's pool during a run: small enough that operations
// evict, and so WAL-flush, in the middle of a transaction — the window
// where undo-ordering bugs live.
const faultPool = 6

// faultWindow is the default seed window of every leg (fault.Seeds).
const faultWindow = "9-12"

// flipBit is the bit a flip schedule flips in the page it hits.
const flipBit = 8*777 + 3

// faultLeg is one matrix: a storage stack, a draw table and the faults the
// enumerator places.
type faultLeg struct {
	test      string // the entry point, for the rerun line
	checksums bool   // a ChecksumStore above the fault layer; recovery also passes ScanPages and a clean scrub
	versioned bool
	draws     drawTable
	faults    []faultSpec
	disk      bool   // cut the device to every eighth of the profile's appetite, then refill it
	excluded  string // a class the leg declares out of reach, and why
	// required lists the classes the default window must reach: those the
	// leg's matrix reached on its own hand-placed seeds before this driver.
	required []string
}

// faultSpec places act at every stride-th index of op the profile observed.
type faultSpec struct {
	act    fault.Action
	op     fault.Op
	stride uint64
}

// drawTable is a leg's workload: per iteration a checkpoint, a bulk load of
// 2-4 documents, or a transaction of 1-2 operations drawn from ops, which is
// then rolled back or committed.
type drawTable struct {
	iters                    int
	checkpoint, bulk, rollbk float64
	ops                      []opDraw // by cumulative share; the rest delete
	edit                     func(rng *rand.Rand, doc, kind string, seq int) (editSpec, bool)
}

type opDraw struct {
	upTo float64
	kind string // insert, update, fragment or subtree
}

// editSpec is one sub-document edit: an update of the j-th element at path's
// text, a fragment appended to the element at path, or a delete of the
// j-th element at path.
type editSpec struct {
	kind, path string
	j          int
	content    string
}

var crashDraws = drawTable{
	iters: 24, checkpoint: 0.10, rollbk: 0.15,
	ops:  []opDraw{{0.35, "insert"}, {0.55, "update"}, {0.70, "fragment"}, {0.85, "subtree"}},
	edit: crashEdit,
}

// crashEdit edits the padded <t> text and the <l> list: new <i> items (one
// in three wraps an element name new to the document, which widens the root
// record's signature before the record effect) and deletes of any item.
func crashEdit(rng *rand.Rand, doc, kind string, seq int) (editSpec, bool) {
	switch kind {
	case "update":
		return editSpec{kind, "/d/t", 0, faultPad("u", seq)}, true
	case "fragment":
		item := fmt.Sprintf("i%d", seq)
		if rng.Intn(3) == 0 {
			item = fmt.Sprintf("<m>%s</m>", item)
		}
		return editSpec{kind, "/d/l", 0, "<i>" + item + "</i>"}, true
	}
	n := strings.Count(doc, "<i>")
	if n == 0 {
		return editSpec{}, false
	}
	return editSpec{kind, "/d/l/i", rng.Intn(n), ""}, true
}

// diskEdit edits the indexed <k>s: the first one's text, a new last one,
// and a delete of the last (of <t> when one <k> is left; a document down to
// one <k> and no <t> gets a new <k> instead).
func diskEdit(_ *rand.Rand, doc, kind string, seq int) (editSpec, bool) {
	ks := strings.Count(doc, "<k>")
	switch {
	case kind == "update":
		return editSpec{kind, "/d/k", 0, fmt.Sprintf("k%d", 5+seq%5)}, true
	case kind == "fragment" || ks == 1 && !strings.Contains(doc, "<t>"):
		return editSpec{"fragment", "/d", 0, fmt.Sprintf("<k>k%d</k>", seq%5)}, true
	case ks == 1:
		return editSpec{kind, "/d/t", 0, ""}, true
	}
	return editSpec{kind, "/d/k", ks - 1, ""}, true
}

// The checksummed legs cannot take kills yet.
const sidecarDefect = "kill@*: a kill lands a data page whose sidecar checksum entry was still buffered, " +
	"and the database then fails to open (ROADMAP, known defects)"

var (
	crashLeg = faultLeg{
		test: "TestCrashRecoveryTorture", draws: crashDraws,
		faults:   []faultSpec{{fault.Crash, fault.Sync, 1}, {fault.Kill, fault.Sync, 1}, {fault.Crash, fault.Write, 1}, {fault.Kill, fault.Write, 1}},
		required: []string{"crash@checkpoint", "crash@commit", "crash@fragment", "crash@insert", "crash@locate", "crash@rollback", "kill@checkpoint", "kill@commit", "kill@fragment", "kill@insert", "kill@locate", "kill@rollback"},
	}
	versionedLeg = faultLeg{
		test: "TestCrashRecoveryTortureVersioned", versioned: true,
		// Inserts and deletes only: a versioned edit's compensation is a
		// targeted inverse, which a torn log tail can defeat.
		draws:    drawTable{iters: 24, checkpoint: 0.10, rollbk: 0.15, ops: []opDraw{{0.35, "insert"}}},
		faults:   crashLeg.faults,
		required: []string{"crash@checkpoint", "crash@commit", "crash@insert", "crash@rollback", "kill@checkpoint", "kill@commit", "kill@insert", "kill@rollback"},
	}
	sidecarLeg = faultLeg{
		test: "TestTortureSidecarWALCrashRecovery", checksums: true, draws: crashDraws,
		faults:   []faultSpec{{fault.Crash, fault.Sync, 1}, {fault.Crash, fault.Write, 3}},
		excluded: sidecarDefect,
		required: []string{"crash@checkpoint", "crash@commit", "crash@insert", "crash@rollback"},
	}
	tearLeg = faultLeg{
		test: "TestTortureTornPageDetection", checksums: true, draws: crashDraws,
		faults:   []faultSpec{{fault.Tear, fault.Write, 2}},
		excluded: sidecarDefect,
		required: []string{"tear@checkpoint", "tear@commit", "tear@insert", "tear@rollback"},
	}
	flipLeg = faultLeg{
		test: "TestTortureBitFlipDetection", checksums: true, draws: crashDraws,
		faults:   []faultSpec{{fault.Flip, fault.Read, 2}},
		excluded: sidecarDefect,
		required: []string{"flip@end", "flip@read", "flip@recover"},
	}
	diskLeg = faultLeg{
		test: "TestExhaustionTorture", disk: true,
		draws: drawTable{iters: 30, checkpoint: 0.10, bulk: 0.20,
			ops:  []opDraw{{0.714, "insert"}, {0.762, "update"}, {0.810, "fragment"}, {0.857, "subtree"}},
			edit: diskEdit},
		required: []string{"nospace@bulk", "nospace@commit", "nospace@insert", "refill@bulk", "refill@commit", "refill@rollback"},
	}
)

// TestCrashRecoveryTorture stops the workload at every write and sync, once
// by power loss (a commit that returned an error is a loser) and once by a
// process kill (every accepted write lands, so the in-flight commit is in
// doubt).
func TestCrashRecoveryTorture(t *testing.T) { runFaultLeg(t, &crashLeg) }

// TestCrashRecoveryTortureVersioned runs the same schedules over a versioned
// collection: every rolled-back or loser insert and delete is compensated on
// the versioned key layout.
func TestCrashRecoveryTortureVersioned(t *testing.T) { runFaultLeg(t, &versionedLeg) }

// TestTortureSidecarWALCrashRecovery cuts power on the checksummed, logged
// stack at every sync and every third write: after recovery every page, data
// and sidecar, verifies and a scrub is clean.
func TestTortureSidecarWALCrashRecovery(t *testing.T) { runFaultLeg(t, &sidecarLeg) }

// TestTortureTornPageDetection tears every other write (power loss mid-write:
// half the page lands). Torn data pages are not recoverable without
// full-page images, so each schedule must recover exactly or report
// ErrPageChecksum, never succeed over corrupt data.
func TestTortureTornPageDetection(t *testing.T) { runFaultLeg(t, &tearLeg) }

// TestTortureBitFlipDetection flips a bit in every other page read that
// recovery makes of the profile's durable image: each schedule recovers
// exactly or reports ErrPageChecksum.
func TestTortureBitFlipDetection(t *testing.T) { runFaultLeg(t, &flipLeg) }

// TestExhaustionTorture cuts the device to every eighth of the workload's
// appetite, and gives space back after chosen denials of one cut. Every
// schedule ends fully recovered (read-write) or consistently degraded
// (writes shed with the typed rxerr.ErrNoSpace, reads serve), and the kill
// image recovers to the same model.
func TestExhaustionTorture(t *testing.T) { runFaultLeg(t, &diskLeg) }

// schedule is one run of a seed's workload. The zero schedule is the
// profile: no fault, an unlimited device, a live check, then Close and a
// kill.
type schedule struct {
	rule    fault.Rule // N == 0 with Act Crash: power loss after the live check instead
	cut     bool       // disk leg: the device holds eighths/8 of the profile's appetite past setup
	eighths int64
	refill  uint64 // disk leg: space comes back after this denial
}

func (s schedule) String() string {
	switch {
	case s.refill > 0:
		return fmt.Sprintf("refill@%d (headroom %d/8)", s.refill, s.eighths)
	case s.cut:
		return fmt.Sprintf("headroom %d/8", s.eighths)
	case s.rule.N == 0:
		return s.action() + "@end"
	}
	return s.rule.String()
}

// action is the schedule's half of its class label.
func (s schedule) action() string {
	switch {
	case s.refill > 0:
		return "refill"
	case s.cut:
		return "nospace"
	case s.rule.N == 0 && s.rule.Act == fault.Crash:
		return "crash"
	case s.rule.N == 0:
		return "kill"
	}
	return s.rule.Act.String()
}

// refillEighths is the cut whose denials place the refills.
const refillEighths = 3

// enumerate lists the schedules a run's counts place. From a profile: the
// leg's faults at the write, sync and read indices it observed (on the disk
// leg, the cuts). From the disk leg's refillEighths cut: space back after
// the first, middle and last denial its workload reached, so each refill
// fires.
func enumerate(leg *faultLeg, p *faultRun) []schedule {
	var out []schedule
	switch {
	case p.sch.cut:
		for _, n := range slices.Compact([]uint64{1, (p.denials + 1) / 2, p.denials}) {
			if n > 0 {
				out = append(out, schedule{cut: true, eighths: p.sch.eighths, refill: n})
			}
		}
	case leg.disk:
		for k := int64(0); k < 8; k++ {
			out = append(out, schedule{cut: true, eighths: k})
		}
	default:
		out = append(out, schedule{rule: fault.Rule{Act: fault.Crash}})
		for _, f := range leg.faults {
			lo, hi := uint64(1), p.reads
			switch f.op {
			case fault.Write:
				lo, hi = p.setupW+1, p.endW
			case fault.Sync:
				lo, hi = p.setupS+1, p.endS
			}
			for n := lo; n <= hi; n += f.stride {
				out = append(out, schedule{rule: fault.Rule{Op: f.op, N: n, Act: f.act, Keep: pagestore.PageSize / 2, Bit: flipBit}})
			}
		}
	}
	return out
}

// faultRun is one workload run over fault-wrapped storage, and its model.
type faultRun struct {
	t      *testing.T
	leg    *faultLeg
	sch    schedule
	name   string
	mem    *pagestore.MemStore
	dev    *wal.MemDevice
	inj    *fault.Injector
	budget *fault.DiskBudget // disk leg only
	db     *DB
	col    *Collection

	model map[xml.DocID]string
	order []xml.DocID // committed documents in insertion order, for draws
	// pending holds the ops of the transaction whose Commit was in flight
	// when the run stopped.
	pending []pendOp
	sheds   int
	label   string // the step whose call first returned the schedule's fault

	setupW, setupS, endW, endS uint64 // injector counts after setup and at workload end
	setupUsed                  int64  // budget used after setup
	denials                    uint64 // budget denials at workload end
	reads                      uint64 // reads recovery made through CheckConsistency
	detected                   bool   // recovery reported the tear or flip as ErrPageChecksum
}

// pendOp is one model mutation a transaction staged; a nil doc is a delete.
type pendOp struct {
	id  xml.DocID
	doc *string
}

func findPend(pend []pendOp, id xml.DocID) int {
	for i := len(pend) - 1; i >= 0; i-- { // the latest op on the doc wins
		if pend[i].id == id {
			return i
		}
	}
	return -1
}

// faultPad bulks up <t> text so documents span pages.
func faultPad(tag string, seq int) string {
	return fmt.Sprintf("%s%d|%s", tag, seq, strings.Repeat("x", 600+seq%5*160))
}

// faultDoc is the workload's document. A second <k> clears the index's
// SingleValued flag, which must reach the log before the entries that break
// it (CheckConsistency holds the flag to the stored documents).
func faultDoc(seq int, twoKeys bool) string {
	k := fmt.Sprintf("<k>k%d</k>", seq%7)
	if twoKeys {
		k += fmt.Sprintf("<k>k%d</k>", seq%5)
	}
	return fmt.Sprintf("<d><t>%s</t>%s<l><i>a%d</i><i>b%d</i></l></d>", faultPad("v", seq), k, seq, seq)
}

// openFault builds the engine over fault-wrapped storage (a byte budget on
// the disk leg, unlimited until a cut), with one collection and a value
// index on /d/k, and checkpoints. tune, when non-nil, adjusts the options.
func openFault(t *testing.T, leg *faultLeg, sch schedule, groupCommit bool, tune func(*faultRun, *Options)) *faultRun {
	t.Helper()
	r := &faultRun{t: t, leg: leg, sch: sch, mem: pagestore.NewMemStore(), dev: &wal.MemDevice{}, model: map[xml.DocID]string{}}
	var rules []fault.Rule
	if sch.rule.N > 0 && sch.rule.Op != fault.Read {
		rules = append(rules, sch.rule)
	}
	r.inj = fault.NewInjector(rules...)
	if leg.disk {
		var refill []fault.Refill
		if sch.refill > 0 {
			refill = append(refill, fault.Refill{Denial: sch.refill, Bytes: 1 << 40})
		}
		r.budget = fault.NewDiskBudget(1<<40, refill...)
		r.inj.WithBudget(r.budget)
	}
	// Checksums sit above the fault layer: torn or flipped pages must be
	// caught on the way back up.
	var st pagestore.Store = fault.NewStore(r.mem, r.inj)
	if leg.checksums {
		st = pagestore.NewChecksumStore(st)
	}
	var wopts []wal.Option
	if groupCommit {
		// The workload has one writer, so the window must change no
		// durability outcome. The fault layer sits under the group-commit
		// logic, so sync faults land mid-group too.
		wopts = append(wopts, wal.WithGroupCommit(200*time.Microsecond))
	}
	log, err := wal.Open(fault.NewDevice(r.dev, r.inj), wopts...)
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	opts := Options{WAL: log, PoolPages: faultPool, LockTimeoutMillis: 500}
	if tune != nil {
		tune(r, &opts)
	}
	if r.db, err = Open(st, opts); err != nil {
		t.Fatalf("open: %v", err)
	}
	if r.col, err = r.db.CreateCollection("c", CollectionOptions{Versioned: leg.versioned}); err != nil {
		t.Fatalf("create collection: %v", err)
	}
	if err := r.col.CreateValueIndex("kix", "/d/k", xml.TString); err != nil {
		t.Fatalf("create index: %v", err)
	}
	if err := r.db.Checkpoint(); err != nil {
		t.Fatalf("setup checkpoint: %v", err)
	}
	r.setupW, r.setupS, _ = r.inj.Counts()
	if r.budget != nil {
		r.setupUsed = r.budget.Used()
	}
	return r
}

// fired reports whether the schedule's fault has happened.
func (r *faultRun) fired() bool {
	switch {
	case r.sch.cut:
		return r.budget.Denials() >= max(r.sch.refill, 1)
	case r.sch.rule.N == 0:
		return false
	}
	return r.inj.Crashed()
}

// fail is the one error rule, for a workload call at step that returned
// err: it passes only when the schedule's fault explains it. It reports
// whether the run has stopped.
func (r *faultRun) fail(step string, err error) bool {
	r.t.Helper()
	if err == nil {
		return false
	}
	if r.label == "" && r.fired() {
		r.label = step
	}
	switch {
	case r.inj.Crashed():
		return true
	case r.sch.cut && errors.Is(err, rxerr.ErrNoSpace):
		r.sheds++
		// Space may have come back (a refill fired). Play the watchdog: a
		// successful recovery re-enables writes, a failed one leaves the
		// engine degraded for the next probe.
		if deg, _ := r.db.Degraded(); deg && r.budget.Free() > 4*pagestore.PageSize {
			_ = r.db.TryRecoverWritable()
		}
		return false
	}
	r.t.Fatalf("%s: %s: an error the schedule does not explain: %v", r.name, step, err)
	return true
}

// parked reports the disk leg's second carve-out: a rollback that hit the
// full device parks its undo and pins the engine read-only, and until that
// debt replays the dead transaction's effects stay visible.
func (r *faultRun) parked() bool {
	deg, _ := r.db.Degraded()
	return deg && r.db.Stats().PendingUndo > 0
}

// workload drives the leg's draw table until it completes or the fault stops
// the engine.
func (r *faultRun) workload(seed int64) {
	d := &r.leg.draws
	rng := rand.New(rand.NewSource(seed))
	seq := 0
	for it := 0; it < d.iters; it++ {
		pick := rng.Float64()
		if pick < d.checkpoint {
			if r.fail("checkpoint", r.db.Checkpoint()) {
				return
			}
			continue
		}
		if pick < d.checkpoint+d.bulk {
			// All or nothing across the batch.
			var docs [][]byte
			var pend []pendOp
			for n := 2 + rng.Intn(3); len(docs) < n; {
				seq++
				doc := faultDoc(seq, rng.Intn(4) == 0)
				docs = append(docs, []byte(doc))
				pend = append(pend, pendOp{doc: &doc})
			}
			ids, err := txnInsertBatch(r.col, docs)
			if r.fail("bulk", err) {
				return
			}
			if err == nil {
				for i, id := range ids {
					pend[i].id = id
				}
				r.commit(pend)
			}
			continue
		}
		tx := r.db.Begin()
		var pend []pendOp
		ok := true
		for n := 1 + rng.Intn(2); ok && n > 0; n-- {
			seq++
			ok = r.op(tx, rng, seq, &pend)
		}
		if r.inj.Crashed() {
			return
		}
		if !ok || rng.Float64() < d.rollbk {
			if r.fail("rollback", tx.Rollback()) {
				return
			}
			continue
		}
		r.pending = pend
		err := tx.Commit()
		if r.fail("commit", err) {
			return // the commit stays in flight
		}
		r.pending = nil
		if err == nil {
			r.commit(pend)
		}
	}
}

// op draws and runs one operation of tx, staging its model effect in pend.
// It reports false when the operation failed and the transaction must go.
func (r *faultRun) op(tx *Txn, rng *rand.Rand, seq int, pend *[]pendOp) bool {
	pick, kind := rng.Float64(), "delete"
	for _, o := range r.leg.draws.ops {
		if pick < o.upTo {
			kind = o.kind
			break
		}
	}
	if kind == "insert" || len(r.order) == 0 {
		doc := faultDoc(seq, rng.Intn(4) == 0)
		id, err := tx.Insert(r.col, []byte(doc))
		if err != nil {
			r.fail("insert", err)
			return false
		}
		*pend = append(*pend, pendOp{id, &doc})
		return true
	}
	// The target's state inside this transaction.
	id := r.order[rng.Intn(len(r.order))]
	doc := r.model[id]
	if i := findPend(*pend, id); i >= 0 {
		if (*pend)[i].doc == nil {
			return true // this transaction already deleted it
		}
		doc = *(*pend)[i].doc
	}
	if kind == "delete" {
		if err := tx.Delete(r.col, id); err != nil {
			r.fail("delete", err)
			return false
		}
		*pend = append(*pend, pendOp{id, nil})
		return true
	}
	e, ok := r.leg.draws.edit(rng, doc, kind, seq)
	if !ok {
		return true
	}
	target := e.path
	if e.kind == "update" {
		target += "/text()"
	}
	nodes, err := r.locate(id, target, elemCount(doc, e.path))
	if err != nil {
		if r.parked() {
			return true // the live image may lack the document (fail's carve-out)
		}
		r.fail("locate", err)
		return false
	}
	switch e.kind {
	case "update":
		err = tx.UpdateText(r.col, id, nodes[e.j], []byte(e.content))
	case "fragment":
		_, err = tx.InsertFragment(r.col, id, nodes[0], AsLastChild, []byte(e.content))
	default:
		err = tx.DeleteSubtree(r.col, id, nodes[e.j])
	}
	if err != nil {
		r.fail(e.kind, err)
		return false
	}
	next := spliceDoc(doc, e)
	*pend = append(*pend, pendOp{id, &next})
	return true
}

// locate returns the nodes of one stored document that expr selects, in
// document order, and fails unless there are want of them.
func (r *faultRun) locate(doc xml.DocID, expr string, want int) ([]nodeid.ID, error) {
	q, err := xpath.Parse(expr)
	if err != nil {
		return nil, err
	}
	e, err := quickxscan.Compile(q, r.db.cat, nil, quickxscan.Options{})
	if err != nil {
		return nil, err
	}
	ms, err := r.col.evalStored(doc, e)
	if err != nil {
		return nil, err
	}
	if len(ms) != want {
		return nil, fmt.Errorf("doc %d: %s selects %d nodes, the model has %d", doc, expr, len(ms), want)
	}
	ids := make([]nodeid.ID, len(ms))
	for i, m := range ms {
		ids[i] = m.ID
	}
	return ids, nil
}

// elemCount counts the elements at path in a serialized document.
func elemCount(doc, path string) int {
	tag := path[strings.LastIndex(path, "/")+1:]
	return strings.Count(doc, "<"+tag+">") + strings.Count(doc, "<"+tag+"/>")
}

// spliceDoc applies an edit to a document's serialization. Elements of one
// name never nest in the workload's documents.
func spliceDoc(doc string, e editSpec) string {
	tag := e.path[strings.LastIndex(e.path, "/")+1:]
	open, close := "<"+tag+">", "</"+tag+">"
	switch e.kind {
	case "fragment":
		if i := strings.Index(doc, "<"+tag+"/>"); i >= 0 {
			return doc[:i] + open + e.content + close + doc[i+len(tag)+3:]
		}
		i := strings.LastIndex(doc, close)
		return doc[:i] + e.content + doc[i:]
	}
	at := 0
	for j := 0; ; j++ {
		at += strings.Index(doc[at:], open)
		if j == e.j {
			break
		}
		at += len(open)
	}
	body := at + len(open)
	end := body + strings.Index(doc[body:], close)
	if e.kind == "update" {
		return doc[:body] + e.content + doc[end:]
	}
	return strings.Replace(doc[:at]+doc[end+len(close):], "<l></l>", "<l/>", 1)
}

// commit applies a committed transaction's ops to the model, in order.
func (r *faultRun) commit(pend []pendOp) {
	for _, p := range pend {
		if p.doc == nil {
			delete(r.model, p.id)
			r.order = slices.DeleteFunc(r.order, func(o xml.DocID) bool { return o == p.id })
			continue
		}
		if _, ok := r.model[p.id]; !ok {
			r.order = append(r.order, p.id)
		}
		r.model[p.id] = *p.doc
	}
}

// liveCheck checks a run the fault did not stop: reads serve the model,
// storage verifies, and a probe write either commits or sheds typed. Two
// carve-outs, for the disk leg: a read may itself shed typed (evicting a
// dirty page first needs a log flush), and while a parked rollback is
// pending the live image may disagree with the model. Recovery then proves
// the whole model from the durable image regardless.
func (r *faultRun) liveCheck() {
	t := r.t
	t.Helper()
	pinned := func(err error) bool { return errors.Is(err, rxerr.ErrNoSpace) }
	parked := r.parked()
	for id, want := range r.model {
		var buf bytes.Buffer
		if err := r.col.Serialize(id, &buf); err != nil {
			if pinned(err) || parked {
				continue
			}
			t.Fatalf("%s: serialize %d: %v", r.name, id, err)
		}
		if buf.String() != want && !parked {
			t.Fatalf("%s: doc %d content mismatch", r.name, id)
		}
	}
	if err := r.col.CheckConsistency(); err != nil && !pinned(err) && !parked {
		t.Fatalf("%s: consistency: %v", r.name, err)
	}
	if err := r.db.VerifyPages(); err != nil && !pinned(err) {
		t.Fatalf("%s: verify pages: %v", r.name, err)
	}
	if ids, err := r.col.DocIDs(); err == nil && len(ids) != len(r.model) && !parked {
		t.Fatalf("%s: live doc count %d, model %d", r.name, len(ids), len(r.model))
	} else if err != nil && !pinned(err) && !parked {
		t.Fatalf("%s: live doc ids: %v", r.name, err)
	}
	const probe = `<d><t>probe</t><k>probe</k></d>`
	tx := r.db.Begin()
	id, err := tx.Insert(r.col, []byte(probe))
	if err == nil {
		err = tx.Commit()
	} else {
		_ = tx.Rollback()
	}
	switch {
	case err == nil:
		r.model[id] = probe
	case !pinned(err):
		t.Fatalf("%s: probe write failed untyped: %v", r.name, err)
	}
}

// recoverCheck recovers the engine from the durable image, through an
// injector that holds the schedule's read fault, and holds it to the model.
// It returns the phase that failed: "recover" or "read".
func (r *faultRun) recoverCheck() (string, error) {
	var rules []fault.Rule
	if r.sch.rule.Op == fault.Read {
		rules = append(rules, r.sch.rule)
	}
	vinj := fault.NewInjector(rules...)
	log, err := wal.Open(r.dev)
	if err != nil {
		return "recover", fmt.Errorf("reopen wal: %w", err)
	}
	var st pagestore.Store = fault.NewStore(r.mem, vinj)
	if r.leg.checksums {
		st = pagestore.NewChecksumStore(st)
	}
	db, err := Recover(st, log, Options{PoolPages: 64, LockTimeoutMillis: 500})
	if err != nil {
		return "recover", fmt.Errorf("recover: %w", err)
	}
	defer db.Close()
	col, err := db.Collection("c")
	if err != nil {
		return "recover", fmt.Errorf("collection after recovery: %w", err)
	}
	return "read", r.holds(db, col, vinj)
}

func (r *faultRun) holds(db *DB, col *Collection, vinj *fault.Injector) error {
	model := r.model
	if act := r.sch.rule.Act; r.pending != nil && (act == fault.Kill || act == fault.Tear) {
		// The stop landed writes the engine had not synced, so the
		// in-flight commit is in doubt: decide it by whether any of its
		// effects is visible, then hold the engine to that choice whole.
		committed := false
		for _, p := range r.pending {
			old, existed := r.model[p.id]
			has := col.Has(p.id)
			var buf bytes.Buffer
			switch {
			case p.doc == nil && !has, p.doc != nil && !existed && has:
				committed = true
			case p.doc != nil && existed:
				committed = committed || col.Serialize(p.id, &buf) == nil && buf.String() != old
			}
		}
		if committed {
			alt := &faultRun{model: maps.Clone(r.model)}
			alt.commit(r.pending)
			model = alt.model
		}
	}
	ids, err := col.DocIDs()
	if err != nil {
		return fmt.Errorf("doc ids: %w", err)
	}
	want := sortedKeys(model)
	slices.Sort(ids)
	if !slices.Equal(ids, want) {
		return fmt.Errorf("recovered docs %v, want %v", ids, want)
	}
	for _, id := range want {
		var buf bytes.Buffer
		if err := col.Serialize(id, &buf); err != nil {
			return fmt.Errorf("serialize %d: %w", id, err)
		}
		if got := buf.String(); got != model[id] {
			return fmt.Errorf("doc %d content mismatch (got %d bytes, want %d)", id, len(got), len(model[id]))
		}
	}
	if err := col.CheckConsistency(); err != nil {
		return fmt.Errorf("consistency after recovery: %w", err)
	}
	_, _, r.reads = vinj.Counts()
	if r.leg.checksums {
		if _, errs, err := db.ScanPages(nil); err != nil {
			return fmt.Errorf("scan pages: %w", err)
		} else if len(errs) != 0 {
			return fmt.Errorf("%d pages fail verification after recovery (first: page %d: %w)", len(errs), errs[0].Page, errs[0].Err)
		}
		rep, err := db.ScrubPass(nil)
		if err != nil {
			return fmt.Errorf("scrub: %w", err)
		}
		if !rep.Clean() {
			return fmt.Errorf("scrub not clean after recovery: %+v", rep)
		}
	}
	// Liveness: the recovered engine accepts and persists new work.
	tx := db.Begin()
	id, err := tx.Insert(col, []byte(`<d><t>alive</t><k>alive</k></d>`))
	if err == nil {
		err = tx.Commit()
	}
	if err != nil {
		return fmt.Errorf("post-recovery insert: %w", err)
	}
	if !col.Has(id) {
		return fmt.Errorf("post-recovery insert invisible")
	}
	if err := col.CheckConsistency(); err != nil {
		return fmt.Errorf("consistency after the post-recovery insert: %w", err)
	}
	return nil
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// isChecksumErr reports whether err is (or carries) a page-checksum
// mismatch. Error chains that cross a fmt.Errorf("%v") boundary lose the
// concrete type, so the message is matched as a fallback.
func isChecksumErr(err error) bool {
	var ce pagestore.ErrPageChecksum
	if errors.As(err, &ce) {
		return true
	}
	return err != nil && strings.Contains(err.Error(), "checksum mismatch")
}

// runSchedule runs one schedule of seed to its end and checks it: the
// workload, the live check and stop of a run the fault did not stop, then
// recovery from the durable image.
func runSchedule(t *testing.T, leg *faultLeg, seed int64, sch schedule, span int64) *faultRun {
	t.Helper()
	r := openFault(t, leg, sch, seed%2 == 1, nil)
	r.name = fmt.Sprintf("seed %d %s", seed, sch)
	if sch.cut {
		r.budget.SetCapacity(r.setupUsed + span*sch.eighths/8)
	}
	r.workload(seed)
	r.endW, r.endS, _ = r.inj.Counts()
	if r.budget != nil {
		r.denials = r.budget.Denials()
	}
	switch {
	case sch.rule.N > 0 && sch.rule.Op != fault.Read && !r.inj.Crashed():
		t.Fatalf("%s: schedule never fired (profile drift)", r.name)
	case sch.refill > 0 && r.denials < sch.refill:
		t.Fatalf("%s: refill never fired (%d denials)", r.name, r.denials)
	case sch.refill > 0:
		// With space back the engine must end fully recovered.
		if err := r.db.TryRecoverWritable(); err != nil {
			t.Fatalf("%s: recovery with space back: %v", r.name, err)
		}
		if deg, reason := r.db.Degraded(); deg {
			t.Fatalf("%s: still degraded after refill: %s", r.name, reason)
		}
	}
	if !r.inj.Crashed() {
		r.liveCheck()
		if sch.rule.N == 0 && sch.rule.Act == fault.Crash {
			r.inj.Crash()
		} else {
			_ = r.db.Close() // best effort: a full device may fail the final flush
			if err := r.inj.Kill(); err != nil {
				t.Fatalf("%s: kill: %v", r.name, err)
			}
		}
	}
	phase, err := r.recoverCheck()
	detects := sch.rule.Act == fault.Tear || sch.rule.Act == fault.Flip
	if err != nil && !(detects && isChecksumErr(err)) {
		t.Fatalf("%s: %v", r.name, err)
	}
	r.detected = err != nil
	if sch.rule.Op == fault.Read {
		if r.reads < sch.rule.N && !r.detected {
			t.Fatalf("%s: schedule never fired (%d reads)", r.name, r.reads)
		}
		r.label = ""
		if r.detected {
			r.label = phase
		}
	}
	return r
}

// classCount tallies one (action, step) class of a leg.
type classCount struct{ runs, detected, sheds int }

// runFaultLeg runs a leg over the seed window and checks its class table.
func runFaultLeg(t *testing.T, leg *faultLeg) {
	leakcheck.Check(t)
	seeds, err := fault.Seeds(faultWindow)
	if err != nil {
		t.Fatal(err)
	}
	full := os.Getenv(fault.SeedsEnv) == "" && !testing.Short()
	if testing.Short() {
		seeds = seeds[:1]
	}
	classes := map[string]classCount{}
	for _, seed := range seeds {
		var cur schedule
		if !t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			p := runSchedule(t, leg, seed, cur, 0)
			if p.endS <= p.setupS {
				t.Fatalf("seed %d: workload performed no syncs", seed)
			}
			var span int64
			if leg.disk {
				if span = p.budget.Used() - p.setupUsed; span <= 0 {
					t.Fatalf("seed %d: workload consumed no bytes", seed)
				}
			}
			queue := enumerate(leg, p)
			for i := 0; i < len(queue); i++ {
				cur = queue[i]
				r := runSchedule(t, leg, seed, cur, span)
				if r.label == "" {
					r.label = "end"
				}
				class := cur.action() + "@" + r.label
				c := classes[class]
				c.runs++
				c.sheds += r.sheds
				if r.detected {
					c.detected++
				}
				classes[class] = c
				if cur.cut && cur.refill == 0 && cur.eighths == refillEighths {
					queue = append(queue, enumerate(leg, r)...)
				}
			}
		}) {
			note := fmt.Sprintf("seed %d %s", seed, cur)
			if err := fault.Record(seed, "./internal/core", leg.test, note); err != nil {
				t.Logf("%s: %v", fault.ArtifactEnv, err)
			}
		}
	}
	total := 0
	for _, c := range classes {
		total += c.runs
	}
	t.Logf("%d schedules over seeds %d-%d; class table (schedules, detected, typed sheds):", total, seeds[0], seeds[len(seeds)-1])
	for _, name := range sortedKeys(classes) {
		c := classes[name]
		t.Logf("  %-20s %5d %5d %6d", name, c.runs, c.detected, c.sheds)
	}
	if leg.excluded != "" {
		t.Logf("  excluded: %s", leg.excluded)
	}
	if !full || t.Failed() {
		return
	}
	for _, want := range leg.required {
		if classes[want].runs == 0 {
			t.Errorf("class %s not reached on the default window %s", want, faultWindow)
		}
	}
}
