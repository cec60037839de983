package core

// Crash-recovery torture harness: a seeded workload of document inserts and
// deletes and of all three sub-document edits (UpdateText, InsertFragment,
// DeleteSubtree) runs over fault-wrapped storage (internal/fault), a
// crash-stop fault is injected at every sync boundary and at every write
// index, once as power loss and once as a process kill, and after each stop
// the engine is recovered from the durable image and checked against a
// client-side oracle:
//
//   - every transaction whose Commit returned nil is fully present,
//   - every transaction that did not commit is fully invisible,
//   - CheckConsistency passes, and the engine accepts new writes.
//
// The schedule mechanism is profile-then-replay: a fault-free run of the
// same seed counts the I/O operations the workload performs, and each
// torture run replays the identical operation sequence with a crash armed
// at one specific write or sync index. This only works because record
// placement and index maintenance are deterministic functions of the
// operation history (see heap.Insert, Collection.Vacuum,
// reconcileValueKeys).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"rx/internal/fault"
	"rx/internal/nodeid"
	"rx/internal/pagestore"
	"rx/internal/wal"
	"rx/internal/xml"
)

const (
	tortureIters = 24
	torturePool  = 6 // small pool forces mid-transaction eviction write-backs
)

// torturePad bulks up <t> text so documents span pages and the small pool
// evicts (and WAL-flushes) in the middle of operations — the window where
// undo-ordering bugs live.
func torturePad(tag string, seq int) string {
	return fmt.Sprintf("%s%d|%s", tag, seq, strings.Repeat("x", 600+seq%5*160))
}

// tortureDoc is the oracle's view of one committed document.
type tortureDoc struct {
	tval  string    // current text of <t>
	kvals []string  // texts of the <k>s (never updated; covered by a value index)
	items []string  // contents of the <i> children of <l>; copied, never edited in place
	tnode nodeid.ID // node ID of the text under <t>, for update ops
}

func (d tortureDoc) expect() string {
	l := "<l/>"
	if len(d.items) > 0 {
		l = "<l><i>" + strings.Join(d.items, "</i><i>") + "</i></l>"
	}
	return fmt.Sprintf("<d><t>%s</t><k>%s</k>%s</d>", d.tval, strings.Join(d.kvals, "</k><k>"), l)
}

// pendOp is one model mutation staged by an uncommitted transaction.
// A nil doc is a delete. Ops are kept in execution order: the oracle must
// replay them identically in profile and torture runs.
type pendOp struct {
	id  xml.DocID
	doc *tortureDoc
}

func findPend(pend []pendOp, id xml.DocID) int {
	for i := len(pend) - 1; i >= 0; i-- { // latest op for the doc wins
		if pend[i].id == id {
			return i
		}
	}
	return -1
}

// tortureEnv is the outcome of one workload run: the durable storage image
// at crash time plus the oracle of committed state.
type tortureEnv struct {
	mem   *pagestore.MemStore
	dev   *wal.MemDevice
	inj   *fault.Injector
	docs  map[xml.DocID]tortureDoc
	order []xml.DocID // committed docs in insertion order (for rng picks)

	// pending holds the ops of the transaction whose Commit was in flight
	// when the crash hit. Under power loss that transaction is always a
	// loser; a Tear can land a prefix of the commit batch durably, and a
	// Kill every record written before the sync, leaving it in doubt (see
	// tortureVerify).
	pending []pendOp

	checksums      bool   // storage stack includes a ChecksumStore
	setupW, setupS uint64 // injector counts after fault-free setup
	endW, endS     uint64 // counts at workload end (profile runs only)
}

// applyCommitted replays a committed transaction's ops into the oracle, in
// execution order: a later op on the same doc overrides an earlier one.
func (e *tortureEnv) applyCommitted(pend []pendOp) {
	for _, p := range pend {
		if p.doc == nil {
			delete(e.docs, p.id)
			for i, o := range e.order {
				if o == p.id {
					e.order = append(e.order[:i], e.order[i+1:]...)
					break
				}
			}
		} else {
			if _, ok := e.docs[p.id]; !ok {
				e.order = append(e.order, p.id)
			}
			e.docs[p.id] = *p.doc
		}
	}
}

// tortureWorkload drives the seeded workload until it completes or the
// injector crashes. Any non-crash failure is a test failure: the schedules
// only arm crash-stop faults, so every other error is an engine bug. With
// versioned set the collection is multiversioned and the workload draws
// inserts and deletes only: a versioned edit's compensation is a targeted
// inverse, which a torn log tail can defeat (no whole-document snapshot).
func tortureWorkload(t *testing.T, seed int64, rules []fault.Rule, checksums, versioned bool) *tortureEnv {
	t.Helper()
	env := &tortureEnv{
		mem:       pagestore.NewMemStore(),
		dev:       &wal.MemDevice{},
		inj:       fault.NewInjector(rules...),
		docs:      map[xml.DocID]tortureDoc{},
		checksums: checksums,
	}
	// Checksums sit above the fault layer: torn or flipped pages produced
	// by the injector must be caught on the way back up.
	var st pagestore.Store = fault.NewStore(env.mem, env.inj)
	if checksums {
		st = pagestore.NewChecksumStore(st)
	}
	// TORTURE_GROUPCOMMIT reruns every schedule with commit batching armed:
	// the workloads are single-writer, so the window must change no
	// durability outcome — only add bounded wait. The fault layer sits under
	// the group-commit logic, so injected sync crashes land mid-group too.
	var wopts []wal.Option
	if os.Getenv("TORTURE_GROUPCOMMIT") != "" {
		wopts = append(wopts, wal.WithGroupCommit(200*time.Microsecond))
	}
	log, err := wal.Open(fault.NewDevice(env.dev, env.inj), wopts...)
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	db, err := Open(st, Options{WAL: log, PoolPages: torturePool, LockTimeoutMillis: 500})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	col, err := db.CreateCollection("c", CollectionOptions{Versioned: versioned})
	if err != nil {
		t.Fatalf("create collection: %v", err)
	}
	if err := col.CreateValueIndex("kix", "/d/k", xml.TString); err != nil {
		t.Fatalf("create index: %v", err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("setup checkpoint: %v", err)
	}
	env.setupW, env.setupS, _ = env.inj.Counts()

	// Every rng draw below happens on a path determined only by the
	// committed model, so a crashed run consumes an exact prefix of the
	// profile run's draws.
	rng := rand.New(rand.NewSource(seed))
	seq := 0
	crashed := func(format string, a ...any) bool {
		if env.inj.Crashed() {
			return true // crash ends the run; durable image is the result
		}
		t.Fatalf(format, a...)
		return false
	}
	for it := 0; it < tortureIters; it++ {
		if rng.Float64() < 0.10 {
			if err := db.Checkpoint(); err != nil {
				if crashed("checkpoint: %v", err) {
					return env
				}
			}
			continue
		}
		tx := db.Begin()
		nops := 1 + rng.Intn(2)
		var pend []pendOp
		// target draws a committed document and returns the model of its
		// state inside this transaction; ok is false if the transaction has
		// already deleted it.
		target := func() (id xml.DocID, d tortureDoc, ok bool) {
			id = env.order[rng.Intn(len(env.order))]
			d = env.docs[id] // committed docs always have tnode resolved
			if i := findPend(pend, id); i >= 0 {
				if pend[i].doc == nil {
					return id, d, false
				}
				d = *pend[i].doc
			}
			return id, d, true
		}
		// nodesOf resolves a query's nodes within one document as it stands —
		// item IDs are not kept in the model, because a rolled-back
		// transaction restores a document under fresh node IDs.
		nodesOf := func(q string, id xml.DocID, want int) ([]nodeid.ID, bool) {
			res, _, err := col.QueryOpts(q, QueryOptions{})
			if err != nil {
				return nil, !crashed("query %s: %v", q, err)
			}
			var ids []nodeid.ID
			for _, r := range res {
				if r.Doc == id {
					ids = append(ids, r.Node)
				}
			}
			if len(ids) != want {
				t.Fatalf("doc %d: %s selects %d nodes, model has %d", id, q, len(ids), want)
			}
			return ids, true
		}
		for o := 0; o < nops; o++ {
			seq++
			pick := rng.Float64()
			if versioned && pick >= 0.35 {
				pick = max(pick, 0.85) // a delete in place of an edit
			}
			switch {
			case pick < 0.35 || len(env.order) == 0:
				d := tortureDoc{tval: torturePad("v", seq), kvals: []string{fmt.Sprintf("k%d", seq%7)},
					items: []string{fmt.Sprintf("a%d", seq), fmt.Sprintf("b%d", seq)}}
				if rng.Intn(4) == 0 {
					// A second <k>: the first such insert clears the index's
					// SingleValued flag, which must reach the log before the
					// entries that break it (CheckConsistency holds the flag
					// to the stored documents after every recovery).
					d.kvals = append(d.kvals, fmt.Sprintf("k%d", seq%5))
				}
				id, err := tx.Insert(col, []byte(d.expect()))
				if err != nil {
					if crashed("insert: %v", err) {
						return env
					}
				}
				pend = append(pend, pendOp{id, &d})
			case pick < 0.55:
				id, d, ok := target()
				if !ok {
					continue // this txn already deleted it; skip the op
				}
				d.tval = torturePad("u", seq)
				if err := tx.UpdateText(col, id, d.tnode, []byte(d.tval)); err != nil {
					if crashed("update %d: %v", id, err) {
						return env
					}
				}
				pend = append(pend, pendOp{id, &d})
			case pick < 0.70:
				id, d, ok := target()
				if !ok {
					continue
				}
				l, ok := nodesOf("/d/l", id, 1)
				if !ok {
					return env
				}
				item := fmt.Sprintf("i%d", seq)
				if rng.Intn(3) == 0 {
					// An element name new to the document: the edit widens
					// the root record's signature before its record effect.
					item = fmt.Sprintf("<m>%s</m>", item)
				}
				if _, err := tx.InsertFragment(col, id, l[0], AsLastChild, []byte("<i>"+item+"</i>")); err != nil {
					if crashed("insert fragment %d: %v", id, err) {
						return env
					}
				}
				d.items = append(d.items[:len(d.items):len(d.items)], item)
				pend = append(pend, pendOp{id, &d})
			case pick < 0.85:
				id, d, ok := target()
				if !ok || len(d.items) == 0 {
					continue
				}
				j := rng.Intn(len(d.items))
				is, ok := nodesOf("/d/l/i", id, len(d.items))
				if !ok {
					return env
				}
				if err := tx.DeleteSubtree(col, id, is[j]); err != nil {
					if crashed("delete subtree %d: %v", id, err) {
						return env
					}
				}
				d.items = append(d.items[:j:j], d.items[j+1:]...)
				pend = append(pend, pendOp{id, &d})
			default:
				id, _, ok := target()
				if !ok {
					continue // already deleted in this txn
				}
				if err := tx.Delete(col, id); err != nil {
					if crashed("delete %d: %v", id, err) {
						return env
					}
				}
				pend = append(pend, pendOp{id, nil})
			}
		}
		if rng.Float64() < 0.15 {
			if err := tx.Rollback(); err != nil {
				if crashed("rollback: %v", err) {
					return env
				}
			}
			continue
		}
		env.pending = pend
		if err := tx.Commit(); err != nil {
			if crashed("commit: %v", err) {
				return env
			}
		}
		env.pending = nil
		env.applyCommitted(pend)
		// Resolve the <t> text node ID of freshly inserted docs; a crash
		// here (eviction write-back during the scan) ends the run, with
		// the committed model already up to date.
		for _, p := range pend {
			if p.doc == nil || len(p.doc.tnode) != 0 {
				continue
			}
			if _, ok := env.docs[p.id]; !ok {
				continue // inserted then deleted in the same txn
			}
			res, _, err := col.QueryOpts("/d/t/text()", QueryOptions{})
			if err != nil {
				if crashed("post-commit query: %v", err) {
					return env
				}
			}
			for _, r := range res {
				if r.Doc == p.id {
					p.doc.tnode = r.Node
					break
				}
			}
			if len(p.doc.tnode) == 0 {
				t.Fatalf("committed doc %d has no /d/t/text() node", p.id)
			}
			env.docs[p.id] = *p.doc
		}
	}
	env.endW, env.endS, _ = env.inj.Counts()
	return env
}

// tortureVerify recovers the engine from the durable image and checks it
// against the oracle. A non-nil pending set marks one in-doubt transaction
// whose effects may be either fully present or fully absent (Tear and Kill
// faults can persist a prefix of the commit batch, up to and including the
// commit record itself).
func tortureVerify(t *testing.T, env *tortureEnv, label string) {
	t.Helper()
	if err := tortureVerifyErr(env); err != nil {
		t.Errorf("%s: %v", label, err)
	}
}

// tortureViolation marks an oracle mismatch — recovered state that is wrong
// without any I/O error having been reported. Fault modes that may
// legitimately lose pages (torn writes without full-page images) still must
// never produce one of these: they have to surface as ErrPageChecksum.
type tortureViolation struct{ msg string }

func (v tortureViolation) Error() string { return v.msg }

func violationf(format string, a ...any) error {
	return tortureViolation{fmt.Sprintf(format, a...)}
}

func tortureVerifyErr(env *tortureEnv) error {
	log, err := wal.Open(env.dev)
	if err != nil {
		return fmt.Errorf("reopen wal: %w", err)
	}
	var st pagestore.Store = env.mem
	if env.checksums {
		st = pagestore.NewChecksumStore(env.mem)
	}
	db, err := Recover(st, log, Options{PoolPages: 64, LockTimeoutMillis: 500})
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	col, err := db.Collection("c")
	if err != nil {
		return fmt.Errorf("collection after recovery: %w", err)
	}

	model := env.docs
	if env.pending != nil {
		// Disambiguate the in-doubt transaction by whether any of its
		// effects are visible, then hold the engine to that choice
		// atomically: the checks below fail on a partial application.
		committed := false
		for _, p := range env.pending {
			old, existed := env.docs[p.id]
			has := col.Has(p.id)
			switch {
			case p.doc == nil && !has:
				committed = true
			case p.doc != nil && !existed && has:
				committed = true
			case p.doc != nil && existed:
				var buf bytes.Buffer
				if err := col.Serialize(p.id, &buf); err == nil && buf.String() != old.expect() {
					committed = true
				}
			}
		}
		if committed {
			alt := &tortureEnv{docs: map[xml.DocID]tortureDoc{}}
			for id, d := range env.docs {
				alt.docs[id] = d
			}
			alt.applyCommitted(env.pending)
			model = alt.docs
		}
	}

	ids, err := col.DocIDs()
	if err != nil {
		return fmt.Errorf("doc ids: %w", err)
	}
	var want []xml.DocID
	for id := range model {
		want = append(want, id)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		return violationf("recovered docs %v, want %v", ids, want)
	}
	for id, d := range model {
		var buf bytes.Buffer
		if err := col.Serialize(id, &buf); err != nil {
			return fmt.Errorf("serialize %d: %w", id, err)
		}
		if got := buf.String(); got != d.expect() {
			return violationf("doc %d content mismatch (got %d bytes, want %d)", id, len(got), len(d.expect()))
		}
	}
	if err := col.CheckConsistency(); err != nil {
		return fmt.Errorf("consistency after recovery: %w", err)
	}
	// Liveness: the recovered engine must accept and persist new work.
	tx := db.Begin()
	id, err := tx.Insert(col, []byte(`<d><t>alive</t><k>alive</k></d>`))
	if err == nil {
		err = tx.Commit()
	}
	if err != nil {
		return fmt.Errorf("post-recovery insert: %w", err)
	}
	if !col.Has(id) {
		return violationf("post-recovery insert invisible")
	}
	return nil
}

// tortureArtifact dumps the failing schedule for offline reproduction when
// TORTURE_ARTIFACT names a file (the CI crash-torture job sets it).
func tortureArtifact(t *testing.T, seed int64, rule fault.Rule, label string) {
	path := os.Getenv("TORTURE_ARTIFACT")
	if path == "" {
		return
	}
	blob, _ := json.MarshalIndent(map[string]any{
		"seed":     seed,
		"schedule": rule.String(),
		"label":    label,
		"rule":     rule,
	}, "", "  ")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Logf("writing %s: %v", path, err)
	} else {
		t.Logf("failing schedule written to %s", path)
	}
}

func tortureSeeds() []int64 {
	if s := os.Getenv("TORTURE_SEEDS"); s != "" {
		var seeds []int64
		if err := json.Unmarshal([]byte(s), &seeds); err == nil && len(seeds) > 0 {
			return seeds
		}
	}
	seeds := []int64{101, 202, 303, 404, 505}
	if testing.Short() {
		seeds = seeds[:2]
	}
	return seeds
}

func TestCrashRecoveryTorture(t *testing.T) { crashTorture(t, false) }

// TestCrashRecoveryTortureVersioned runs the crash schedules over a
// versioned collection: every rolled-back or loser insert and delete is
// compensated by removeDoc on the versioned key layout.
func TestCrashRecoveryTortureVersioned(t *testing.T) { crashTorture(t, true) }

// crashTorture runs on the unchecksummed stack. The checksummed suites
// (torn page, bit flip, sidecar) stay on power loss: a kill can land a data
// page whose sidecar checksum entry was still buffered, and the database
// then fails to open (ROADMAP, known defects).
func crashTorture(t *testing.T, versioned bool) {
	crashes, kills := 0, 0
	for _, seed := range tortureSeeds() {
		// Profile run: no faults; also verifies recovery from a crash, and
		// from a kill, that falls after the final operation.
		profile := tortureWorkload(t, seed, nil, false, versioned)
		if profile.endS <= profile.setupS {
			t.Fatalf("seed %d: workload performed no syncs", seed)
		}
		profile.inj.Crash()
		tortureVerify(t, profile, fmt.Sprintf("seed %d (clean)", seed))
		killed := tortureWorkload(t, seed, nil, false, versioned)
		if err := killed.inj.Kill(); err != nil {
			t.Fatalf("seed %d: kill: %v", seed, err)
		}
		tortureVerify(t, killed, fmt.Sprintf("seed %d (clean, killed)", seed))
		if t.Failed() {
			t.FailNow()
		}

		// Stop the run at every sync boundary and at every write index the
		// profile observed, once by power loss and once by a process kill:
		// the workload's I/O span is small enough (~40 writes, ~30 syncs)
		// that coverage can be exhaustive.
		var rules []fault.Rule
		for n := profile.setupS + 1; n <= profile.endS; n++ {
			rules = append(rules, fault.CrashOnSync(n), fault.KillOnSync(n))
		}
		for n := profile.setupW + 1; n <= profile.endW; n++ {
			rules = append(rules, fault.CrashOnWrite(n), fault.KillOnWrite(n))
		}

		for _, rule := range rules {
			label := fmt.Sprintf("seed %d %s", seed, rule)
			env := tortureWorkload(t, seed, []fault.Rule{rule}, false, versioned)
			if !env.inj.Crashed() {
				t.Fatalf("%s: schedule never fired (profile drift)", label)
			}
			if rule.Act == fault.Crash {
				// Crash-stop faults are all-or-nothing at the durability
				// boundary: a commit that returned an error is always a
				// loser, so the oracle is checked strictly, with no
				// in-doubt window.
				crashes++
				env.pending = nil
			} else {
				// A kill lands every log record the in-flight commit wrote
				// before its sync, so that transaction is in doubt.
				kills++
			}
			tortureVerify(t, env, label)
			if t.Failed() {
				tortureArtifact(t, seed, rule, label)
				t.FailNow()
			}
		}
	}
	t.Logf("torture: %d crash schedules survived", crashes)
	t.Logf("torture: %d kill schedules survived", kills)
	if !testing.Short() && crashes < 50 {
		t.Fatalf("only %d crash schedules exercised, want >= 50", crashes)
	}
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

// TestTortureTornPageDetection runs the workload over a checksummed stack
// and tears a write (power loss mid-write: a prefix lands durably) at every
// other write index. Torn data pages are not recoverable without full-page
// images, so the requirement is detection, not repair: every schedule must
// either recover to the exact oracle state or fail with ErrPageChecksum —
// never report success over silently corrupt data.
func TestTortureTornPageDetection(t *testing.T) {
	seeds := []int64{11, 22}
	if testing.Short() {
		seeds = seeds[:1]
	}
	clean, detected := 0, 0
	for _, seed := range seeds {
		profile := tortureWorkload(t, seed, nil, true, false)
		profile.inj.Crash()
		if err := tortureVerifyErr(profile); err != nil {
			t.Fatalf("seed %d (clean, checksummed): %v", seed, err)
		}
		for n := profile.setupW + 1; n <= profile.endW; n += 2 {
			rule := fault.TearWrite(n, pagestore.PageSize/2)
			label := fmt.Sprintf("seed %d %s", seed, rule)
			env := tortureWorkload(t, seed, []fault.Rule{rule}, true, false)
			if !env.inj.Crashed() {
				t.Fatalf("%s: tear never fired (profile drift)", label)
			}
			err := tortureVerifyErr(env)
			switch {
			case err == nil:
				clean++
			case isChecksumErr(err):
				detected++
			default:
				tortureArtifact(t, seed, rule, label)
				t.Fatalf("%s: %v", label, err)
			}
		}
	}
	t.Logf("torn-write schedules: %d recovered fully, %d detected via checksum", clean, detected)
}

// TestTortureBitFlipDetection flips one bit on the Nth page read, for every
// read index a fault-free profile observes, and requires that no flip ever
// surfaces as valid-looking data: each run either returns every document
// byte-identical to the original or reports ErrPageChecksum.
func TestTortureBitFlipDetection(t *testing.T) {
	mem := pagestore.NewMemStore()
	build, err := Open(pagestore.NewChecksumStore(mem), Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	col, err := build.CreateCollection("c", CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[xml.DocID]string{}
	for i := 0; i < 6; i++ {
		d := tortureDoc{tval: torturePad("v", i), kvals: []string{fmt.Sprintf("k%d", i)}}
		id := mustInsert(t, col, []byte(d.expect()))
		want[id] = d.expect()
	}
	if err := build.Flush(); err != nil {
		t.Fatal(err)
	}

	// readAll reopens the database over the given injector and serializes
	// every document, returning the I/O errors it hit and flagging any
	// content that differs from the original as silent corruption.
	readAll := func(inj *fault.Injector) (errs []error) {
		st := pagestore.NewChecksumStore(fault.NewStore(mem, inj))
		db, err := Open(st, Options{PoolPages: 64})
		if err != nil {
			return []error{err}
		}
		c, err := db.Collection("c")
		if err != nil {
			return []error{err}
		}
		for id, w := range want {
			var buf bytes.Buffer
			if err := c.Serialize(id, &buf); err != nil {
				errs = append(errs, err)
				continue
			}
			if buf.String() != w {
				t.Fatalf("silent corruption: doc %d returned wrong bytes without an error", id)
			}
		}
		return errs
	}

	profile := fault.NewInjector()
	if errs := readAll(profile); len(errs) != 0 {
		t.Fatalf("fault-free reopen failed: %v", errs)
	}
	_, _, reads := profile.Counts()
	if reads == 0 {
		t.Fatal("profile observed no reads")
	}
	detected := 0
	for k := uint64(1); k <= reads; k++ {
		errs := readAll(fault.NewInjector(fault.FlipOnRead(k, 8*777+3)))
		for _, err := range errs {
			if !isChecksumErr(err) {
				t.Fatalf("flip on read #%d: non-checksum failure: %v", k, err)
			}
		}
		if len(errs) > 0 {
			detected++
		}
	}
	if detected == 0 {
		t.Fatalf("no flip across %d read indices was detected", reads)
	}
	t.Logf("bit flips: %d/%d read indices surfaced ErrPageChecksum, rest unaffected", detected, reads)
}
