package core

// Resource-exhaustion torture harness: a seeded insert/edit/delete/bulk
// workload runs over fault-wrapped storage whose injector meters one
// fault.DiskBudget, so the whole engine sees a "device" with N bytes free.
// A profile run measures how many bytes the workload wants; torture runs
// replay it with the budget cut to every intermediate level — ENOSPC then
// surfaces through heap extension, WAL growth, group commit, checkpoint,
// and bulk load at different points — and refill schedules model an
// operator freeing space mid-run. Every schedule must end in one of two
// states, with nothing in between:
//
//   - fully recovered: the engine is read-write and accepts new commits, or
//   - consistently degraded: writes shed with the typed rx.ErrNoSpace
//     while reads, consistency checks, and page verification keep working.
//
// Either way the oracle holds exactly (a commit that returned nil is fully
// present, a failed one fully absent), every error observed is
// ErrNoSpace-typed, and recovering from the durable image afterwards
// reproduces the same oracle — the group-commit watermark never ran ahead
// of a failed flush. The durable image is the one a killed process leaves:
// every write the engine issued, synced or not.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
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

const exhaustionIters = 30

func exhaustionDoc(seq int) string {
	return fmt.Sprintf("<d><t>t%d|%s</t><k>k%d</k></d>", seq, strings.Repeat("y", 400+seq%7*120), seq%5)
}

// exhaustionEnv is one workload run over a byte-budgeted device stack.
type exhaustionEnv struct {
	mem    *pagestore.MemStore
	dev    *wal.MemDevice
	inj    *fault.Injector
	budget *fault.DiskBudget
	db     *DB
	col    *Collection

	oracle map[xml.DocID]string // committed docs -> expected serialization
	order  []xml.DocID
	shed   int // operations that failed with the typed no-space error
}

// exhaustionOpen builds the engine over a budgeted store+device pair. The
// budget starts effectively unlimited so setup (collection, index, WAL
// header, checkpoint) always lands; the caller then shrinks it to the
// scheduled level with SetCapacity.
func exhaustionOpen(t *testing.T, groupCommit bool, refills ...fault.Refill) *exhaustionEnv {
	t.Helper()
	return exhaustionOpenWith(t, groupCommit, nil, refills...)
}

// exhaustionOpenWith is exhaustionOpen with tune, when non-nil, adjusting
// the engine options before Open — the maintenance duties whose probes read
// the env's budget.
func exhaustionOpenWith(t *testing.T, groupCommit bool, tune func(*exhaustionEnv, *Options), refills ...fault.Refill) *exhaustionEnv {
	t.Helper()
	env := &exhaustionEnv{
		mem:    pagestore.NewMemStore(),
		dev:    &wal.MemDevice{},
		budget: fault.NewDiskBudget(1<<40, refills...),
		oracle: map[xml.DocID]string{},
	}
	env.inj = fault.NewInjector().WithBudget(env.budget)
	var wopts []wal.Option
	if groupCommit {
		wopts = append(wopts, wal.WithGroupCommit(200*time.Microsecond))
	}
	log, err := wal.Open(fault.NewDevice(env.dev, env.inj), wopts...)
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	opts := Options{WAL: log, PoolPages: torturePool, LockTimeoutMillis: 500}
	if tune != nil {
		tune(env, &opts)
	}
	env.db, err = Open(fault.NewStore(env.mem, env.inj), opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if env.col, err = env.db.CreateCollection("c", CollectionOptions{}); err != nil {
		t.Fatalf("create collection: %v", err)
	}
	if err := env.col.CreateValueIndex("kix", "/d/k", xml.TString); err != nil {
		t.Fatalf("create index: %v", err)
	}
	if err := env.db.Checkpoint(); err != nil {
		t.Fatalf("setup checkpoint: %v", err)
	}
	return env
}

// noteErr asserts the exhaustion invariant on a failed operation: the only
// error class a byte-exhausted device may surface is the typed no-space
// error. Anything else — a raw syscall error, a consistency failure, a
// partial-effect artifact — is an engine bug.
func (env *exhaustionEnv) noteErr(t *testing.T, label string, err error) {
	t.Helper()
	if err == nil {
		return
	}
	if !errors.Is(err, rxerr.ErrNoSpace) {
		t.Fatalf("%s: non-ENOSPC failure under exhaustion: %v", label, err)
	}
	env.shed++
	// Space may have come back (a refill schedule fired). Play the
	// watchdog's role: a successful recovery re-enables the write path, a
	// failed attempt leaves the engine degraded for the next probe.
	if deg, _ := env.db.Degraded(); deg && env.budget.Free() > 4*pagestore.PageSize {
		_ = env.db.TryRecoverWritable()
	}
	if os.Getenv("EXH_DEBUG") != "" {
		ids, _ := env.col.DocIDs()
		deg, _ := env.db.Degraded()
		t.Logf("  shed %s: %v (live=%d oracle=%d pending=%d free=%d deg=%v)",
			label, err, len(ids), len(env.oracle), env.db.Stats().PendingUndo, env.budget.Free(), deg)
	}
}

// exhaustionWorkload drives the seeded mixed workload: transactional
// inserts, sub-document edits and deletes, bulk batches, checkpoints. It
// never fatals on a typed shed; the oracle tracks exactly the operations that
// reported success.
func (env *exhaustionEnv) exhaustionWorkload(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seq := 0
	for it := 0; it < exhaustionIters; it++ {
		pick := rng.Float64()
		switch {
		case pick < 0.10:
			env.noteErr(t, "checkpoint", env.db.Checkpoint())

		case pick < 0.30:
			// Bulk load: all-or-nothing across the batch.
			n := 2 + rng.Intn(3)
			docs := make([][]byte, n)
			contents := make([]string, n)
			for i := range docs {
				seq++
				contents[i] = exhaustionDoc(seq)
				docs[i] = []byte(contents[i])
			}
			ids, err := txnInsertBatch(env.col, docs)
			if err != nil {
				env.noteErr(t, "bulk", err)
				continue
			}
			for i, id := range ids {
				env.oracle[id] = contents[i]
				env.order = append(env.order, id)
			}

		case pick < 0.80 || len(env.order) == 0:
			// Transactional insert (sometimes two per txn).
			tx := env.db.Begin()
			nops := 1 + rng.Intn(2)
			type staged struct {
				id      xml.DocID
				content string
			}
			var stagedDocs []staged
			var failed bool
			for o := 0; o < nops; o++ {
				seq++
				content := exhaustionDoc(seq)
				id, err := tx.Insert(env.col, []byte(content))
				if err != nil {
					env.noteErr(t, "insert", err)
					env.noteErr(t, "rollback after failed insert", tx.Rollback())
					failed = true
					break
				}
				stagedDocs = append(stagedDocs, staged{id, content})
			}
			if failed {
				continue
			}
			if err := tx.Commit(); err != nil {
				env.noteErr(t, "commit", err)
				continue
			}
			for _, s := range stagedDocs {
				env.oracle[s.id] = s.content
				env.order = append(env.order, s.id)
			}

		case pick < 0.90:
			// Sub-document edit, always on the indexed <k>: UpdateText of the
			// first one, InsertFragment of another, DeleteSubtree of the last
			// (of <t> when one <k> is left; a document down to <d><k/></d>
			// gets an insert instead).
			id := env.order[rng.Intn(len(env.order))]
			seq++
			content := env.oracle[id]
			kind := rng.Intn(3)
			ks, target := strings.Count(content, "<k>"), "/d/k"
			switch {
			case kind == 0:
				target = "/d/k/text()"
			case kind == 1 || ks == 1 && !strings.Contains(content, "<t>"):
				kind, target = 1, "/d"
			case ks == 1:
				target = "/d/t"
			}
			nodes, err := env.nodesIn(id, target)
			if err != nil {
				// While a parked rollback is pending (exhaustionVerify's second
				// carve-out) the live image may lack the document altogether;
				// any other time only the typed error passes.
				if deg, _ := env.db.Degraded(); !deg || env.db.Stats().PendingUndo == 0 {
					env.noteErr(t, "locate", err)
				}
				continue
			}
			tx := env.db.Begin()
			switch kind {
			case 0:
				val := fmt.Sprintf("k%d", 5+seq%5)
				err = tx.UpdateText(env.col, id, nodes[0], []byte(val))
				open := strings.Index(content, "<k>") + len("<k>")
				content = content[:open] + val + content[open+strings.Index(content[open:], "<"):]
			case 1:
				frag := fmt.Sprintf("<k>k%d</k>", seq%5)
				_, err = tx.InsertFragment(env.col, id, nodes[0], AsLastChild, []byte(frag))
				content = strings.TrimSuffix(content, "</d>") + frag + "</d>"
			default:
				err = tx.DeleteSubtree(env.col, id, nodes[len(nodes)-1])
				tag := target[len("/d/"):]
				open := strings.LastIndex(content, "<"+tag+">")
				end := open + strings.Index(content[open:], "</"+tag+">") + len("</"+tag+">")
				content = content[:open] + content[end:]
			}
			if err != nil {
				env.noteErr(t, "edit", err)
				env.noteErr(t, "rollback after failed edit", tx.Rollback())
				continue
			}
			if err := tx.Commit(); err != nil {
				env.noteErr(t, "edit commit", err)
				continue
			}
			env.oracle[id] = content

		default:
			id := env.order[rng.Intn(len(env.order))]
			tx := env.db.Begin()
			if err := tx.Delete(env.col, id); err != nil {
				env.noteErr(t, "delete", err)
				env.noteErr(t, "rollback after failed delete", tx.Rollback())
				continue
			}
			if err := tx.Commit(); err != nil {
				env.noteErr(t, "delete commit", err)
				continue
			}
			delete(env.oracle, id)
			for i, o := range env.order {
				if o == id {
					env.order = append(env.order[:i], env.order[i+1:]...)
					break
				}
			}
		}
		if os.Getenv("EXH_DEBUG") != "" {
			ids, err := env.col.DocIDs()
			t.Logf("iter %d pick=%.2f: live=%d oracle=%d err=%v pending=%d",
				it, pick, len(ids), len(env.oracle), err, env.db.Stats().PendingUndo)
		}
	}
}

// nodesIn returns the nodes of one stored document that expr selects, in
// document order.
func (env *exhaustionEnv) nodesIn(doc xml.DocID, expr string) ([]nodeid.ID, error) {
	q, err := xpath.Parse(expr)
	if err != nil {
		return nil, err
	}
	e, err := quickxscan.Compile(q, env.db.cat, nil, quickxscan.Options{})
	if err != nil {
		return nil, err
	}
	ms, err := env.col.evalStored(doc, e)
	ids := make([]nodeid.ID, len(ms))
	for i, m := range ms {
		ids[i] = m.ID
	}
	return ids, err
}

// exhaustionVerify checks the end state of a schedule: the oracle holds
// exactly, storage passes verification, and the engine is either writable
// or sheds with the typed error — then proves the durable image alone
// (pages + WAL) recovers to the same oracle.
func (env *exhaustionEnv) exhaustionVerify(t *testing.T, label string) {
	t.Helper()
	// Reads must serve the committed state. One carve-out: with zero free
	// bytes, evicting a dirty page first needs a WAL flush (write-ahead
	// rule), so a read can itself surface the typed no-space error. That is
	// the only failure shape a read may take, and the recovery pass below
	// still proves the full oracle from the durable image.
	pinned := func(err error) bool { return errors.Is(err, rxerr.ErrNoSpace) }
	// Second carve-out: when an in-process rollback itself hit the full
	// device, its unapplied undo is parked as compensation debt and the
	// engine is pinned read-only. Until that debt replays, the dead
	// transaction's effects are still visible — the live image may disagree
	// with the oracle, but ONLY while Stats reports the pending undo. The
	// recovery pass below must erase the difference unconditionally.
	deg, _ := env.db.Degraded()
	indoubt := deg && env.db.Stats().PendingUndo > 0
	for id, want := range env.oracle {
		var buf bytes.Buffer
		if err := env.col.Serialize(id, &buf); err != nil {
			if pinned(err) || indoubt {
				continue
			}
			t.Fatalf("%s: serialize %d: %v", label, id, err)
		}
		if buf.String() != want && !indoubt {
			t.Fatalf("%s: doc %d content mismatch", label, id)
		}
	}
	if err := env.col.CheckConsistency(); err != nil && !pinned(err) && !indoubt {
		t.Fatalf("%s: consistency: %v", label, err)
	}
	if err := env.db.VerifyPages(); err != nil && !pinned(err) {
		t.Fatalf("%s: verify pages: %v", label, err)
	}
	if ids, err := env.col.DocIDs(); err == nil && len(ids) != len(env.oracle) {
		if !indoubt {
			t.Fatalf("%s: live doc count %d, oracle %d", label, len(ids), len(env.oracle))
		}
	} else if err != nil && !pinned(err) && !indoubt {
		t.Fatalf("%s: live doc ids: %v", label, err)
	}

	// Probe the write path once: it either works (recovered) or sheds typed
	// (consistently degraded). Nothing else is acceptable.
	tx := env.db.Begin()
	id, err := tx.Insert(env.col, []byte(`<d><t>probe</t><k>probe</k></d>`))
	if err == nil {
		err = tx.Commit()
	} else {
		_ = tx.Rollback()
	}
	switch {
	case err == nil:
		env.oracle[id] = `<d><t>probe</t><k>probe</k></d>`
	case errors.Is(err, rxerr.ErrNoSpace):
		// Consistently degraded; the probe left no trace (checked below by
		// recovery against the unchanged oracle).
	default:
		t.Fatalf("%s: probe write failed untyped: %v", label, err)
	}

	// Recovery composition: kill the process, then reopen the durable image
	// with no budget in the way. Committed work must be exactly present — in
	// particular nothing a failed group commit acknowledged may be missing,
	// and nothing a compensated commit rolled back may reappear.
	_ = env.db.Close() // best effort; a full device may fail the final flush
	if err := env.inj.Kill(); err != nil {
		t.Fatalf("%s: kill: %v", label, err)
	}
	log, err := wal.Open(env.dev)
	if err != nil {
		t.Fatalf("%s: reopen wal: %v", label, err)
	}
	rdb, err := Recover(env.mem, log, Options{PoolPages: 64, LockTimeoutMillis: 500})
	if err != nil {
		t.Fatalf("%s: recover: %v", label, err)
	}
	defer rdb.Close()
	rcol, err := rdb.Collection("c")
	if err != nil {
		t.Fatalf("%s: collection after recovery: %v", label, err)
	}
	ids, err := rcol.DocIDs()
	if err != nil {
		t.Fatalf("%s: doc ids after recovery: %v", label, err)
	}
	if len(ids) != len(env.oracle) {
		t.Fatalf("%s: recovered %d docs, oracle has %d", label, len(ids), len(env.oracle))
	}
	for id, want := range env.oracle {
		var buf bytes.Buffer
		if err := rcol.Serialize(id, &buf); err != nil {
			t.Fatalf("%s: recovered serialize %d: %v", label, id, err)
		}
		if buf.String() != want {
			t.Fatalf("%s: recovered doc %d content mismatch", label, id)
		}
	}
	if err := rcol.CheckConsistency(); err != nil {
		t.Fatalf("%s: recovered consistency: %v", label, err)
	}
	// Liveness: with space back, the recovered engine accepts new work.
	tx = rdb.Begin()
	if _, err := tx.Insert(rcol, []byte(`<d><t>alive</t><k>alive</k></d>`)); err != nil {
		t.Fatalf("%s: post-recovery insert: %v", label, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("%s: post-recovery commit: %v", label, err)
	}
}

func exhaustionSeeds() []int64 {
	if s := os.Getenv("TORTURE_SEEDS"); s != "" {
		return tortureSeeds() // same JSON list the crash harness takes
	}
	seeds := []int64{7, 77, 777}
	if testing.Short() {
		seeds = seeds[:1]
	}
	return seeds
}

// exhaustionArtifact dumps a failing seed for offline reproduction when
// TORTURE_ARTIFACT names a file (the CI exhaustion-torture job sets it).
// Appends, so a multi-seed run collects every red seed.
func exhaustionArtifact(t *testing.T, seed int64, groupCommit bool) {
	path := os.Getenv("TORTURE_ARTIFACT")
	if path == "" {
		return
	}
	blob, _ := json.Marshal(map[string]any{"seed": seed, "groupcommit": groupCommit})
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Logf("writing %s: %v", path, err)
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "%s\n", blob)
	t.Logf("failing seed written to %s", path)
}

func TestExhaustionTorture(t *testing.T) {
	leakcheck.Check(t)
	schedules, shed := 0, 0
	for si, seed := range exhaustionSeeds() {
		seed := seed
		groupCommit := si%2 == 1 // odd seeds rerun the matrix under group commit
		if !t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			schedules, shed = runExhaustionSeed(t, seed, groupCommit, schedules, shed)
		}) {
			exhaustionArtifact(t, seed, groupCommit)
		}
	}
	t.Logf("exhaustion: %d schedules, %d typed sheds survived", schedules, shed)
	if shed == 0 && !t.Failed() {
		t.Fatal("no schedule exercised the no-space path")
	}
}

// runExhaustionSeed runs one seed's full matrix (profile, headroom cuts,
// refill schedules), returning the updated schedule/shed tallies.
func runExhaustionSeed(t *testing.T, seed int64, groupCommit bool, schedules, shed int) (int, int) {
	{
		// Profile: unlimited budget measures the workload's appetite.
		profile := exhaustionOpen(t, groupCommit)
		setupUsed := profile.budget.Used()
		profile.exhaustionWorkload(t, seed)
		if profile.shed != 0 {
			t.Fatalf("seed %d: profile run shed %d ops with unlimited budget", seed, profile.shed)
		}
		span := profile.budget.Used() - setupUsed
		if span <= 0 {
			t.Fatalf("seed %d: workload consumed no bytes", seed)
		}
		profile.exhaustionVerify(t, fmt.Sprintf("seed %d (profile)", seed))

		// Exhaustion matrix: cut the headroom to every eighth of the span.
		// Low fractions starve the first inserts; high fractions hit group
		// commit and checkpoint tails.
		for k := 0; k <= 7; k++ {
			schedules++
			label := fmt.Sprintf("seed %d gc=%v headroom %d/8", seed, groupCommit, k)
			if os.Getenv("EXH_DEBUG") != "" {
				t.Logf("=== %s", label)
			}
			env := exhaustionOpen(t, groupCommit)
			env.budget.SetCapacity(env.budget.Used() + span*int64(k)/8)
			env.exhaustionWorkload(t, seed)
			if k < 7 && env.shed == 0 {
				t.Logf("%s: no op shed (workload fit)", label)
			}
			shed += env.shed
			env.exhaustionVerify(t, label)
		}

		// Refill matrix: same starvation, but space comes back after the
		// Nth denial — the run must recover mid-flight and finish writable.
		for _, denial := range []uint64{1, 3, 6} {
			schedules++
			label := fmt.Sprintf("seed %d gc=%v refill@%d", seed, groupCommit, denial)
			env := exhaustionOpen(t, groupCommit, fault.Refill{Denial: denial, Bytes: 1 << 40})
			env.budget.SetCapacity(env.budget.Used() + span/3)
			env.exhaustionWorkload(t, seed)
			if env.shed == 0 {
				t.Fatalf("%s: schedule never fired", label)
			}
			shed += env.shed
			// With the refill applied the engine must end fully recovered:
			// the verify probe write below has to succeed, so assert the
			// mode directly first.
			if err := env.db.TryRecoverWritable(); err != nil {
				t.Fatalf("%s: recovery with space back: %v", label, err)
			}
			if deg, reason := env.db.Degraded(); deg {
				t.Fatalf("%s: still degraded after refill: %s", label, reason)
			}
			env.exhaustionVerify(t, label)
		}
	}
	return schedules, shed
}

// TestExhaustionDegradedModeSheds pins the degraded-mode contract on one
// deterministic schedule: exhaust the device, watch a commit fail typed and
// roll back, then verify every write entry point sheds with ErrNoSpace +
// retry hint while reads serve, and that freeing space plus
// TryRecoverWritable restores read-write without a restart.
func TestExhaustionDegradedModeSheds(t *testing.T) {
	leakcheck.Check(t)
	env := exhaustionOpen(t, false)

	// Commit a baseline document with room to spare, and a versioned one
	// with two versions for Vacuum to reclaim.
	id := mustInsert(t, env.col, []byte(exhaustionDoc(1)))
	vcol, err := env.db.CreateCollection("v", CollectionOptions{Versioned: true})
	if err != nil {
		t.Fatal(err)
	}
	vid := mustInsert(t, vcol, []byte(exhaustionDoc(2)))
	vtext, _, err := vcol.QueryOpts("/d/k/text()", QueryOptions{})
	if err != nil || len(vtext) != 1 {
		t.Fatalf("versioned text: %v, %v", vtext, err)
	}
	if err := env.db.RunTxn(func(tx *Txn) error { return tx.UpdateText(vcol, vid, vtext[0].Node, []byte("v2")) }); err != nil {
		t.Fatal(err)
	}
	node := func(expr string) nodeid.ID {
		t.Helper()
		res, _, err := env.col.QueryOpts(expr, QueryOptions{})
		if err != nil || len(res) == 0 || res[0].Doc != id {
			t.Fatalf("%s: %v, %v", expr, res, err)
		}
		return res[0].Node
	}
	root, text, leaf := node("/d"), node("/d/t/text()"), node("/d/k")

	// Exhaust the device and write until something gives.
	env.budget.SetCapacity(env.budget.Used())
	var shedErr error
	for i := 2; i < 200 && shedErr == nil; i++ {
		tx := env.db.Begin()
		if _, err := tx.Insert(env.col, []byte(exhaustionDoc(i))); err != nil {
			shedErr = err
			_ = tx.Rollback()
		} else if err := tx.Commit(); err != nil {
			shedErr = err
		}
	}
	if !errors.Is(shedErr, rxerr.ErrNoSpace) {
		t.Fatalf("exhaustion surfaced %v, want ErrNoSpace", shedErr)
	}
	if deg, reason := env.db.Degraded(); !deg || reason == "" {
		t.Fatalf("engine not degraded after ENOSPC (deg=%v reason=%q)", deg, reason)
	}

	// Every write entry point sheds typed, counted, and with a retry hint.
	inTxn := func(fn func(*Txn) error) func() error {
		return func() error { return env.db.RunTxn(fn) }
	}
	for _, w := range []struct {
		name string
		run  func() error
	}{
		{"Txn.Insert", inTxn(func(tx *Txn) error { _, err := tx.Insert(env.col, []byte(exhaustionDoc(900))); return err })},
		{"Txn.InsertBatch", inTxn(func(tx *Txn) error {
			_, err := tx.InsertBatch(env.col, [][]byte{[]byte(exhaustionDoc(901))}, BatchOptions{})
			return err
		})},
		{"Txn.Delete", inTxn(func(tx *Txn) error { return tx.Delete(env.col, id) })},
		{"Txn.UpdateText", inTxn(func(tx *Txn) error { return tx.UpdateText(env.col, id, text, []byte("u")) })},
		{"Txn.InsertFragment", inTxn(func(tx *Txn) error {
			_, err := tx.InsertFragment(env.col, id, root, AsLastChild, []byte("<k>k9</k>"))
			return err
		})},
		{"Txn.DeleteSubtree", inTxn(func(tx *Txn) error { return tx.DeleteSubtree(env.col, id, leaf) })},
		{"CreateCollection", func() error { _, err := env.db.CreateCollection("c2", CollectionOptions{}); return err }},
		{"CreateValueIndex", func() error { return env.col.CreateValueIndex("tix", "/d/t", xml.TString) }},
		{"RegisterSchema", func() error {
			return env.db.RegisterSchema("d", []byte(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="d" type="xs:string"/></xs:schema>`))
		}},
		{"Vacuum", func() error { return vcol.Vacuum(vid, 2) }},
	} {
		shed := env.db.Stats().WritesShed
		err := w.run()
		var ns rxerr.NoSpaceError
		if !errors.Is(err, rxerr.ErrNoSpace) || !errors.As(err, &ns) || ns.RetryAfter <= 0 {
			t.Errorf("%s = %v, want ErrNoSpace with a retry hint", w.name, err)
		} else if hint := rxerr.RetryAfter(err); hint != ns.RetryAfter {
			t.Errorf("%s: RetryAfter() = %v, want %v", w.name, hint, ns.RetryAfter)
		}
		if env.db.Stats().WritesShed == shed {
			t.Errorf("%s did not count as a shed write", w.name)
		}
	}

	// Reads and stats keep serving.
	var buf bytes.Buffer
	if err := env.col.Serialize(id, &buf); err != nil {
		t.Fatalf("read while degraded: %v", err)
	}
	s := env.db.Stats()
	if !s.DegradedReadOnly || s.WritesShed == 0 || s.DegradedEnters != 1 {
		t.Fatalf("stats = degraded:%v shed:%d enters:%d", s.DegradedReadOnly, s.WritesShed, s.DegradedEnters)
	}

	// Free space; recovery restores read-write and commits land again.
	env.budget.SetCapacity(1 << 40)
	if err := env.db.TryRecoverWritable(); err != nil {
		t.Fatalf("TryRecoverWritable: %v", err)
	}
	if deg, _ := env.db.Degraded(); deg {
		t.Fatal("still degraded after recovery")
	}
	if err := env.db.RunTxn(func(tx *Txn) error { _, err := tx.Insert(env.col, []byte(exhaustionDoc(950))); return err }); err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
	if s := env.db.Stats(); s.DegradedExits != 1 {
		t.Fatalf("DegradedExits = %d, want 1", s.DegradedExits)
	}
	if err := env.db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestSpaceWatchdog drives the hysteretic watermark state machine end to
// end against the budget's own free-space probe: dipping under the
// low-water mark flips the engine read-only, climbing back over the
// high-water mark flips it back, all from the maintenance loop. A second
// engine then runs the same watchdog beside a scrub pass throttled to a few
// pages a second: the pass must not blind it.
func TestSpaceWatchdog(t *testing.T) {
	leakcheck.Check(t)
	watch := func(env *exhaustionEnv, o *Options) {
		o.SpaceWatch = SpaceWatchOptions{
			Probe:     func() (int64, error) { return env.budget.Free(), nil },
			LowWater:  1 << 20,
			HighWater: 4 << 20,
			Interval:  2 * time.Millisecond,
		}
	}
	env := exhaustionOpenWith(t, false, watch)
	defer env.db.Close()

	waitFor := func(db *DB, want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if deg, _ := db.Degraded(); deg == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("watchdog never observed %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Proactive entry: free space dips below low water with no write failing.
	env.budget.SetCapacity(env.budget.Used() + (1 << 19))
	waitFor(env.db, true, "low water")
	tx := env.db.Begin()
	_, err := tx.Insert(env.col, []byte(exhaustionDoc(1)))
	if !errors.Is(err, rxerr.ErrNoSpace) {
		t.Fatalf("write under low water = %v, want ErrNoSpace", err)
	}
	var ns rxerr.NoSpaceError
	if !errors.As(err, &ns) || ns.RetryAfter != 2*time.Millisecond {
		t.Fatalf("retry hint = %v, want the probe interval", ns.RetryAfter)
	}
	_ = tx.Rollback()
	if s := env.db.Stats(); s.SpaceLowWater != 1<<20 || s.SpaceHighWater != 4<<20 || s.SpaceFree < 0 {
		t.Fatalf("stats watermarks = %d/%d free %d", s.SpaceLowWater, s.SpaceHighWater, s.SpaceFree)
	}

	// Hysteresis: space between the marks must NOT recover.
	env.budget.SetCapacity(env.budget.Used() + (2 << 20))
	time.Sleep(20 * time.Millisecond)
	if deg, _ := env.db.Degraded(); !deg {
		t.Fatal("recovered between the watermarks (hysteresis broken)")
	}

	// Above high water: the watchdog recovers on its own.
	env.budget.SetCapacity(env.budget.Used() + (8 << 20))
	waitFor(env.db, false, "high water recovery")
	tx = env.db.Begin()
	if _, err := tx.Insert(env.col, []byte(exhaustionDoc(2))); err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("post-recovery commit: %v", err)
	}

	// A throttled scrub pass in flight: the pacing hook still runs the
	// enter leg, so the engine degrades within a few probe intervals, long
	// before the pass ends; recovery runs only between duties, after it.
	const scrubRate = 8 // page/record reads per second
	senv := exhaustionOpenWith(t, false, func(env *exhaustionEnv, o *Options) {
		watch(env, o)
		o.ScrubInterval = time.Millisecond
		o.ScrubRate = scrubRate
	})
	defer senv.db.Close()
	pass := time.Duration(senv.mem.NumPages()) * time.Second / scrubRate
	if pass < time.Second {
		t.Fatalf("scrub pass over %d pages lasts %v, too short to observe", senv.mem.NumPages(), pass)
	}
	time.Sleep(50 * time.Millisecond) // the pass is due 1ms after Open
	dropped := time.Now()
	senv.budget.SetCapacity(senv.budget.Used() + (1 << 19))
	waitFor(senv.db, true, "low water during a scrub pass")
	if took := time.Since(dropped); took > pass/4 {
		t.Fatalf("degraded %v after the drop, with a %v pass in flight", took, pass)
	}
	if n := senv.db.Stats().ScrubPasses; n != 0 {
		t.Fatalf("scrub pass ended (%d passes) before the watchdog fired; the pass was not in flight", n)
	}
	senv.budget.SetCapacity(senv.budget.Used() + (8 << 20))
	time.Sleep(20 * time.Millisecond)
	if deg, _ := senv.db.Degraded(); !deg && senv.db.Stats().ScrubPasses == 0 {
		t.Fatal("recovered inside the scrub pass")
	}
	waitFor(senv.db, false, "high water recovery after the scrub pass")
	if n := senv.db.Stats().ScrubPasses; n == 0 {
		t.Fatal("recovered before the scrub pass ended")
	}
}

// TestInsertBatchMidBatchDeviceFailure pins batch atomicity under a device
// failure partway through the batch: the failed batch leaves no partial
// documents behind (DocIDs, consistency, and value-index results are exactly
// the pre-batch state once space returns), and the engine accepts the next
// batch after recovery.
func TestInsertBatchMidBatchDeviceFailure(t *testing.T) {
	leakcheck.Check(t)
	env := exhaustionOpen(t, false)

	// Baseline batch whose query results anchor the oracle.
	base := [][]byte{
		[]byte(exhaustionDoc(1)), []byte(exhaustionDoc(2)), []byte(exhaustionDoc(3)),
	}
	baseIDs, err := txnInsertBatch(env.col, base)
	if err != nil {
		t.Fatalf("baseline batch: %v", err)
	}
	if err := env.db.Checkpoint(); err != nil {
		t.Fatalf("baseline checkpoint: %v", err)
	}
	before, err := env.col.DocIDs()
	if err != nil {
		t.Fatalf("baseline doc ids: %v", err)
	}
	wantHits, _, err := env.col.QueryOpts(`/d[k = "k2"]`, QueryOptions{})
	if err != nil || len(wantHits) != 1 || wantHits[0].Doc != baseIDs[1] {
		t.Fatalf("baseline query: hits=%v err=%v", wantHits, err)
	}

	// Choke the device so a 20-document batch dies partway through its page
	// effects, then verify the failure is typed.
	env.budget.SetCapacity(env.budget.Used() + pagestore.PageSize)
	var big [][]byte
	for i := 10; i < 30; i++ {
		big = append(big, []byte(exhaustionDoc(i)))
	}
	if _, err := txnInsertBatch(env.col, big); err == nil {
		t.Fatal("batch on a choked device reported success")
	} else if !errors.Is(err, rxerr.ErrNoSpace) {
		t.Fatalf("mid-batch failure = %v, want ErrNoSpace", err)
	}

	// Space returns; the engine must recover and show zero trace of the
	// failed batch.
	env.budget.SetCapacity(1 << 40)
	if err := env.db.TryRecoverWritable(); err != nil {
		t.Fatalf("recover after refill: %v", err)
	}
	if deg, reason := env.db.Degraded(); deg {
		t.Fatalf("still degraded after refill: %s", reason)
	}
	after, err := env.col.DocIDs()
	if err != nil {
		t.Fatalf("doc ids after failed batch: %v", err)
	}
	if len(after) != len(before) {
		t.Fatalf("doc count after failed batch = %d, want %d", len(after), len(before))
	}
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("doc ids changed: %v -> %v", before, after)
		}
	}
	if err := env.col.CheckConsistency(); err != nil {
		t.Fatalf("consistency after failed batch: %v", err)
	}
	if err := env.db.VerifyPages(); err != nil {
		t.Fatalf("verify pages after failed batch: %v", err)
	}
	hits, _, err := env.col.QueryOpts(`/d[k = "k2"]`, QueryOptions{})
	if err != nil || len(hits) != len(wantHits) || hits[0].Doc != wantHits[0].Doc {
		t.Fatalf("query after failed batch: hits=%v err=%v", hits, err)
	}

	// The engine is fully usable: the same batch lands once space is back.
	ids, err := txnInsertBatch(env.col, big)
	if err != nil {
		t.Fatalf("batch after recovery: %v", err)
	}
	if len(ids) != len(big) {
		t.Fatalf("recovered batch stored %d docs, want %d", len(ids), len(big))
	}
	var buf bytes.Buffer
	if err := env.col.Serialize(ids[len(ids)-1], &buf); err != nil {
		t.Fatalf("serialize recovered batch doc: %v", err)
	}
	if buf.String() != string(big[len(big)-1]) {
		t.Fatal("recovered batch doc content mismatch")
	}
	_ = env.db.Close()
}
