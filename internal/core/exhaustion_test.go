package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"rx/internal/leakcheck"
	"rx/internal/nodeid"
	"rx/internal/pagestore"
	"rx/internal/rxerr"
	"rx/internal/xml"
)

// openBudgeted opens the disk leg's engine (faults_test.go) over an
// unlimited byte budget, which the test then cuts with SetCapacity.
func openBudgeted(t *testing.T, tune func(*faultRun, *Options)) *faultRun {
	return openFault(t, &diskLeg, schedule{}, false, tune)
}

// TestExhaustionDegradedModeSheds pins the degraded-mode contract on one
// deterministic schedule: exhaust the device, watch a commit fail typed and
// roll back, then verify every write entry point sheds with ErrNoSpace +
// retry hint while reads serve, and that freeing space plus
// TryRecoverWritable restores read-write without a restart.
func TestExhaustionDegradedModeSheds(t *testing.T) {
	leakcheck.Check(t)
	env := openBudgeted(t, nil)

	// Commit a baseline document with room to spare, and a versioned one
	// with two versions for Vacuum to reclaim.
	id := mustInsert(t, env.col, []byte(faultDoc(1, false)))
	vcol, err := env.db.CreateCollection("v", CollectionOptions{Versioned: true})
	if err != nil {
		t.Fatal(err)
	}
	vid := mustInsert(t, vcol, []byte(faultDoc(2, false)))
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
		if _, err := tx.Insert(env.col, []byte(faultDoc(i, false))); err != nil {
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
		{"Txn.Insert", inTxn(func(tx *Txn) error { _, err := tx.Insert(env.col, []byte(faultDoc(900, false))); return err })},
		{"Txn.InsertBatch", inTxn(func(tx *Txn) error {
			_, err := tx.InsertBatch(env.col, [][]byte{[]byte(faultDoc(901, false))}, BatchOptions{})
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
	if err := env.db.RunTxn(func(tx *Txn) error { _, err := tx.Insert(env.col, []byte(faultDoc(950, false))); return err }); err != nil {
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
	watch := func(env *faultRun, o *Options) {
		o.SpaceWatch = SpaceWatchOptions{
			Probe:     func() (int64, error) { return env.budget.Free(), nil },
			LowWater:  1 << 20,
			HighWater: 4 << 20,
			Interval:  2 * time.Millisecond,
		}
	}
	env := openBudgeted(t, watch)
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
	_, err := tx.Insert(env.col, []byte(faultDoc(1, false)))
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
	if _, err := tx.Insert(env.col, []byte(faultDoc(2, false))); err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("post-recovery commit: %v", err)
	}

	// A throttled scrub pass in flight: the pacing hook still runs the
	// enter leg, so the engine degrades within a few probe intervals, long
	// before the pass ends; recovery runs only between duties, after it.
	const scrubRate = 8 // page/record reads per second
	senv := openBudgeted(t, func(env *faultRun, o *Options) {
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
	env := openBudgeted(t, nil)

	// Baseline batch whose query results anchor the oracle.
	base := [][]byte{
		[]byte(faultDoc(1, false)), []byte(faultDoc(2, false)), []byte(faultDoc(3, false)),
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
		big = append(big, []byte(faultDoc(i, false)))
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
