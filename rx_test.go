package rx

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rx/internal/leakcheck"
)

// TestPublicAPIRoundTrip exercises the facade end to end on a file-backed,
// logged database: insert, index, query, update, reopen with recovery.
func TestPublicAPIRoundTrip(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "t.rxdb")
	walPath := filepath.Join(dir, "t.wal")

	db, err := Open(dbPath, WithWAL(walPath))
	if err != nil {
		t.Fatal(err)
	}
	col, err := db.CreateCollection("books", CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.CreateValueIndex("by_price", "/book/price", TypeDouble); err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	id, err := tx.Insert(col, []byte(`<book><title>Native XML</title><price>25.50</price></book>`))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	cur, err := db.Session().Query(context.Background(), "books", "/book[price < 30]/title", WithValues())
	if err != nil {
		t.Fatal(err)
	}
	var res []Result
	for cur.Next() {
		res = append(res, cur.Result())
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if len(res) != 1 || string(res[0].Value) != "Native XML" {
		t.Fatalf("res = %+v (plan %s)", res, cur.Plan().Method)
	}

	// An uncommitted insert, then simulated crash (close without commit).
	tx2 := db.Begin()
	id2, err := tx2.Insert(col, []byte(`<book><title>Ghost</title><price>1</price></book>`))
	if err != nil {
		t.Fatal(err)
	}
	// Crash: flush nothing, drop the handles.
	db.Checkpoint() // persists committed state; tx2's logical record is in the WAL
	_ = id2

	db2, err := Open(dbPath, WithWAL(walPath))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	col2, err := db2.Collection("books")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col2.Serialize(id, &buf); err != nil {
		t.Fatalf("committed doc lost after recovery: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("Native XML")) {
		t.Errorf("doc = %s", buf.String())
	}
	res2, _, err := col2.QueryOpts("/book[title = 'Ghost']", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2) != 0 {
		t.Error("uncommitted insert visible after recovery")
	}
}

// TestVersionedFacade exercises MVCC through the facade.
func TestVersionedFacade(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	col, _ := db.CreateCollection("v", CollectionOptions{Versioned: true})
	id, err := db.Session().Insert(context.Background(), "v", []byte(`<d><v>1</v></d>`))
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := col.SnapshotVersion(id)
	res, _, _ := col.QueryOpts("/d/v/text()", QueryOptions{})
	if err := db.RunTxn(func(tx *Txn) error { return tx.UpdateText(col, id, res[0].Node, []byte("2")) }); err != nil {
		t.Fatal(err)
	}
	var old, cur bytes.Buffer
	if err := col.SerializeAt(id, v1, &old); err != nil {
		t.Fatal(err)
	}
	col.Serialize(id, &cur)
	if old.String() == cur.String() {
		t.Error("snapshot should differ from current")
	}
}

// TestFragmentPositions exercises the re-exported position constants.
func TestFragmentPositions(t *testing.T) {
	db, _ := Open("")
	col, _ := db.CreateCollection("c", CollectionOptions{})
	id, err := db.Session().Insert(context.Background(), "c", []byte(`<r><a/></r>`))
	if err != nil {
		t.Fatal(err)
	}
	aRes, _, _ := col.QueryOpts("/r/a", QueryOptions{})
	err = db.RunTxn(func(tx *Txn) error {
		if _, err := tx.InsertFragment(col, id, aRes[0].Node, AfterNode, []byte(`<b/>`)); err != nil {
			return err
		}
		_, err := tx.InsertFragment(col, id, aRes[0].Node, BeforeNode, []byte(`<z/>`))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	col.Serialize(id, &buf)
	if buf.String() != `<r><z/><a/><b/></r>` {
		t.Errorf("got %s", buf.String())
	}
}

// TestOpenVariants checks the unified Open constructor: in-memory, file,
// and functional options.
func TestOpenVariants(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		db, err := Open("")
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		col, err := db.CreateCollection("m", CollectionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Session().Insert(context.Background(), "m", []byte(`<a><b>x</b></a>`)); err != nil {
			t.Fatal(err)
		}
		rs, _, err := col.QueryOpts("/a/b", QueryOptions{})
		if err != nil || len(rs) != 1 {
			t.Fatalf("rs=%v err=%v", rs, err)
		}
	})

	t.Run("file with options", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "o.rxdb")
		db, err := Open(path, WithPoolPages(64), WithLockTimeout(100*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateCollection("f", CollectionOptions{}); err != nil {
			t.Fatal(err)
		}
		id, err := db.Session().Insert(context.Background(), "f", []byte(`<doc>persisted</doc>`))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		// Reopen; same file, same data.
		db2, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer db2.Close()
		col2, err := db2.Collection("f")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := col2.Serialize(id, &buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != `<doc>persisted</doc>` {
			t.Fatalf("round trip: %s", buf.String())
		}
	})

	t.Run("wal recovery", func(t *testing.T) {
		dir := t.TempDir()
		dbPath := filepath.Join(dir, "w.rxdb")
		walPath := filepath.Join(dir, "w.wal")
		db, err := Open(dbPath, WithWAL(walPath))
		if err != nil {
			t.Fatal(err)
		}
		col, err := db.CreateCollection("w", CollectionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		if _, err := tx.Insert(col, []byte(`<k>committed</k>`)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		// Crash (close without checkpoint-clean shutdown path is fine: Close
		// flushes; reopening still runs recovery over the log).
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2, err := Open(dbPath, WithWAL(walPath))
		if err != nil {
			t.Fatal(err)
		}
		defer db2.Close()
		col2, err := db2.Collection("w")
		if err != nil {
			t.Fatal(err)
		}
		rs, _, err := col2.QueryOpts("/k", QueryOptions{})
		if err != nil || len(rs) != 1 {
			t.Fatalf("after recovery rs=%v err=%v", rs, err)
		}
	})
}

// TestFacadeCursor streams through the re-exported Cursor with a parallel
// worker pool and a limit.
func TestFacadeCursor(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	col, err := db.CreateCollection("c", CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		doc := []byte(`<item><name>thing</name></item>`)
		if _, err := db.Session().Insert(context.Background(), "c", doc); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := col.Cursor("/item/name", QueryOptions{Parallelism: 4, Limit: 7, NeedValues: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	n := 0
	for cur.Next() {
		if string(cur.Result().Value) != "thing" {
			t.Fatalf("value = %q", cur.Result().Value)
		}
		n++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("limit 7 yielded %d", n)
	}
}

// TestLayoutMismatchWritesNothing opens a database in the page layout it
// was not created in (and re-derives checksums on a file created without
// them): each attempt must fail with ErrLayout, leave the file byte for byte
// as it was and create no log, and the file must still open in its own
// layout. The v0 row is a checksummed file whose sidecar is at version 0, as
// builds before version-1 sidecars left it: every open, in either layout, is
// refused before anything is written.
func TestLayoutMismatchWritesNothing(t *testing.T) {
	for _, row := range []struct {
		name      string
		checksums bool // the layout the file was created in
		v0        bool
	}{
		{"checksums=false", false, false},
		{"checksums=true", true, false},
		{"v0-sidecar", true, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "l.rxdb")
			own := func() []Option {
				if row.checksums {
					return []Option{WithChecksums()}
				}
				return nil
			}
			db, err := Open(path, own()...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.CreateCollection("c", CollectionOptions{}); err != nil {
				t.Fatal(err)
			}
			id, err := db.Session().Insert(context.Background(), "c", []byte("<d><v>layout</v></d>"))
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if row.v0 {
				// Version byte 0 in the first sidecar page.
				const sidecarVersionByte = 4*1984 + 1984/8
				f, err := os.OpenFile(path, os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt([]byte{0}, sidecarVersionByte); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			walPath := filepath.Join(dir, "l.wal")
			var other []Option
			if !row.checksums {
				other = append(other, WithChecksums())
			}
			opens := func(opts []Option) map[string]func() error {
				return map[string]func() error{
					"open": func() error {
						db, err := Open(path, opts...)
						if err == nil {
							db.Close()
						}
						return err
					},
					"open with wal": func() error {
						db, err := Open(path, append(opts, WithWAL(walPath))...)
						if err == nil {
							db.Close()
						}
						return err
					},
				}
			}
			attempts := opens(other)
			if !row.checksums {
				attempts["rederive"] = func() error { return RederiveChecksums(path) }
			}
			if row.v0 {
				for name, attempt := range opens(own()) {
					attempts[name+" in own layout"] = attempt
				}
			}
			for name, attempt := range attempts {
				if err := attempt(); !errors.Is(err, ErrLayout) {
					t.Fatalf("%s: err = %v, want ErrLayout", name, err)
				}
				after, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(before, after) {
					t.Fatalf("%s changed the file", name)
				}
				if _, err := os.Stat(walPath); !os.IsNotExist(err) {
					t.Fatalf("%s created a log: %v", name, err)
				}
			}
			if row.v0 {
				return
			}

			db, err = Open(path, own()...)
			if err != nil {
				t.Fatalf("reopen in own layout: %v", err)
			}
			defer db.Close()
			got, err := db.Session().Get(context.Background(), "c", id)
			if err != nil || string(got) != "<d><v>layout</v></d>" {
				t.Fatalf("document after refused opens = %q, %v", got, err)
			}
		})
	}
}

// TestOpenCloseKeepsNoFileOpen counts the process's open descriptors across
// opens and closes with a log: a closed database holds no file, and an open
// that fails (here, a log path that is a directory) closes what it opened.
func TestOpenCloseKeepsNoFileOpen(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no descriptor table to count: %v", err)
		}
		return len(ents)
	}
	dir := t.TempDir()
	path, walPath := filepath.Join(dir, "f.rxdb"), filepath.Join(dir, "f.wal")
	cycle := func() {
		db, err := Open(path, WithWAL(walPath))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // creates both files; the runtime's poller opens its own descriptors once
	start := fds()
	for i := 0; i < 5; i++ {
		cycle()
	}
	if n := fds(); n != start {
		t.Fatalf("5 open/close cycles left %d descriptors open", n-start)
	}
	for i := 0; i < 3; i++ {
		if db, err := Open(path, WithWAL(dir)); err == nil {
			db.Close()
			t.Fatal("open with a directory as the log succeeded")
		}
	}
	if n := fds(); n != start {
		t.Fatalf("3 failed opens left %d descriptors open", n-start)
	}
}

// TestChecksumsDetectCorruption creates a checksummed database, flips one
// bit in the closed file, and checks that both a direct read and a
// VerifyPages scrub report ErrPageChecksum rather than serving the page.
func TestChecksumsDetectCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.rxdb")
	db, err := Open(path, WithChecksums())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateCollection("c", CollectionOptions{}); err != nil {
		t.Fatal(err)
	}
	var ids []DocID
	for i := 0; i < 8; i++ {
		id, err := db.Session().Insert(context.Background(), "c", []byte("<d><v>"+strings.Repeat("x", 900+i)+"</v></d>"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one bit in the middle of the file (a data page, past the header
	// and first sidecar).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, WithChecksums())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.VerifyPages(); err == nil {
		t.Fatal("VerifyPages passed over a corrupted file")
	} else {
		var ce PageChecksumError
		if !errors.As(err, &ce) {
			t.Fatalf("VerifyPages error = %v, want ErrPageChecksum", err)
		}
	}
	col2, err := db2.Collection("c")
	if err != nil {
		// The flipped bit landed on a page the collection open itself needs;
		// the open must report the checksum failure, not decode garbage.
		var ce PageChecksumError
		if !errors.As(err, &ce) {
			t.Fatalf("collection open error = %v, want ErrPageChecksum", err)
		}
	} else {
		var sawChecksum bool
		for _, id := range ids {
			var buf bytes.Buffer
			if err := col2.Serialize(id, &buf); err != nil {
				var ce PageChecksumError
				if !errors.As(err, &ce) {
					t.Fatalf("doc %d: error %v, want ErrPageChecksum", id, err)
				}
				sawChecksum = true
			}
		}
		if !sawChecksum {
			t.Log("corruption hit a page no document read touched (caught by VerifyPages only)")
		}
	}

	// Mixing layouts must fail loudly, not decode garbage.
	if db3, err := Open(path); err == nil {
		if _, err := db3.Collection("c"); err == nil {
			t.Fatal("raw open of a checksummed database succeeded")
		}
		db3.Close()
	}
}

// TestScrubStopsAtClose closes a database while a scrub pass is in flight:
// Close must wait for it, so no pass starts or finishes after Close returns.
func TestScrubStopsAtClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.rxdb")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	col, err := db.CreateCollection("c", CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.CreateValueIndex("by_v", "/d/v", TypeDouble); err != nil {
		t.Fatal(err)
	}
	docs := make([][]byte, 3000)
	for i := range docs {
		docs[i] = []byte(fmt.Sprintf("<d><v>%d</v>%s</d>", i, strings.Repeat("<a><b>1</b><c/><e>x</e></a>", 20)))
	}
	if _, err := db.Session().InsertBatch(context.Background(), "c", docs); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := NewScrubber(db, ScrubOptions{}).RunPass(); err != nil {
		t.Fatal(err)
	}
	pass := time.Since(start)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(path, WithScrub(time.Millisecond, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Passes run back to back, 1ms apart: once one ends, close a quarter of
	// the way into the next.
	first := db.Stats().ScrubPasses
	deadline := time.Now().Add(10 * time.Second)
	for db.Stats().ScrubPasses == first {
		if time.Now().After(deadline) {
			t.Fatal("no scrub pass completed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(time.Millisecond + pass/4)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	before := db.Stats().ScrubPasses
	time.Sleep(2 * pass)
	if after := db.Stats().ScrubPasses; after != before {
		t.Fatalf("scrub passes went %d -> %d after Close returned (pass takes %v)", before, after, pass)
	}
}

// TestMaintenanceLifecycle runs every maintenance duty at millisecond
// intervals on a file database, then closes it with no goroutine left
// behind and reopens it consistent.
func TestMaintenanceLifecycle(t *testing.T) {
	leakcheck.Check(t)
	path := filepath.Join(t.TempDir(), "m.rxdb")
	db, err := Open(path, WithSpaceWatch(1, 0, time.Millisecond), WithScrub(time.Millisecond, 0))
	if err != nil {
		t.Fatal(err)
	}
	col, err := db.CreateCollection("c", CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.CreateValueIndex("by_v", "/d/v", TypeDouble); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := db.Session().Insert(context.Background(), "c", []byte(fmt.Sprintf("<d><v>%d</v></d>", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := db.Stats()
		if s.ScrubPasses > 0 && s.SpaceFree >= 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("duties never ran: scrub passes %d, free %d", s.ScrubPasses, s.SpaceFree)
		}
		time.Sleep(time.Millisecond)
	}
	if q := db.Quarantined(); len(q) != 0 {
		t.Fatalf("scrub quarantined healthy documents: %v", q)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	col, err = db.Collection("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := col.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if n, err := col.Count(); err != nil || n != 50 {
		t.Fatalf("reopened count = %d, %v; want 50", n, err)
	}
}
