package rx

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"rx/internal/pagestore"
)

// metaFormatByte is where a B+tree's meta page keeps its format byte.
const metaFormatByte = 12

// A file whose index trees' meta pages lack the format byte, as files
// written with whole-key B+tree leaves have them, is refused with
// ErrLayout, with and without a log, before anything is written: the file
// stays byte for byte as it was and no log is created.
func TestOldTreeFormatRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "old.rxdb")
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
	for i := 0; i < 50; i++ {
		if _, err := db.Session().Insert(context.Background(), "c", []byte(fmt.Sprintf("<d><v>%d</v></d>", i))); err != nil {
			t.Fatal(err)
		}
	}
	m := db.Catalog().GetCollection("c")
	metas := []pagestore.PageID{m.DocIDIndex, m.NodeIDIndex}
	for _, im := range m.Indexes {
		metas = append(metas, im.Meta)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pg := range metas {
		if _, err := f.WriteAt([]byte{0}, int64(pg)*pagestore.PageSize+metaFormatByte); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "old.wal")
	for name, opts := range map[string][]Option{"open": nil, "open with wal": {WithWAL(walPath)}} {
		db, err := Open(path, opts...)
		if err == nil {
			db.Close()
		}
		if !errors.Is(err, ErrLayout) {
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
}

// Transaction IDs never repeat across processes. Recovery decides a
// transaction by a commit or abort record under its ID anywhere in the log,
// so a process that handed out a committed transaction's ID again would
// have that transaction's uncommitted work kept. Each phase runs in a
// process of its own, this test binary run again with RX_TXN_PHASE set:
// one commits a transaction; the next inserts under a transaction that
// never commits, commits another behind it, whose flush makes the first
// one's records durable, and dies. Recovery here must undo the uncommitted
// insert and keep the two committed ones.
func TestTxnIDsSurviveRestart(t *testing.T) {
	if phase := os.Getenv("RX_TXN_PHASE"); phase != "" {
		txnPhase(t, phase, os.Getenv("RX_TXN_DIR"))
		return
	}
	dir := t.TempDir()
	for _, phase := range []string{"commit", "crash"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestTxnIDsSurviveRestart$", "-test.count=1")
		cmd.Env = append(os.Environ(), "RX_TXN_PHASE="+phase, "RX_TXN_DIR="+dir)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("phase %s: %v\n%s", phase, err, out)
		}
	}
	db, err := Open(filepath.Join(dir, "t.rxdb"), WithWAL(filepath.Join(dir, "t.wal")))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	col, err := db.Collection("c")
	if err != nil {
		t.Fatal(err)
	}
	for text, want := range map[string]int{"committed": 1, "behind": 1, "uncommitted": 0} {
		rs, _, err := col.QueryOpts(fmt.Sprintf("/d[. = '%s']", text), QueryOptions{})
		if err != nil || len(rs) != want {
			t.Fatalf("documents %q after recovery: %d, %v; want %d", text, len(rs), err, want)
		}
	}
}

// txnPhase is one process of TestTxnIDsSurviveRestart.
func txnPhase(t *testing.T, phase, dir string) {
	db, err := Open(filepath.Join(dir, "t.rxdb"), WithWAL(filepath.Join(dir, "t.wal")))
	if err != nil {
		t.Fatal(err)
	}
	insert := func(col *Collection, text string, commit bool) {
		tx := db.Begin()
		if _, err := tx.Insert(col, []byte("<d>"+text+"</d>")); err != nil {
			t.Fatal(err)
		}
		if commit {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	switch phase {
	case "commit":
		col, err := db.CreateCollection("c", CollectionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		insert(col, "committed", true)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	case "crash":
		col, err := db.Collection("c")
		if err != nil {
			t.Fatal(err)
		}
		insert(col, "uncommitted", false)
		insert(col, "behind", true)
		os.Exit(0) // dies without closing
	default:
		t.Fatalf("unknown phase %q", phase)
	}
}
