package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rx/internal/nodeid"
	"rx/internal/serialize"
	"rx/internal/xml"
)

func TestVersionedSnapshotReads(t *testing.T) {
	db := newDB(t)
	col, err := db.CreateCollection("v", CollectionOptions{Versioned: true})
	if err != nil {
		t.Fatal(err)
	}
	id := mustInsert(t, col, []byte(`<doc><status>draft</status></doc>`))
	v1, err := col.SnapshotVersion(id)
	if err != nil || v1 != 1 {
		t.Fatalf("initial version = %d, %v", v1, err)
	}

	// Update the text: version 2.
	res, _, _ := col.QueryOpts("//status/text()", QueryOptions{})
	if err := db.RunTxn(func(tx *Txn) error { return tx.UpdateText(col, id, res[0].Node, []byte("published")) }); err != nil {
		t.Fatal(err)
	}
	v2, _ := col.SnapshotVersion(id)
	if v2 != 2 {
		t.Fatalf("version after update = %d", v2)
	}

	// The old snapshot still reads the old content.
	var buf bytes.Buffer
	if err := col.SerializeAt(id, v1, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != `<doc><status>draft</status></doc>` {
		t.Errorf("snapshot v1 = %s", buf.String())
	}
	buf.Reset()
	if err := col.SerializeAt(id, v2, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != `<doc><status>published</status></doc>` {
		t.Errorf("snapshot v2 = %s", buf.String())
	}
	// Current reads see the newest version.
	buf.Reset()
	col.Serialize(id, &buf)
	if buf.String() != `<doc><status>published</status></doc>` {
		t.Errorf("current = %s", buf.String())
	}
}

func TestVersionedSubtreeOps(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("v", CollectionOptions{Versioned: true})
	id := mustInsert(t, col, []byte(`<r><a/><b/></r>`))
	v1, _ := col.SnapshotVersion(id)

	aRes, _, _ := col.QueryOpts("/r/a", QueryOptions{})
	if err := db.RunTxn(func(tx *Txn) error {
		_, err := tx.InsertFragment(col, id, aRes[0].Node, AfterNode, []byte(`<mid>x</mid>`))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	bRes, _, _ := col.QueryOpts("/r/b", QueryOptions{})
	if err := db.RunTxn(func(tx *Txn) error { return tx.DeleteSubtree(col, id, bRes[0].Node) }); err != nil {
		t.Fatal(err)
	}
	v3, _ := col.SnapshotVersion(id)
	if v3 != 3 {
		t.Fatalf("version = %d", v3)
	}

	var buf bytes.Buffer
	col.SerializeAt(id, v1, &buf)
	if buf.String() != `<r><a/><b/></r>` {
		t.Errorf("v1 = %s", buf.String())
	}
	buf.Reset()
	col.SerializeAt(id, 2, &buf)
	if buf.String() != `<r><a/><mid>x</mid><b/></r>` {
		t.Errorf("v2 = %s", buf.String())
	}
	buf.Reset()
	col.SerializeAt(id, v3, &buf)
	if buf.String() != `<r><a/><mid>x</mid></r>` {
		t.Errorf("v3 = %s", buf.String())
	}
}

func TestVersionedCOWSharesRecords(t *testing.T) {
	// Multi-record document: a small update must not copy untouched records.
	db := newDB(t)
	col, _ := db.CreateCollection("v", CollectionOptions{Versioned: true, PackThreshold: 400})
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&sb, "<e k=\"%d\">%030d</e>", i, i)
	}
	sb.WriteString("</r>")
	id := mustInsert(t, col, []byte(sb.String()))
	rows1 := col.XMLTable().Count()

	res, _, _ := col.QueryOpts(`//e[@k = '30']/text()`, QueryOptions{})
	if err := db.RunTxn(func(tx *Txn) error { return tx.UpdateText(col, id, res[0].Node, []byte("NEW")) }); err != nil {
		t.Fatal(err)
	}
	rows2 := col.XMLTable().Count()
	// Copy-on-write adds exactly one new record row.
	if rows2 != rows1+1 {
		t.Errorf("rows %d -> %d; COW should add exactly 1", rows1, rows2)
	}
}

func TestVacuum(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("v", CollectionOptions{Versioned: true, PackThreshold: 400})
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&sb, "<e k=\"%d\">%030d</e>", i, i)
	}
	sb.WriteString("</r>")
	id := mustInsert(t, col, []byte(sb.String()))
	for v := 0; v < 5; v++ {
		res, _, _ := col.QueryOpts(`//e[@k = '10']/text()`, QueryOptions{})
		if err := db.RunTxn(func(tx *Txn) error { return tx.UpdateText(col, id, res[0].Node, []byte(fmt.Sprintf("v%d", v))) }); err != nil {
			t.Fatal(err)
		}
	}
	rowsBefore := col.XMLTable().Count()
	cur, _ := col.SnapshotVersion(id)
	if err := col.Vacuum(id, cur); err != nil {
		t.Fatal(err)
	}
	rowsAfter := col.XMLTable().Count()
	if rowsAfter >= rowsBefore {
		t.Errorf("vacuum reclaimed nothing: %d -> %d", rowsBefore, rowsAfter)
	}
	// Current version still reads fine; old versions are gone.
	var buf bytes.Buffer
	if err := col.SerializeAt(id, cur, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "v4") {
		t.Error("current version damaged by vacuum")
	}
	if err := col.SerializeAt(id, 1, &buf); err == nil {
		t.Error("vacuumed version still readable")
	}
}

func TestVersionedDelete(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("v", CollectionOptions{Versioned: true})
	id := mustInsert(t, col, []byte(`<a>x</a>`))
	res, _, _ := col.QueryOpts("/a/text()", QueryOptions{})
	db.RunTxn(func(tx *Txn) error { return tx.UpdateText(col, id, res[0].Node, []byte("y")) })
	if err := db.RunTxn(func(tx *Txn) error { return tx.Delete(col, id) }); err != nil {
		t.Fatal(err)
	}
	if col.Has(id) {
		t.Error("deleted versioned doc still present")
	}
	if col.XMLTable().Count() != 0 {
		t.Errorf("rows remain: %d", col.XMLTable().Count())
	}
}

// TestReadersNeverBlockWriter: snapshot readers proceed concurrently with a
// writer installing new versions — the §5.1 "multiversioning ... avoids
// locking by readers" claim.
func TestReadersNeverBlockWriter(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("v", CollectionOptions{Versioned: true})
	id := mustInsert(t, col, []byte(`<doc><counter>0</counter></doc>`))
	res, _, _ := col.QueryOpts("//counter/text()", QueryOptions{})
	textID := res[0].Node

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writer: continuous version installs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.RunTxn(func(tx *Txn) error { return tx.UpdateText(col, id, textID, []byte(fmt.Sprint(i))) }); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Readers: each pins a snapshot and must see a consistent document.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ver, err := col.SnapshotVersion(id)
				if err != nil {
					t.Error(err)
					return
				}
				var buf bytes.Buffer
				if err := col.SerializeAt(id, ver, &buf); err != nil {
					t.Errorf("snapshot read at v%d: %v", ver, err)
					return
				}
				if !strings.HasPrefix(buf.String(), "<doc><counter>") {
					t.Errorf("inconsistent snapshot: %s", buf.String())
					return
				}
			}
		}()
	}
	// Let readers finish, then stop the writer.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Simple coordination: wait for all readers via the shared WaitGroup by
	// closing stop after a short busy period.
	for i := 0; i < 100; i++ {
		if _, err := col.SnapshotVersion(id); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
}

func TestUnversionedSnapshotRejected(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	id := mustInsert(t, col, []byte(`<a/>`))
	if _, err := col.SnapshotVersion(id); err == nil {
		t.Error("SnapshotVersion on unversioned collection should fail")
	}
	if err := col.Vacuum(id, 1); err == nil {
		t.Error("Vacuum on unversioned collection should fail")
	}
	_ = xml.DocID(0)
}

// commitOnThirdText is a serializer that, on its third Text event — the walk
// is then inside the document, its root long resolved — has another goroutine
// commit an edit and waits for it.
type commitOnThirdText struct {
	*serialize.Serializer
	t      *testing.T
	texts  int
	commit func() error
}

func (h *commitOnThirdText) Text(v []byte, typ xml.TypeID, id nodeid.ID) error {
	if h.texts++; h.texts == 3 {
		done := make(chan error, 1)
		go func() { done <- h.commit() }()
		select {
		case err := <-done:
			if err != nil {
				h.t.Error(err)
			}
		case <-time.After(20 * time.Second):
			// A heap placement change put the writer's new row on the page
			// the reader has latched: pick another target item.
			h.t.Fatal("the committing writer is blocked behind the reader's page latch")
		}
	}
	return h.Serializer.Text(v, typ, id)
}

// TestVersionedReadSeesOneVersion is §5.1's guarantee for the auto-commit
// read: a walk of a multi-record versioned document resolves the version once,
// so a commit landing mid-walk changes nothing the walk still has to fetch —
// the output is the pre-commit document byte for byte, never a mix of the
// root at version v and later records at v+1.
func TestVersionedReadSeesOneVersion(t *testing.T) {
	for _, edit := range []string{"update-text", "delete-subtree"} {
		t.Run(edit, func(t *testing.T) {
			db := newDB(t)
			col, _ := db.CreateCollection("v", CollectionOptions{Versioned: true, PackThreshold: 400})
			var sb strings.Builder
			sb.WriteString("<r>")
			for i := 0; i < 600; i++ {
				fmt.Fprintf(&sb, "<item><n>%d</n><v>value %d</v></item>", i, i)
			}
			sb.WriteString("</r>")
			doc := mustInsert(t, col, []byte(sb.String()))
			before := serializeStr(t, col, doc)
			if before != sb.String() {
				t.Fatal("the stored document does not round-trip")
			}
			items, _, err := col.QueryOpts("/r/item", QueryOptions{})
			if err != nil || len(items) != 600 {
				t.Fatalf("%d items, %v", len(items), err)
			}
			texts, _, _ := col.QueryOpts("/r/item/v/text()", QueryOptions{})
			commit := func() error {
				return db.RunTxn(func(tx *Txn) error { return tx.UpdateText(col, doc, texts[590].Node, []byte("CHANGED")) })
			}
			if edit == "delete-subtree" {
				commit = func() error {
					return db.RunTxn(func(tx *Txn) error { return tx.DeleteSubtree(col, doc, items[590].Node) })
				}
			}
			var buf bytes.Buffer
			h := &commitOnThirdText{Serializer: serialize.New(&buf, db.cat), t: t, commit: commit}
			if err := col.WalkDoc(doc, h); err != nil {
				t.Fatal(err)
			}
			if h.texts < 1200 {
				t.Fatalf("the walk saw %d text nodes", h.texts)
			}
			if buf.String() != before {
				t.Error("a walk that began before the commit returned a document the commit had touched")
			}
			if after := serializeStr(t, col, doc); after == before {
				t.Error("the commit did not happen")
			}
			if pinned := db.pool.Stats().Pinned; pinned != 0 {
				t.Errorf("%d frames still pinned", pinned)
			}
		})
	}
}
