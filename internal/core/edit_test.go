package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rx/internal/fault"
	"rx/internal/heap"
	"rx/internal/nodeid"
	"rx/internal/pack"
	"rx/internal/pagestore"
	"rx/internal/xml"
)

func serializeStr(t *testing.T, col *Collection, id xml.DocID) string {
	t.Helper()
	var buf bytes.Buffer
	if err := col.Serialize(id, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// bothModes runs an edit test over a plain and a versioned collection: the
// edit pipeline is one path with one fork (the record sink), so every
// behavioural test covers both sides of it.
func bothModes(t *testing.T, opts CollectionOptions, fn func(t *testing.T, col *Collection)) {
	for _, versioned := range []bool{false, true} {
		name := "plain"
		if versioned {
			name = "versioned"
		}
		t.Run(name, func(t *testing.T) {
			db := newDB(t)
			opts.Versioned = versioned
			col, err := db.CreateCollection("c", opts)
			if err != nil {
				t.Fatal(err)
			}
			fn(t, col)
			if err := col.CheckConsistency(); err != nil {
				t.Errorf("consistency: %v", err)
			}
		})
	}
}

func TestUpdateText(t *testing.T) {
	bothModes(t, CollectionOptions{}, func(t *testing.T, col *Collection) {
		col.CreateValueIndex("ix", "//price", xml.TDouble)
		id := mustInsert(t, col, []byte(`<r><p a="old"><price>10</price></p></r>`))

		res, _, _ := col.QueryOpts("//price/text()", QueryOptions{})
		if len(res) != 1 {
			t.Fatal("text node not found")
		}
		if err := col.db.RunTxn(func(tx *Txn) error { return tx.UpdateText(col, id, res[0].Node, []byte("99")) }); err != nil {
			t.Fatal(err)
		}
		if got := serializeStr(t, col, id); got != `<r><p a="old"><price>99</price></p></r>` {
			t.Errorf("after UpdateText: %s", got)
		}
		// The value index reflects the change.
		hits, plan, _ := col.QueryOpts("/r/p[price = 99]", QueryOptions{})
		if len(hits) != 1 {
			t.Errorf("index stale after text update (plan %s): %v", plan.Method, hits)
		}
		hits, _, _ = col.QueryOpts("/r/p[price = 10]", QueryOptions{})
		if len(hits) != 0 {
			t.Errorf("old value still indexed: %v", hits)
		}

		// Attribute update.
		ares, _, _ := col.QueryOpts("//p/@a", QueryOptions{})
		if err := col.db.RunTxn(func(tx *Txn) error { return tx.UpdateText(col, id, ares[0].Node, []byte("new")) }); err != nil {
			t.Fatal(err)
		}
		if got := serializeStr(t, col, id); !strings.Contains(got, `a="new"`) {
			t.Errorf("after attr update: %s", got)
		}
		// Element target is rejected and logs nothing.
		eres, _, _ := col.QueryOpts("//p", QueryOptions{})
		tx := col.db.Begin()
		if err := tx.UpdateText(col, id, eres[0].Node, []byte("x")); err == nil {
			t.Error("UpdateText on an element should fail")
		}
		if len(tx.undo) != 0 {
			t.Errorf("rejected edit logged %d undo records", len(tx.undo))
		}
		tx.Rollback()
	})
}

func TestDeleteSubtreeSimple(t *testing.T) {
	bothModes(t, CollectionOptions{}, func(t *testing.T, col *Collection) {
		col.CreateValueIndex("ix", "//v", xml.TDouble)
		id := mustInsert(t, col, []byte(`<r><a><v>1</v></a><b><v>2</v></b><c><v>3</v></c></r>`))

		res, _, _ := col.QueryOpts("/r/b", QueryOptions{})
		if err := col.db.RunTxn(func(tx *Txn) error { return tx.DeleteSubtree(col, id, res[0].Node) }); err != nil {
			t.Fatal(err)
		}
		if got := serializeStr(t, col, id); got != `<r><a><v>1</v></a><c><v>3</v></c></r>` {
			t.Errorf("after delete: %s", got)
		}
		hits, _, _ := col.QueryOpts("/r/*[v = 2]", QueryOptions{})
		if len(hits) != 0 {
			t.Errorf("deleted subtree still queryable: %v", hits)
		}
		hits, _, _ = col.QueryOpts("/r/*[v = 3]", QueryOptions{})
		if len(hits) != 1 {
			t.Errorf("sibling lost: %v", hits)
		}
		// Root deletion is rejected.
		root, _, _ := col.QueryOpts("/r", QueryOptions{})
		if err := col.db.RunTxn(func(tx *Txn) error { return tx.DeleteSubtree(col, id, root[0].Node) }); err == nil {
			t.Error("root deletion should be rejected")
		}
	})
}

func TestDeleteSubtreeMultiRecord(t *testing.T) {
	bothModes(t, CollectionOptions{PackThreshold: 400}, func(t *testing.T, col *Collection) {
		var sb strings.Builder
		sb.WriteString("<r><head/>")
		sb.WriteString("<big>")
		for i := 0; i < 100; i++ {
			fmt.Fprintf(&sb, "<e>%040d</e>", i)
		}
		sb.WriteString("</big><tail/></r>")
		id := mustInsert(t, col, []byte(sb.String()))

		rows0 := col.XMLTable().Count()
		res, _, _ := col.QueryOpts("/r/big", QueryOptions{})
		if len(res) != 1 {
			t.Fatal("big not found")
		}
		if err := col.db.RunTxn(func(tx *Txn) error { return tx.DeleteSubtree(col, id, res[0].Node) }); err != nil {
			t.Fatal(err)
		}
		if got := serializeStr(t, col, id); got != `<r><head/><tail/></r>` {
			t.Errorf("after multi-record delete: %s", got)
		}
		if col.Versioned() {
			// Older snapshots keep the rows until vacuum.
			cur, _ := col.SnapshotVersion(id)
			if err := col.Vacuum(id, cur); err != nil {
				t.Fatal(err)
			}
		}
		rows1 := col.XMLTable().Count()
		if rows1 >= rows0 {
			t.Errorf("child records not reclaimed: %d -> %d", rows0, rows1)
		}
		// Remaining structure is fully navigable.
		hits, _, _ := col.QueryOpts("//e", QueryOptions{})
		if len(hits) != 0 {
			t.Errorf("descendants of deleted subtree remain: %d", len(hits))
		}
	})
}

func TestInsertFragmentPositions(t *testing.T) {
	bothModes(t, CollectionOptions{}, func(t *testing.T, col *Collection) {
		id := mustInsert(t, col, []byte(`<r><a/><c/></r>`))

		cRes, _, _ := col.QueryOpts("/r/c", QueryOptions{})
		if err := col.db.RunTxn(func(tx *Txn) error {
			_, err := tx.InsertFragment(col, id, cRes[0].Node, BeforeNode, []byte(`<b>mid</b>`))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if got := serializeStr(t, col, id); got != `<r><a/><b>mid</b><c/></r>` {
			t.Errorf("BeforeNode: %s", got)
		}

		aRes, _, _ := col.QueryOpts("/r/a", QueryOptions{})
		if err := col.db.RunTxn(func(tx *Txn) error {
			_, err := tx.InsertFragment(col, id, aRes[0].Node, BeforeNode, []byte(`<first/>`))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if got := serializeStr(t, col, id); got != `<r><first/><a/><b>mid</b><c/></r>` {
			t.Errorf("Before first: %s", got)
		}

		cRes, _, _ = col.QueryOpts("/r/c", QueryOptions{})
		if err := col.db.RunTxn(func(tx *Txn) error {
			_, err := tx.InsertFragment(col, id, cRes[0].Node, AfterNode, []byte(`<last x="1"/>`))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if got := serializeStr(t, col, id); got != `<r><first/><a/><b>mid</b><c/><last x="1"/></r>` {
			t.Errorf("AfterNode: %s", got)
		}

		// AsLastChild under an inner element.
		bRes, _, _ := col.QueryOpts("/r/b", QueryOptions{})
		var newID nodeid.ID
		err := col.db.RunTxn(func(tx *Txn) (err error) {
			newID, err = tx.InsertFragment(col, id, bRes[0].Node, AsLastChild, []byte(`<sub>deep</sub>`))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := serializeStr(t, col, id); got != `<r><first/><a/><b>mid<sub>deep</sub></b><c/><last x="1"/></r>` {
			t.Errorf("AsLastChild: %s", got)
		}
		v, err := col.NodeString(id, newID)
		if err != nil || string(v) != "deep" {
			t.Errorf("new node value = %q, %v", v, err)
		}

		// Siblings of the root, children of a text node, a malformed fragment
		// and an unknown position are rejected.
		root, _, _ := col.QueryOpts("/r", QueryOptions{})
		if err := col.db.RunTxn(func(tx *Txn) error {
			_, err := tx.InsertFragment(col, id, root[0].Node, AfterNode, []byte(`<x/>`))
			return err
		}); err == nil {
			t.Error("sibling of the root accepted")
		}
		txt, _, _ := col.QueryOpts("/r/b/text()", QueryOptions{})
		if err := col.db.RunTxn(func(tx *Txn) error {
			_, err := tx.InsertFragment(col, id, txt[0].Node, AsLastChild, []byte(`<x/>`))
			return err
		}); err == nil {
			t.Error("child of a text node accepted")
		}
		if err := col.db.RunTxn(func(tx *Txn) error {
			_, err := tx.InsertFragment(col, id, bRes[0].Node, AsLastChild, []byte(`not xml`))
			return err
		}); err == nil {
			t.Error("malformed fragment accepted")
		}
		if err := col.db.RunTxn(func(tx *Txn) error {
			_, err := tx.InsertFragment(col, id, bRes[0].Node, Position(9), []byte(`<x/>`))
			return err
		}); err == nil {
			t.Error("unknown position accepted")
		}
	})
}

func TestInsertFragmentMaintainsIndexes(t *testing.T) {
	bothModes(t, CollectionOptions{}, func(t *testing.T, col *Collection) {
		col.CreateValueIndex("ix", "/r/item/price", xml.TDouble)
		id := mustInsert(t, col, []byte(`<r><item><price>10</price></item></r>`))

		root, _, _ := col.QueryOpts("/r", QueryOptions{})
		if err := col.db.RunTxn(func(tx *Txn) error {
			_, err := tx.InsertFragment(col, id, root[0].Node, AsLastChild, []byte(`<item><price>55</price></item>`))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		hits, plan, err := col.QueryOpts("/r/item[price = 55]", QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Method == "scan" {
			t.Errorf("index not used: %s", plan.Method)
		}
		if len(hits) != 1 {
			t.Errorf("inserted item not indexed: %v", hits)
		}
	})
}

func TestManySiblingInsertions(t *testing.T) {
	// Repeated insertion at the same position exercises Between-based ID
	// assignment: IDs must stay ordered and unique with no relabeling.
	bothModes(t, CollectionOptions{}, func(t *testing.T, col *Collection) {
		id := mustInsert(t, col, []byte(`<r><a/><z/></r>`))
		aRes, _, _ := col.QueryOpts("/r/a", QueryOptions{})
		anchor := aRes[0].Node
		for i := 0; i < 40; i++ {
			if err := col.db.RunTxn(func(tx *Txn) error {
				_, err := tx.InsertFragment(col, id, anchor, AfterNode, []byte(fmt.Sprintf("<m i=\"%d\"/>", i)))
				return err
			}); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		}
		got := serializeStr(t, col, id)
		// Inserting after <a/> each time reverses the order: 39, 38, ..., 0.
		for i := 0; i < 39; i++ {
			hi := fmt.Sprintf(`i="%d"`, 39-i)
			lo := fmt.Sprintf(`i="%d"`, 38-i)
			if strings.Index(got, hi) > strings.Index(got, lo) {
				t.Fatalf("sibling order wrong around %d: %s", i, got)
			}
		}
		res, _, _ := col.QueryOpts("//m", QueryOptions{})
		if len(res) != 40 {
			t.Errorf("got %d m elements", len(res))
		}
	})
}

func TestUpdateOnMultiRecordDocument(t *testing.T) {
	bothModes(t, CollectionOptions{PackThreshold: 300}, func(t *testing.T, col *Collection) {
		var sb strings.Builder
		sb.WriteString("<r>")
		for i := 0; i < 80; i++ {
			fmt.Fprintf(&sb, "<e k=\"%d\">%030d</e>", i, i)
		}
		sb.WriteString("</r>")
		id := mustInsert(t, col, []byte(sb.String()))

		// Update a text deep in some middle record.
		res, _, _ := col.QueryOpts(`//e[@k = '40']/text()`, QueryOptions{})
		if len(res) != 1 {
			t.Fatalf("text not found: %v", res)
		}
		if err := col.db.RunTxn(func(tx *Txn) error { return tx.UpdateText(col, id, res[0].Node, []byte("CHANGED")) }); err != nil {
			t.Fatal(err)
		}
		got := serializeStr(t, col, id)
		if !strings.Contains(got, `<e k="40">CHANGED</e>`) {
			t.Error("update lost")
		}
		// Insert a sibling in the middle.
		eRes, _, _ := col.QueryOpts(`//e[@k = '40']`, QueryOptions{})
		if err := col.db.RunTxn(func(tx *Txn) error {
			_, err := tx.InsertFragment(col, id, eRes[0].Node, AfterNode, []byte(`<inserted/>`))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		got = serializeStr(t, col, id)
		if !strings.Contains(got, `CHANGED</e><inserted/>`) {
			t.Errorf("mid-record insert misplaced: %.200s", got)
		}
		// Document still has all elements.
		all, _, _ := col.QueryOpts("//e", QueryOptions{})
		if len(all) != 80 {
			t.Errorf("element count = %d", len(all))
		}
	})
}

// editItems loads the 12-item document of the edit differential
// (editdiff_test.go) and returns it with its items' text.
func editItems(t *testing.T, col *Collection) (xml.DocID, []string) {
	t.Helper()
	doc := mustInsert(t, col, []byte(editDoc()))
	var items []string
	for i := 1; i <= 12; i++ {
		items = append(items, editItem(i, fmt.Sprint(10*i)))
	}
	return doc, items
}

// runStarts returns the positions among /r/item of each run's first item.
func runStarts(t *testing.T, col *Collection, doc xml.DocID) []int {
	t.Helper()
	items, _, err := col.QueryOpts("/r/item", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := col.reader(doc)
	if err != nil {
		t.Fatal(err)
	}
	var starts []int
	var last heap.RID
	for i, it := range items {
		rid, err := r.lookup(it.Node)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 || rid != last {
			starts = append(starts, i)
		}
		last = rid
	}
	return starts
}

// TestRunProxyBookkeeping pins the proxy invariant on the two edits that used
// to break it: emptying a run from its front (the stale proxy then resolved
// into the next record, whose items appeared twice), and inserting before a
// run whose first item was deleted (Between hands the deleted ID out again,
// in the previous record).
func TestRunProxyBookkeeping(t *testing.T) {
	check := func(t *testing.T, col *Collection, doc xml.DocID, items []string, what string) {
		t.Helper()
		if got, want := serializeStr(t, col, doc), "<r>"+strings.Join(items, "")+"</r>"; got != want {
			t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
		}
		if err := col.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	itemAt := func(t *testing.T, col *Collection, i int) nodeid.ID {
		t.Helper()
		res, _, err := col.QueryOpts("/r/item", QueryOptions{})
		if err != nil || i >= len(res) {
			t.Fatalf("item %d of %d: %v", i, len(res), err)
		}
		return res[i].Node
	}
	var starts []int
	bothModes(t, CollectionOptions{PackThreshold: editThreshold}, func(t *testing.T, col *Collection) {
		doc, _ := editItems(t, col)
		starts = runStarts(t, col, doc)
		if len(starts) < 3 || len(starts) > 6 {
			t.Fatalf("document packs into %d runs, want several of several items", len(starts))
		}
	})
	for _, start := range starts {
		t.Run(fmt.Sprintf("empty run at %d", start), func(t *testing.T) {
			bothModes(t, CollectionOptions{PackThreshold: editThreshold}, func(t *testing.T, col *Collection) {
				col.CreateValueIndex("price", "/r/item/price", xml.TDouble)
				doc, items := editItems(t, col)
				// Delete from the run's front until well into the next run.
				for n := 0; n < 4 && start < len(items); n++ {
					if err := col.db.RunTxn(func(tx *Txn) error { return tx.DeleteSubtree(col, doc, itemAt(t, col, start)) }); err != nil {
						t.Fatal(err)
					}
					items = append(items[:start:start], items[start+1:]...)
					check(t, col, doc, items, fmt.Sprintf("after %d deletes", n+1))
				}
			})
		})
		t.Run(fmt.Sprintf("insert before beheaded run at %d", start), func(t *testing.T) {
			bothModes(t, CollectionOptions{PackThreshold: editThreshold}, func(t *testing.T, col *Collection) {
				col.CreateValueIndex("price", "/r/item/price", xml.TDouble)
				doc, items := editItems(t, col)
				if err := col.db.RunTxn(func(tx *Txn) error { return tx.DeleteSubtree(col, doc, itemAt(t, col, start)) }); err != nil {
					t.Fatal(err)
				}
				items = append(items[:start:start], items[start+1:]...)
				if start == len(items) {
					return // a one-item run at the end: nothing left to insert before
				}
				ins := editItem(99, "99")
				if err := col.db.RunTxn(func(tx *Txn) error {
					_, err := tx.InsertFragment(col, doc, itemAt(t, col, start), BeforeNode, []byte(ins))
					return err
				}); err != nil {
					t.Fatal(err)
				}
				items = append(items[:start:start], append([]string{ins}, items[start:]...)...)
				check(t, col, doc, items, "after delete + insert before")
			})
		})
	}
}

// TestRollbackLeafDelete: a transactional delete of a text, attribute or
// comment node rolls back — its undo record carries the leaf itself, not XML
// text that no fragment parser accepts — and leaves the engine writable.
func TestRollbackLeafDelete(t *testing.T) {
	const text = `<r a="1" b="2"><t>one<!--note-->two</t><u>three</u></r>`
	for _, q := range []string{"/r/@a", "/r/@b", "/r/t/text()", "/r/t/comment()", "/r/u/text()", "/r/t"} {
		t.Run(q, func(t *testing.T) {
			bothModes(t, CollectionOptions{}, func(t *testing.T, col *Collection) {
				doc := mustInsert(t, col, []byte(text))
				res, _, err := col.QueryOpts(q, QueryOptions{})
				if err != nil || len(res) == 0 {
					t.Fatalf("%s: %v, %d results", q, err, len(res))
				}
				tx := col.db.Begin()
				if err := tx.DeleteSubtree(col, doc, res[0].Node); err != nil {
					t.Fatal(err)
				}
				if got := serializeStr(t, col, doc); got == text {
					t.Fatal("delete had no effect")
				}
				if err := tx.Rollback(); err != nil {
					t.Fatalf("rollback: %v", err)
				}
				if got := serializeStr(t, col, doc); got != text {
					t.Errorf("after rollback: %s", got)
				}
				if err := col.db.checkWritable(); err != nil {
					t.Errorf("engine degraded by a user rollback: %v", err)
				}
			})
		})
	}
}

// TestRewriteRecordSurfacesCorruptRecord: a record whose stored intervals
// cannot be computed must fail the rewrite before it touches the row — not
// be rewritten with its old NodeID-index entries silently left behind.
func TestRewriteRecordSurfacesCorruptRecord(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	const text = `<r><a>1</a><b>2</b></r>`
	doc := mustInsert(t, col, []byte(text))
	rd, err := col.reader(doc)
	if err != nil {
		t.Fatal(err)
	}
	r, err := rd.openRec(nodeid.Root)
	if err != nil {
		t.Fatal(err)
	}
	payload := r.rec.Encode(r.tops)
	torn, err := pack.Decode(payload[:len(payload)-3]) // the header decodes, the body does not
	if err != nil {
		t.Fatal(err)
	}
	r.tops[0].Children = r.tops[0].Children[:1] // the edit: drop <b>
	if err := col.rewriteRecord(doc, r.rid, torn, r.tops); err == nil {
		t.Error("rewrite of a record with undecodable intervals reported success")
	}
	if got := serializeStr(t, col, doc); got != text {
		t.Errorf("failed rewrite changed the document: %s", got)
	}
	if err := col.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestEditReadFaultsSurface flips a bit, under page checksums, on every page
// read of a delete that empties a run — so the edit also has to find and
// rewrite the run's proxy. Each schedule must either fail with the checksum
// error or leave the exact document: a read error swallowed on the way to
// the proxy (as "parent already gone") would report success over a document
// that still points at the dropped run.
func TestEditReadFaultsSurface(t *testing.T) {
	mem := pagestore.NewMemStore()
	build, err := Open(pagestore.NewChecksumStore(mem), Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	col, err := build.CreateCollection("c", CollectionOptions{PackThreshold: editThreshold})
	if err != nil {
		t.Fatal(err)
	}
	doc, items := editItems(t, col)
	res, _, _ := col.QueryOpts("/r/item", QueryOptions{})
	// Leave one item in the second run.
	for _, i := range []int{4, 3} {
		if err := col.db.RunTxn(func(tx *Txn) error { return tx.DeleteSubtree(col, doc, res[i].Node) }); err != nil {
			t.Fatal(err)
		}
	}
	victim := res[5].Node
	want := "<r>" + strings.Join(append(items[:3:3], items[6:]...), "") + "</r>"
	if err := build.Flush(); err != nil {
		t.Fatal(err)
	}

	// run reopens the database cold over the injector, with a one-frame
	// pool, so the edit's second visit to a page is a read again.
	run := func(inj *fault.Injector) (r0, r1 uint64, err error) {
		db, err := Open(pagestore.NewChecksumStore(fault.NewStore(mem, inj)), Options{PoolPages: 1})
		if err != nil {
			return 0, 0, err
		}
		c, err := db.Collection("c")
		if err != nil {
			return 0, 0, err
		}
		_, _, r0 = inj.Counts()
		err = c.db.RunTxn(func(tx *Txn) error { return tx.DeleteSubtree(c, doc, victim) })
		_, _, r1 = inj.Counts()
		if err == nil {
			var buf bytes.Buffer
			if serr := c.Serialize(doc, &buf); serr != nil {
				t.Fatalf("delete reported success, then: %v", serr)
			}
			if buf.String() != want {
				t.Fatalf("delete reported success over\n %s\nwant\n %s", buf.String(), want)
			}
			if cerr := c.CheckConsistency(); cerr != nil {
				t.Fatalf("delete reported success, then: %v", cerr)
			}
		}
		return r0, r1, err
	}
	r0, r1, err := run(fault.NewInjector())
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	if r1-r0 < 4 {
		t.Fatalf("the edit performed only %d reads", r1-r0)
	}
	detected := 0
	for k := r0 + 1; k <= r1; k++ {
		_, _, err := run(fault.NewInjector(fault.FlipOnRead(k, 8*777+3)))
		if err == nil {
			continue // the flip hit bytes the page does not use
		}
		if !isChecksumErr(err) {
			t.Fatalf("flip on read #%d: %v", k, err)
		}
		detected++
	}
	if detected == 0 {
		t.Fatalf("no flip across reads %d..%d was detected", r0+1, r1)
	}
}
