package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rx/internal/nodeid"
	"rx/internal/pagestore"
	"rx/internal/xml"
)

// pinDoc builds a document whose every value encodes its document number, so
// aliased or recycled bytes are detectable.
func pinDoc(i int) []byte {
	return []byte(fmt.Sprintf(
		`<doc n="%d"><k>key-%06d</k><v>value-%06d-%s</v></doc>`,
		i, i, i, strings.Repeat("x", 64)))
}

// TestCursorValueHeldAcrossNextUnderEviction is the pin-misuse test: it
// opens a cursor over many documents on a pool far too small to hold them,
// retains every Result.Value across subsequent Next calls (each of which
// borrows more frames and forces evictions of the earlier ones), and then
// verifies every retained value. If cursor values aliased pinned frames
// instead of being copied out before release, the evicted-and-reused frames
// would corrupt the retained slices.
func TestCursorValueHeldAcrossNextUnderEviction(t *testing.T) {
	db, err := Open(pagestore.NewMemStore(), Options{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	col, err := db.CreateCollection("pins", CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const docs = 200
	for i := 0; i < docs; i++ {
		mustInsert(t, col, pinDoc(i))
	}

	cur, err := col.Cursor("/doc/v", QueryOptions{NeedValues: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var held [][]byte // values retained across Next — the misuse under test
	for cur.Next() {
		held = append(held, cur.Result().Value)
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if len(held) != docs {
		t.Fatalf("cursor returned %d values, want %d", len(held), docs)
	}
	seen := map[string]bool{}
	for _, v := range held {
		if !bytes.HasPrefix(v, []byte("value-")) || !bytes.HasSuffix(v, []byte(strings.Repeat("x", 64))) {
			t.Fatalf("retained value corrupted (frame alias escaped?): %q", v)
		}
		seen[string(v)] = true
	}
	if len(seen) != docs {
		t.Fatalf("retained values collapsed to %d distinct (frame reuse overwrote aliases?)", len(seen))
	}
}

// TestNodeStringCopiesOutOfFrame verifies the copy-on-escape contract of the
// borrowed read path: bytes returned by NodeString stay intact after the
// frame they were read from has been evicted and its page re-fetched by
// other traffic.
func TestNodeStringCopiesOutOfFrame(t *testing.T) {
	db, err := Open(pagestore.NewMemStore(), Options{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	col, err := db.CreateCollection("pins", CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const docs = 100
	for i := 0; i < docs; i++ {
		mustInsert(t, col, pinDoc(i))
	}
	// Take the string value of doc 0's <v>, then churn the pool by querying
	// everything else, then re-check the retained bytes.
	rs, _, err := col.QueryOpts("/doc/v", QueryOptions{NeedValues: true, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no results")
	}
	val, err := col.NodeString(rs[0].Doc, rs[0].Node)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), val...)
	for round := 0; round < 3; round++ {
		if _, _, err := col.QueryOpts("/doc/k", QueryOptions{NeedValues: true}); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(val, want) {
		t.Fatalf("NodeString bytes changed after eviction churn: %q != %q", val, want)
	}
}

// TestConcurrentReadersUnderEviction runs parallel borrowed-read traffic
// (serialization, node reads, queries) on a tiny pool so pins, evictions and
// frame reuse race; meaningful mainly under -race.
func TestConcurrentReadersUnderEviction(t *testing.T) {
	db, err := Open(pagestore.NewMemStore(), Options{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	col, err := db.CreateCollection("pins", CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const docs = 64
	ids := make([]xml.DocID, 0, docs)
	for i := 0; i < docs; i++ {
		id := mustInsert(t, col, pinDoc(i))
		ids = append(ids, id)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				switch g % 3 {
				case 0:
					rs, _, err := col.QueryOpts("/doc/v", QueryOptions{NeedValues: true})
					if err != nil {
						t.Error(err)
						return
					}
					for _, r := range rs {
						if !bytes.HasPrefix(r.Value, []byte("value-")) {
							t.Errorf("corrupt value %q", r.Value)
							return
						}
					}
				case 1:
					var sb strings.Builder
					if err := col.Serialize(ids[(g*31+i)%docs], &sb); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, _, err := col.QueryOpts("/doc/k", QueryOptions{NeedValues: true}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if pinned := db.Stats().PoolPinned; pinned != 0 {
		t.Errorf("PoolPinned = %d after all readers finished, want 0", pinned)
	}
}

// nodeCountHandler counts a walk's nodes.
type nodeCountHandler struct {
	nodes int
}

func (h *nodeCountHandler) StartDocument() error { return nil }
func (h *nodeCountHandler) EndDocument() error   { return nil }
func (h *nodeCountHandler) StartElement(xml.QName, nodeid.ID) error {
	h.nodes++
	return nil
}
func (h *nodeCountHandler) EndElement(nodeid.ID) error                     { return nil }
func (h *nodeCountHandler) NSDecl(xml.NameID, xml.NameID, nodeid.ID) error { h.nodes++; return nil }
func (h *nodeCountHandler) Attribute(xml.QName, []byte, xml.TypeID, nodeid.ID) error {
	h.nodes++
	return nil
}
func (h *nodeCountHandler) Text([]byte, xml.TypeID, nodeid.ID) error { h.nodes++; return nil }
func (h *nodeCountHandler) Comment([]byte, nodeid.ID) error          { h.nodes++; return nil }
func (h *nodeCountHandler) PI(xml.NameID, []byte, nodeid.ID) error   { h.nodes++; return nil }

// failAfter is a handler that errors on its n-th text node, to end a walk
// while the walker holds a borrowed record.
type failAfter struct {
	nodeCountHandler
	n int
}

func (h *failAfter) Text([]byte, xml.TypeID, nodeid.ID) error {
	if h.n--; h.n == 0 {
		return errors.New("stop here")
	}
	return nil
}

// TestSnapshotCheckAndSalvageLeaveNoPins covers the entries that read owned
// record copies before the borrowed path became the only one — snapshot walks
// and serialization, the consistency check, salvage, the edit planner: on a
// pool far smaller than the data, each returns exact bytes and leaves no
// frame pinned, on success and when the walk ends in an error.
func TestSnapshotCheckAndSalvageLeaveNoPins(t *testing.T) {
	db, err := Open(pagestore.NewMemStore(), Options{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	col, err := db.CreateCollection("pins", CollectionOptions{Versioned: true, PackThreshold: 400})
	if err != nil {
		t.Fatal(err)
	}
	noPins := func(after string) {
		t.Helper()
		if pinned := db.pool.Stats().Pinned; pinned != 0 {
			t.Fatalf("%d frames pinned after %s", pinned, after)
		}
	}
	const docs = 12
	var ids []xml.DocID
	var v1 []string
	for i := 0; i < docs; i++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, `<doc n="%d">`, i)
		for j := 0; j < 60; j++ {
			fmt.Fprintf(&sb, `<item><k>key-%03d-%03d</k><v>%030d</v></item>`, i, j, j)
		}
		sb.WriteString(`</doc>`)
		id := mustInsert(t, col, []byte(sb.String()))
		ids, v1 = append(ids, id), append(v1, sb.String())
	}
	keys, _, err := col.QueryOpts("/doc/item/k/text()", QueryOptions{})
	if err != nil || len(keys) != docs*60 {
		t.Fatalf("%d keys, %v", len(keys), err)
	}
	for i, id := range ids {
		if err := col.db.RunTxn(func(tx *Txn) error { return tx.UpdateText(col, id, keys[i*60+30].Node, []byte("EDITED")) }); err != nil {
			t.Fatal(err)
		}
		noPins("UpdateText")
	}
	for i, id := range ids {
		var buf bytes.Buffer
		if err := col.SerializeAt(id, 1, &buf); err != nil || buf.String() != v1[i] {
			t.Fatalf("SerializeAt(doc %d, v1): err %v, exact %v", id, err, buf.String() == v1[i])
		}
		noPins("SerializeAt")
		want := strings.Replace(v1[i], fmt.Sprintf("key-%03d-030", i), "EDITED", 1)
		buf.Reset()
		if err := col.SerializeAt(id, 2, &buf); err != nil || buf.String() != want {
			t.Fatalf("SerializeAt(doc %d, v2): err %v, exact %v", id, err, buf.String() == want)
		}
		h := &nodeCountHandler{}
		if err := col.WalkDocAt(id, 1, h); err != nil || h.nodes != 2+60*5 {
			t.Fatalf("WalkDocAt(doc %d, v1): %d nodes, %v", id, h.nodes, err)
		}
		noPins("WalkDocAt")
		if err := col.WalkDocAt(id, 1, &failAfter{n: 70}); err == nil {
			t.Fatal("a failing handler did not fail the walk")
		}
		noPins("a WalkDocAt that ended in a handler error")
		if err := col.SerializeAt(id, 0, &buf); err == nil {
			t.Fatal("version 0, older than any written, serialized")
		}
		noPins("SerializeAt of a missing version")
		lost := 0
		stream, err := col.docStream(id, &lost)
		if err != nil || lost != 0 {
			t.Fatalf("salvage of doc %d: lost %d, %v", id, lost, err)
		}
		noPins("salvage")
		if full, err := col.DocStream(id); err != nil || !bytes.Equal(full, stream) {
			t.Fatalf("salvage of an intact document differs from DocStream (err %v)", err)
		}
	}
	if err := col.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	noPins("CheckConsistency")
}
