package experiments

// E1–E3: the §3.1 storage model — bytes, traversal and update cost against
// the packing factor, with the one-node-per-row store as the baseline.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rx/internal/buffer"
	"rx/internal/core"
	"rx/internal/nodeid"
	"rx/internal/pagestore"
	"rx/internal/shred"
	"rx/internal/xml"
	"rx/internal/xmlgen"
	"rx/internal/xmlparse"
)

// memCollection opens a fresh in-memory database with one collection.
func memCollection(opts core.CollectionOptions) (*core.DB, *core.Collection, error) {
	db, err := core.OpenMemory()
	if err != nil {
		return nil, nil, err
	}
	col, err := db.CreateCollection("c", opts)
	return db, col, err
}

// packDoc stores one document in a fresh collection packed at threshold.
func packDoc(doc []byte, threshold int) (*core.DB, *core.Collection, xml.DocID, error) {
	db, col, err := memCollection(core.CollectionOptions{PackThreshold: threshold})
	if err != nil {
		return nil, nil, 0, err
	}
	var id xml.DocID
	err = db.RunTxn(func(t *core.Txn) (err error) { id, err = t.Insert(col, doc); return err })
	return db, col, id, err
}

// shredDoc stores one document in a fresh node-per-row store and returns the
// number of rows it took.
func shredDoc(doc []byte) (*shred.Store, *buffer.Pool, int, error) {
	stream, err := xmlparse.Parse(doc, xml.NewDict(), xmlparse.Options{})
	if err != nil {
		return nil, nil, 0, err
	}
	pool := buffer.New(pagestore.NewMemStore(), 1<<14)
	ss, err := shred.Create(pool)
	if err != nil {
		return nil, nil, 0, err
	}
	n, err := ss.Insert(1, stream)
	return ss, pool, n, err
}

// shaped is the (k, n) workload of E1–E3: k elements with n-byte values.
func shaped(m *Meter) (k, n int, doc []byte) {
	k, n = m.pick(20000, 4000), 20
	return k, n, xmlgen.Shaped(k, n)
}

// e1 reproduces the §3.1 storage model: bytes and NodeID-index entries per
// node as the packing factor grows, against the one-node-per-row baseline.
func e1(m *Meter) (*Table, error) {
	k, n, doc := shaped(m)
	t := &Table{
		ID:      "E1",
		Title:   fmt.Sprintf("storage vs packing factor (k=%d elements, n=%d-byte values)", k, n),
		Claim:   "packed storage ≈ k(n + h/p) vs node-per-row k(n+h); index entries ≤ 2k/p vs k (§3.1)",
		Headers: []string{"scheme", "threshold", "records", "p=nodes/rec", "heap KiB", "index entries", "entries/node", "total store KiB", "total bytes/node"},
	}
	nodes := 2*k + 1 // elements + text nodes + root

	var ss *shred.Store
	var pool *buffer.Pool
	var sn int
	if _, err := m.time("node-per-row", 1, func() (err error) { ss, pool, sn, err = shredDoc(doc); return }); err != nil {
		return nil, err
	}
	_, sPages, sEntries, err := ss.Stats()
	if err != nil {
		return nil, err
	}
	sBytes := sPages * pagestore.PageSize
	sTotal := int(pool.Store().NumPages()) * pagestore.PageSize
	t.Rows = append(t.Rows, []string{
		"node-per-row", "-", i0(sn), "1.0", i0(sBytes / 1024),
		i0(sEntries), f2(float64(sEntries) / float64(sn)),
		i0(sTotal / 1024), f1(float64(sTotal) / float64(sn)),
	})

	for _, th := range []int{200, 400, 800, 1600, 3200, 7700} {
		var db *core.DB
		var col *core.Collection
		if _, err := m.time(fmt.Sprintf("threshold=%d", th), 1, func() (err error) { db, col, _, err = packDoc(doc, th); return }); err != nil {
			return nil, err
		}
		recs := int(col.XMLTable().Count())
		pages, err := col.XMLTable().Pages()
		if err != nil {
			return nil, err
		}
		entries, err := col.NodeIndex().Count()
		if err != nil {
			return nil, err
		}
		bytes := pages * pagestore.PageSize
		total := int(db.Pool().Store().NumPages()) * pagestore.PageSize
		t.Rows = append(t.Rows, []string{
			"tree-packed", i0(th), i0(recs), f1(float64(nodes) / float64(recs)),
			i0(bytes / 1024),
			i0(entries), f2(float64(entries) / float64(nodes)),
			i0(total / 1024), f1(float64(total) / float64(nodes)),
		})
	}
	t.Notes = append(t.Notes,
		"index entries fall as ~2/p vs 1 per node; the total store (heap + B+tree) shows the full k·h/p vs k·h gap")
	return t, nil
}

// nodeCounter counts nodes during a stored-document walk.
type nodeCounter struct{ nodes int }

func (h *nodeCounter) StartDocument() error                           { return nil }
func (h *nodeCounter) EndDocument() error                             { return nil }
func (h *nodeCounter) StartElement(xml.QName, nodeid.ID) error        { h.nodes++; return nil }
func (h *nodeCounter) EndElement(nodeid.ID) error                     { return nil }
func (h *nodeCounter) NSDecl(xml.NameID, xml.NameID, nodeid.ID) error { h.nodes++; return nil }
func (h *nodeCounter) Attribute(xml.QName, []byte, xml.TypeID, nodeid.ID) error {
	h.nodes++
	return nil
}
func (h *nodeCounter) Text([]byte, xml.TypeID, nodeid.ID) error { h.nodes++; return nil }
func (h *nodeCounter) Comment([]byte, nodeid.ID) error          { h.nodes++; return nil }
func (h *nodeCounter) PI(xml.NameID, []byte, nodeid.ID) error   { h.nodes++; return nil }

// e2 reproduces the §3.1 traversal model: full-document traversal time per
// node for packed storage vs the per-node-join baseline (ratio ≈ 1/p).
func e2(m *Meter) (*Table, error) {
	k, n, doc := shaped(m)
	iters := m.pick(5, 2)
	t := &Table{
		ID:      "E2",
		Title:   fmt.Sprintf("document-order traversal (k=%d elements, n=%d-byte values)", k, n),
		Claim:   "packed traversal ≈ k·t/p vs node-per-row k·t: the larger p, the cheaper (§3.1)",
		Headers: []string{"scheme", "threshold", "p=nodes/rec", "ns/node", "speedup vs node-per-row"},
	}
	nodes := 2*k + 1

	ss, _, _, err := shredDoc(doc)
	if err != nil {
		return nil, err
	}
	el, err := m.time("node-per-row", iters, func() error {
		return ss.Traverse(1, func(shred.Node) error { return nil })
	})
	if err != nil {
		return nil, err
	}
	baseNs := float64(el.Nanoseconds()) / float64(nodes)
	t.Rows = append(t.Rows, []string{"node-per-row", "-", "1.0", f1(baseNs), "1.0x"})

	for _, th := range []int{200, 800, 3200, 7700} {
		_, col, id, err := packDoc(doc, th)
		if err != nil {
			return nil, err
		}
		el, err := m.time(fmt.Sprintf("packed/threshold=%d", th), iters, func() error {
			return col.WalkDoc(id, &nodeCounter{})
		})
		if err != nil {
			return nil, err
		}
		ns := float64(el.Nanoseconds()) / float64(nodes)
		t.Rows = append(t.Rows, []string{
			"tree-packed", i0(th), f1(float64(nodes) / float64(col.XMLTable().Count())),
			f1(ns), fmt.Sprintf("%.1fx", baseNs/ns),
		})
	}
	return t, nil
}

// e3 reproduces the §3.1 update model: single-node update cost vs packing
// factor (touched bytes ≈ p·n).
func e3(m *Meter) (*Table, error) {
	k, n, doc := shaped(m)
	updates := m.pick(300, 50)
	t := &Table{
		ID:      "E3",
		Title:   fmt.Sprintf("single text-node update (k=%d elements, n=%d-byte values)", k, n),
		Claim:   "updating one node touches ~p·n bytes under packing vs n per node-per-row; 'touching a relatively large size may not be too bad, since the I/O unit is a page' (§3.1)",
		Headers: []string{"threshold", "p=nodes/rec", "avg record bytes", "µs/update"},
	}
	rng := rand.New(rand.NewSource(9))
	newVal := []byte(strings.Repeat("w", n))
	for _, th := range []int{200, 800, 3200, 7700} {
		db, col, id, err := packDoc(doc, th)
		if err != nil {
			return nil, err
		}
		recs := int(col.XMLTable().Count())
		pages, err := col.XMLTable().Pages()
		if err != nil {
			return nil, err
		}
		res, _, err := col.QueryOpts("/r/e/text()", core.QueryOptions{})
		if err != nil {
			return nil, err
		}
		el, err := m.time(fmt.Sprintf("threshold=%d", th), updates, func() error {
			node := res[rng.Intn(len(res))].Node
			return db.RunTxn(func(t *core.Txn) error { return t.UpdateText(col, id, node, newVal) })
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			i0(th), f1(float64(2*k+1) / float64(recs)),
			i0(pages * pagestore.PageSize / recs),
			f2(float64(el.Nanoseconds()) / 1000),
		})
	}
	t.Notes = append(t.Notes,
		"each update is one transaction: decode+re-encode of the packed record (the §3.1 counter-factor, growing with record size)",
		"plus the whole-document undo snapshot a plain collection logs per edit, which costs O(document) and dominates here")
	return t, nil
}

// e3Cases — gated: one transactional UpdateText on a multi-record document
// with one value index: the edit pipeline end to end (plan, undo record,
// record rewrite, value-key maintenance).
func e3Cases() ([]Case, error) {
	return []Case{{Name: "txn-update-text", Gated: true, Run: func(b *testing.B) {
		db, col, err := memCollection(core.CollectionOptions{PackThreshold: 256})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		if err := col.CreateValueIndex("qty", "/Product/Part/Qty", xml.TDouble); err != nil {
			b.Fatal(err)
		}
		var id xml.DocID
		if err := db.RunTxn(func(t *core.Txn) (err error) { id, err = t.Insert(col, xmlgen.Product(1)); return err }); err != nil {
			b.Fatal(err)
		}
		texts, _, err := col.QueryOpts("/Product/Part/Qty/text()", core.QueryOptions{})
		if err != nil || len(texts) != 16 {
			b.Fatalf("Qty texts: %d, %v", len(texts), err)
		}
		if n := col.XMLTable().Count(); n < 3 {
			b.Fatalf("E3: document packed into %d records, want several", n)
		}
		vals := [2][]byte{[]byte("7"), []byte("8")}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			node := texts[i%len(texts)].Node
			err := db.RunTxn(func(t *core.Txn) error { return t.UpdateText(col, id, node, vals[i&1]) })
			if err != nil {
				b.Fatal(err)
			}
		}
	}}}, nil
}
