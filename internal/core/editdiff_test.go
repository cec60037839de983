package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rx/internal/dom"
	"rx/internal/nodeid"
	"rx/internal/serialize"
	"rx/internal/valueindex"
	"rx/internal/vsax"
	"rx/internal/xml"
	"rx/internal/xmlparse"
)

// The edit differential: seeded random UpdateText / InsertFragment /
// DeleteSubtree steps over a multi-record document, each checked against a
// DOM-side model and against a collection freshly loaded with the same text
// — the edit-path counterpart of TestInsertBatchMatchesSequentialInserts.

func editItem(n int, price string) string {
	return fmt.Sprintf(`<item k="k%d"><name>n%d</name><price>%s</price><sub><name>s%d</name></sub></item>`, n, n, price, n)
}

// editThreshold spreads editDoc's 12 items over a root record and runs of
// three items each.
const editThreshold = 200

func editDoc() string {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 1; i <= 12; i++ {
		sb.WriteString(editItem(i, fmt.Sprint(10*i)))
	}
	sb.WriteString("</r>")
	return sb.String()
}

var editIndexes = []struct {
	name, path string
	typ        xml.TypeID
}{
	{"price", "/r/item/price", xml.TDouble},
	{"name", "//name", xml.TString},
	{"k", "/r/item/@k", xml.TString},
}

func editCollection(t *testing.T, db *DB, name string, versioned bool) *Collection {
	t.Helper()
	col, err := db.CreateCollection(name, CollectionOptions{PackThreshold: editThreshold, Versioned: versioned})
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range editIndexes {
		if err := col.CreateValueIndex(ix.name, ix.path, ix.typ); err != nil {
			t.Fatal(err)
		}
	}
	return col
}

// idCollector lists a stored document's nodes in document order.
type idCollector struct{ ids []nodeid.ID }

func (h *idCollector) add(id nodeid.ID) error                       { h.ids = append(h.ids, nodeid.Clone(id)); return nil }
func (h *idCollector) StartDocument() error                         { return nil }
func (h *idCollector) EndDocument() error                           { return nil }
func (h *idCollector) StartElement(_ xml.QName, id nodeid.ID) error { return h.add(id) }
func (h *idCollector) EndElement(nodeid.ID) error                   { return nil }
func (h *idCollector) NSDecl(_, _ xml.NameID, id nodeid.ID) error   { return h.add(id) }
func (h *idCollector) Attribute(_ xml.QName, _ []byte, _ xml.TypeID, id nodeid.ID) error {
	return h.add(id)
}
func (h *idCollector) Text(_ []byte, _ xml.TypeID, id nodeid.ID) error { return h.add(id) }
func (h *idCollector) Comment(_ []byte, id nodeid.ID) error            { return h.add(id) }
func (h *idCollector) PI(_ xml.NameID, _ []byte, id nodeid.ID) error   { return h.add(id) }

// editDiff is one differential run's state.
type editDiff struct {
	t     *testing.T
	rng   *rand.Rand
	db    *DB
	col   *Collection // the edited collection
	fresh *Collection // in a database of its own, reloaded from text after every step
	doc   xml.DocID
	model *dom.Node // the document node
	seq   int
}

func (e *editDiff) parse(text string) *dom.Node {
	e.t.Helper()
	stream, err := xmlparse.Parse([]byte(text), e.db.cat, xmlparse.Options{})
	if err != nil {
		e.t.Fatal(err)
	}
	n, err := dom.Build(stream)
	if err != nil {
		e.t.Fatal(err)
	}
	return n
}

func (e *editDiff) modelText() string {
	var buf bytes.Buffer
	s := serialize.New(&buf, e.db.cat)
	if err := vsax.FromDOM(e.model, s); err != nil {
		e.t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		e.t.Fatal(err)
	}
	return buf.String()
}

// modelNodes lists the model's nodes in document order, the root element
// first.
func (e *editDiff) modelNodes() []*dom.Node {
	var ms []*dom.Node
	e.model.Walk(func(n *dom.Node) bool { ms = append(ms, n); return true })
	return ms
}

// nodes pairs the model's nodes with the stored document's IDs, both in
// document order.
func (e *editDiff) nodes() ([]*dom.Node, []nodeid.ID) {
	e.t.Helper()
	ms := e.modelNodes()
	var h idCollector
	if err := e.col.WalkDoc(e.doc, &h); err != nil {
		e.t.Fatal(err)
	}
	if len(ms) != len(h.ids) {
		e.t.Fatalf("model has %d nodes, stored document %d", len(ms), len(h.ids))
	}
	return ms, h.ids
}

// editStep is one drawn operation, addressed by document-order position so
// it can be re-resolved after a rollback hands out fresh node IDs.
type editStep struct {
	kind editKind
	at   int // target, or anchor
	pos  Position
	data string
}

func (s editStep) String() string {
	return fmt.Sprintf("%s at #%d pos %d %q", [...]string{"update", "insert", "delete"}[s.kind], s.at, s.pos, s.data)
}

func (e *editDiff) draw() editStep {
	ms, _ := e.nodes()
	pick := func(ok func(i int, n *dom.Node) bool) int {
		var cand []int
		for i, n := range ms {
			if ok(i, n) {
				cand = append(cand, i)
			}
		}
		if len(cand) == 0 {
			return -1
		}
		return cand[e.rng.Intn(len(cand))]
	}
	e.seq++
	for {
		switch p := e.rng.Float64(); {
		case p < 0.25:
			at := pick(func(_ int, n *dom.Node) bool { return n.Kind == xml.Text || n.Kind == xml.Attribute })
			if at < 0 {
				continue
			}
			v := fmt.Sprintf("u%d", e.seq)
			if name, _ := e.db.cat.Lookup(ms[at].Parent.Name.Local); ms[at].Kind == xml.Text && name == "price" {
				if v = fmt.Sprint(e.rng.Intn(500)); e.rng.Intn(8) == 0 {
					v = "n/a" // leaves the double index
				}
			}
			return editStep{kind: editUpdateText, at: at, data: v}
		case p < 0.60:
			frag := editItem(100+e.seq, fmt.Sprint(e.rng.Intn(500)))
			if e.rng.Intn(3) == 0 {
				frag = fmt.Sprintf("<name>x%d</name>", e.seq)
			}
			pos := Position(e.rng.Intn(3))
			at := pick(func(i int, n *dom.Node) bool {
				if pos == AsLastChild {
					return n.Kind == xml.Element
				}
				return i > 0 && (n.Kind == xml.Element || n.Kind == xml.Text)
			})
			if at < 0 {
				continue
			}
			return editStep{kind: editInsert, at: at, pos: pos, data: frag}
		default:
			// Half the deletes take a whole /r child, which is what empties
			// runs; the rest take any node, leaves included.
			top := e.rng.Intn(2) == 0
			at := pick(func(i int, n *dom.Node) bool {
				return i > 0 && (!top || n.Kind == xml.Element && n.Parent == ms[0])
			})
			if at < 0 {
				continue
			}
			return editStep{kind: editDelete, at: at}
		}
	}
}

// run applies a step to the stored document inside tx, or in a transaction
// of its own (RunTxn) when tx is nil.
func (e *editDiff) run(tx *Txn, s editStep) error {
	if tx == nil {
		return e.db.RunTxn(func(tx *Txn) error { return e.run(tx, s) })
	}
	_, ids := e.nodes()
	id := ids[s.at]
	var err error
	switch s.kind {
	case editUpdateText:
		err = tx.UpdateText(e.col, e.doc, id, []byte(s.data))
	case editInsert:
		_, err = tx.InsertFragment(e.col, e.doc, id, s.pos, []byte(s.data))
	default:
		err = tx.DeleteSubtree(e.col, e.doc, id)
	}
	return err
}

// apply applies a step to the model.
func (e *editDiff) apply(s editStep) {
	n := e.modelNodes()[s.at]
	without := func(list []*dom.Node) []*dom.Node {
		for i, x := range list {
			if x == n {
				return append(list[:i:i], list[i+1:]...)
			}
		}
		e.t.Fatalf("model node #%d not under its parent", s.at)
		return nil
	}
	switch s.kind {
	case editUpdateText:
		n.Value = []byte(s.data)
	case editDelete:
		if n.Kind == xml.Attribute {
			n.Parent.Attrs = without(n.Parent.Attrs)
		} else {
			n.Parent.Kids = without(n.Parent.Kids)
		}
	case editInsert:
		sub := e.parse(s.data).Kids[0]
		if s.pos == AsLastChild {
			sub.Parent = n
			n.Kids = append(n.Kids, sub)
			return
		}
		sub.Parent = n.Parent
		kids := n.Parent.Kids
		for i, x := range kids {
			if x == n {
				if s.pos == AfterNode {
					i++
				}
				n.Parent.Kids = append(kids[:i:i], append([]*dom.Node{sub}, kids[i:]...)...)
				return
			}
		}
		e.t.Fatalf("model anchor #%d not under its parent", s.at)
	}
}

func indexValues(t *testing.T, col *Collection, name string, doc xml.DocID) []string {
	t.Helper()
	var out []string
	for _, ov := range col.indexSnapshot() {
		if ov.meta.Name != name {
			continue
		}
		err := ov.ix.Scan(valueindex.Range{}, func(en valueindex.Entry) bool {
			if en.Doc == doc {
				out = append(out, string(en.EncodedValue))
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// check holds the stored document to the model after a step.
func (e *editDiff) check(label string) {
	t := e.t
	t.Helper()
	want := e.modelText()
	if got := serializeStr(t, e.col, e.doc); got != want {
		t.Fatalf("%s: stored document\n %s\nmodel\n %s", label, got, want)
	}
	if err := e.col.CheckConsistency(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	// Every index holds what a fresh load of the same text derives.
	fid := mustInsert(t, e.fresh, []byte(want))
	for _, ix := range editIndexes {
		got, ref := indexValues(t, e.col, ix.name, e.doc), indexValues(t, e.fresh, ix.name, fid)
		if fmt.Sprintf("%x", got) != fmt.Sprintf("%x", ref) {
			t.Fatalf("%s: index %s holds %d entries %x, a fresh load %d entries %x", label, ix.name, len(got), got, len(ref), ref)
		}
	}
	if err := e.fresh.db.RunTxn(func(tx *Txn) error { return tx.Delete(e.fresh, fid) }); err != nil {
		t.Fatal(err)
	}
	// Index-served and scan-served answers agree.
	for _, q := range []string{
		fmt.Sprintf(`/r/item[price > %d]`, e.rng.Intn(500)),
		fmt.Sprintf(`//sub[name = 's%d']`, 1+e.rng.Intn(12)),
		fmt.Sprintf(`/r/item[@k = 'k%d']/name`, 1+e.rng.Intn(12)),
	} {
		scan, _, err := e.col.QueryOpts(q, QueryOptions{ForceMethod: "scan", Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %s by scan: %v", label, q, err)
		}
		got, plan, err := e.col.QueryOpts(q, QueryOptions{})
		if err != nil {
			t.Fatalf("%s: %s: %v", label, q, err)
		}
		if len(got) != len(scan) {
			t.Fatalf("%s: %s: %d results via %s, %d by scan", label, q, len(got), plan.Method, len(scan))
		}
		for i := range got {
			if !nodeid.Equal(got[i].Node, scan[i].Node) {
				t.Fatalf("%s: %s: result %d is %s via %s, %s by scan", label, q, i, got[i].Node, plan.Method, scan[i].Node)
			}
		}
	}
}

func TestEditDifferential(t *testing.T) {
	seeds, steps := 12, 40
	if testing.Short() {
		seeds = 4
	}
	for _, versioned := range []bool{false, true} {
		for _, entry := range []string{"runtxn", "commit", "rollback"} {
			name := fmt.Sprintf("plain/%s", entry)
			if versioned {
				name = fmt.Sprintf("versioned/%s", entry)
			}
			t.Run(name, func(t *testing.T) {
				// Unlogged: the reloads are the oracle's work, not the subject's.
				fresh := editCollection(t, newDB(t), "fresh", false)
				for seed := 1; seed <= seeds; seed++ {
					db, _, _ := newLoggedDB(t)
					e := &editDiff{t: t, rng: rand.New(rand.NewSource(int64(seed))), db: db, fresh: fresh}
					e.col = editCollection(t, db, "c", versioned)
					e.doc = mustInsert(t, e.col, []byte(editDoc()))
					e.model = e.parse(editDoc())
					e.check(fmt.Sprintf("seed %d load", seed))
					for i := 0; i < steps; i++ {
						s := e.draw()
						label := fmt.Sprintf("seed %d step %d (%s)", seed, i, s)
						if entry == "rollback" {
							tx := db.Begin()
							if err := e.run(tx, s); err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if err := tx.Rollback(); err != nil {
								t.Fatalf("%s: rollback: %v", label, err)
							}
							e.check(label + " rolled back")
						}
						var tx *Txn
						if entry != "runtxn" {
							tx = db.Begin()
						}
						if err := e.run(tx, s); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if tx != nil {
							if err := tx.Commit(); err != nil {
								t.Fatalf("%s: commit: %v", label, err)
							}
						}
						e.apply(s)
						e.check(label)
					}
				}
			})
		}
	}
}
