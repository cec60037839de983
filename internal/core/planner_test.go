package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"rx/internal/heap"
	"rx/internal/pagestore"
	"rx/internal/wal"
	"rx/internal/xml"
)

func plannerDB(t *testing.T) *Collection {
	t.Helper()
	db := newDB(t)
	col, _ := db.CreateCollection("emp", CollectionOptions{})
	for i := 0; i < 30; i++ {
		doc := fmt.Sprintf(
			`<emp><name>Emp %02d</name><hire>%d-0%d-15</hire><salary>%d.50</salary></emp>`,
			i, 1990+i, i%9+1, 30000+i*1000)
		mustInsert(t, col, []byte(doc))
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(col.CreateValueIndex("ix_name", "/emp/name", xml.TString))
	must(col.CreateValueIndex("ix_hire", "/emp/hire", xml.TDate))
	must(col.CreateValueIndex("ix_salary", "/emp/salary", xml.TDecimal))
	return col
}

func TestPlannerStringIndex(t *testing.T) {
	col := plannerDB(t)
	res, plan, err := col.QueryOpts(`/emp[name = 'Emp 07']`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != "nodeid-list" || len(plan.Indexes) != 1 || plan.Indexes[0] != "ix_name" {
		t.Errorf("plan = %+v", plan)
	}
	if len(res) != 1 {
		t.Errorf("results = %d", len(res))
	}
	// Range over strings.
	res, plan, _ = col.QueryOpts(`/emp[name < 'Emp 03']`, QueryOptions{})
	if plan.Method == "scan" {
		t.Errorf("string range should use the index: %+v", plan)
	}
	if len(res) != 3 {
		t.Errorf("results = %d", len(res))
	}
}

func TestPlannerDateIndex(t *testing.T) {
	col := plannerDB(t)
	res, plan, err := col.QueryOpts(`/emp[hire >= '2015-01-01']`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != "nodeid-list" || plan.Indexes[0] != "ix_hire" {
		t.Errorf("plan = %+v", plan)
	}
	if len(res) != 5 { // 2015..2019
		t.Errorf("results = %d", len(res))
	}
	// A string literal that is not a date cannot use the date index.
	_, plan2, err := col.QueryOpts(`/emp[hire = 'not-a-date']`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Method != "scan" {
		t.Errorf("non-date literal should fall back to scan, got %s", plan2.Method)
	}
}

func TestPlannerDecimalIndex(t *testing.T) {
	col := plannerDB(t)
	res, plan, err := col.QueryOpts(`/emp[salary >= 55000]`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != "nodeid-list" || plan.Indexes[0] != "ix_salary" {
		t.Errorf("plan = %+v", plan)
	}
	scan, _, _ := col.QueryOpts(`//emp[salary >= 55000]`, QueryOptions{})
	if len(res) != len(scan) {
		t.Errorf("decimal index results %d vs scan %d", len(res), len(scan))
	}
}

func TestPlannerNERejected(t *testing.T) {
	col := plannerDB(t)
	_, plan, err := col.QueryOpts(`/emp[name != 'Emp 07']`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != "scan" {
		t.Errorf("!= has no index range; plan = %s", plan.Method)
	}
}

func TestPlannerExistencePredicateForcesReeval(t *testing.T) {
	col := plannerDB(t)
	// [name] existence is not indexable (unparsable values would be missed);
	// with an extra indexed conjunct the plan may narrow docs but must not
	// claim exactness.
	res, plan, err := col.QueryOpts(`/emp[salary >= 55000 and name]`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Exact {
		t.Errorf("existence conjunct must force re-evaluation: %+v", plan)
	}
	scan, _, _ := col.QueryOpts(`//emp[salary >= 55000 and name]`, QueryOptions{})
	if len(res) != len(scan) {
		t.Errorf("results %d vs scan %d", len(res), len(scan))
	}
}

func TestPlannerDescendantSpineNotExact(t *testing.T) {
	col := plannerDB(t)
	// A descendant spine cannot use node-level prefixes; it must still get
	// the right answer through doc-level filtering.
	res, plan, err := col.QueryOpts(`//emp[name = 'Emp 07']`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Exact {
		t.Errorf("descendant spine must not be exact: %+v", plan)
	}
	if len(res) != 1 {
		t.Errorf("results = %d", len(res))
	}
}

// TestMalformedIndexEntryFailsCursor: a value-index entry too short to hold
// its DocID fails every index method whose range scan reaches it, instead of
// ending the scan early and answering with the candidates before it.
func TestMalformedIndexEntryFailsCursor(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	for i := 0; i < 10; i++ {
		mustInsert(t, col, []byte(fmt.Sprintf(`<r><v>%d</v></r>`, i)))
	}
	if err := col.CreateValueIndex("ix", "/r/v", xml.TDouble); err != nil {
		t.Fatal(err)
	}
	ix := col.ValueIndex("ix")
	enc, err := ix.EncodeValue([]byte("5"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Tree().Put(append(enc, 0, 0, 0), heap.RID{}.Bytes()); err != nil {
		t.Fatal(err)
	}
	const q = `/r[v >= 3]`
	p, err := col.Plan(q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, alt := range p.Alternatives {
		if alt.Method == "scan" {
			continue
		}
		if rs, _, err := col.QueryOpts(q, QueryOptions{ForceMethod: alt.Method}); err == nil {
			t.Fatalf("%s over a malformed entry: %d results and no error", alt.Method, len(rs))
		}
	}
}

// TestSingleValuedLifecycle follows an index's SingleValued flag, which lets
// the planner merge a window's two conjuncts into one range: set by
// CreateValueIndex over documents with one <Total> each; cleared by the first
// write that gives a document a second one — Txn.InsertBatch of a
// two-<Total> document, Txn.InsertFragment of a second <Total> — before that
// write's index entries, and still cleared when its transaction rolls back;
// cleared after recovery from a crash copy and after a reopen. The very next
// plan after the clear, made while the clearing write is still in flight,
// is *-anding, and the existential document (totals 1 and 10, none inside
// the window) comes back from every access method.
func TestSingleValuedLifecycle(t *testing.T) {
	const window = `/Order[Total >= 5 and Total < 8]`
	for _, tc := range []struct {
		name             string
		fragment, commit bool
	}{
		{"batch/commit", false, true},
		{"batch/rollback", false, false},
		{"fragment/commit", true, true},
		{"fragment/rollback", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, dev := pagestore.NewMemStore(), &wal.MemDevice{}
			log, err := wal.Open(dev)
			if err != nil {
				t.Fatal(err)
			}
			db, err := Open(store, Options{WAL: log})
			if err != nil {
				t.Fatal(err)
			}
			col, _ := db.CreateCollection("c", CollectionOptions{})
			var docs [][]byte
			for i := 0; i < 20; i++ {
				docs = append(docs, []byte(fmt.Sprintf(`<Order><Total>%d</Total></Order>`, i)))
			}
			ids, err := txnInsertBatch(col, docs)
			if err != nil {
				t.Fatal(err)
			}
			if err := col.CreateValueIndex("by_total", "/Order/Total", xml.TDouble); err != nil {
				t.Fatal(err)
			}
			flagged := func(c *Collection) bool { return c.indexSnapshot()[0].single.Load() }
			if !flagged(col) {
				t.Fatal("CreateValueIndex over single-valued documents left the flag unset")
			}
			if p, err := col.Plan(window, QueryOptions{}); err != nil || len(p.Indexes) != 1 {
				t.Fatalf("flagged window plans %+v (%v), want one merged range", p, err)
			}

			// A planner keeps reading the flag, without writeMu, while the
			// write below clears it.
			done, planned := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(planned)
				for {
					select {
					case <-done:
						return
					default:
					}
					if _, err := col.Plan(window, QueryOptions{}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			var once sync.Once
			stop := func() { once.Do(func() { close(done) }); <-planned }
			defer stop()
			tx := db.Begin()
			existential := ids[1] // Total 1, given a second Total of 10
			if tc.fragment {
				rs, _, err := col.QueryOpts(`/Order[Total = 1]`, QueryOptions{})
				if err != nil || len(rs) != 1 {
					t.Fatalf("locating the order: %v, %v", rs, err)
				}
				_, err = tx.InsertFragment(col, existential, rs[0].Node, AsLastChild, []byte(`<Total>10</Total>`))
				if err != nil {
					t.Fatal(err)
				}
			} else {
				got, err := tx.InsertBatch(col, [][]byte{[]byte(`<Order><Total>1</Total><Total>10</Total></Order>`)}, BatchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				existential = got[0]
			}
			stop()
			if flagged(col) {
				t.Fatal("a second <Total> left the flag set")
			}
			// The next plan no longer merges, and inside the writing
			// transaction its rows are the scan's, the existential
			// document among them.
			if p, err := col.Plan(window, QueryOptions{}); err != nil || !strings.HasSuffix(p.Method, "-anding") {
				t.Fatalf("after the clear: window plans %+v (%v), want *-anding", p, err)
			}
			inTxn := func(opts QueryOptions) (docs []xml.DocID) {
				t.Helper()
				cur, err := tx.Cursor(col, window, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer cur.Close()
				for cur.Next() {
					docs = append(docs, cur.Result().Doc)
				}
				if err := cur.Err(); err != nil {
					t.Fatal(err)
				}
				return docs
			}
			costed, scanned := inTxn(QueryOptions{}), inTxn(QueryOptions{ForceMethod: "scan"})
			if !slices.Equal(costed, scanned) || !slices.Contains(costed, existential) {
				t.Fatalf("after the clear, in the writing transaction: costed plan %v, scan %v, want both with %d", costed, scanned, existential)
			}
			if tc.commit {
				err = tx.Commit()
			} else {
				err = tx.Rollback()
			}
			if err != nil {
				t.Fatal(err)
			}

			// check holds the flag cleared and the window unmerged, and every
			// method's answer equal to the scan's, which holds the existential
			// document exactly when the write committed.
			check := func(label string, c *Collection) {
				t.Helper()
				if flagged(c) {
					t.Fatalf("%s: flag set again", label)
				}
				if err := c.CheckConsistency(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				p, err := c.Plan(window, QueryOptions{})
				if err != nil || !strings.HasSuffix(p.Method, "-anding") {
					t.Fatalf("%s: window plans %+v (%v), want *-anding", label, p, err)
				}
				plannerDifferentialQuery(t, c, window)
				rs, _, err := c.QueryOpts(window, QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				found := slices.ContainsFunc(rs, func(r Result) bool { return r.Doc == existential })
				if found != tc.commit {
					t.Fatalf("%s: existential document in the answer = %v, want %v", label, found, tc.commit)
				}
			}
			check("after "+tc.name, col)

			// A crash copy: the store's pages and the log as a power loss now
			// would leave them, recovered on their own.
			if err := log.FlushAll(); err != nil {
				t.Fatal(err)
			}
			crashStore, crashDev := pagestore.NewMemStore(), &wal.MemDevice{}
			page := make([]byte, pagestore.PageSize)
			for id := pagestore.PageID(0); id < store.NumPages(); id++ {
				if _, err := crashStore.Allocate(); err != nil {
					t.Fatal(err)
				}
				if err := store.ReadPage(id, page); err != nil {
					t.Fatal(err)
				}
				if err := crashStore.WritePage(id, page); err != nil {
					t.Fatal(err)
				}
			}
			size, _ := dev.Size()
			logBytes := make([]byte, size)
			if _, err := dev.ReadAt(logBytes, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := crashDev.WriteAt(logBytes, 0); err != nil {
				t.Fatal(err)
			}
			crashLog, err := wal.Open(crashDev)
			if err != nil {
				t.Fatal(err)
			}
			recovered, err := Recover(crashStore, crashLog, Options{})
			if err != nil {
				t.Fatal(err)
			}
			rc, err := recovered.Collection("c")
			if err != nil {
				t.Fatal(err)
			}
			check("after crash-copy recovery", rc)

			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := Open(store, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			oc, err := reopened.Collection("c")
			if err != nil {
				t.Fatal(err)
			}
			check("after reopen", oc)
		})
	}
}

// TestKeyListSort checks the candidate sort against a comparison sort on
// keys whose DocIDs span several radix passes and whose documents hold
// several node keys each.
func TestKeyListSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, maxDoc := range []int64{200, 70000, 1 << 40} {
		l := &keyList{}
		var keys []candidate
		for i := 0; i < 3000; i++ {
			lo := len(l.ids)
			for d := rng.Intn(3); d > 0; d-- {
				l.ids = append(l.ids, byte(2+2*rng.Intn(3)))
			}
			// Each key's RID names its position, so the sort must carry it.
			keys = append(keys, candidate{doc: xml.DocID(rng.Int63n(maxDoc)), lo: uint32(lo), hi: uint32(len(l.ids)),
				rid: heap.RID{Page: pagestore.PageID(i)}})
		}
		orig := slices.Clone(keys)
		want := slices.Clone(keys)
		slices.SortStableFunc(want, l.compare)
		got := l.sort(keys)
		for i := range want {
			if l.compare(got[i], want[i]) != 0 {
				t.Fatalf("max doc %d: key %d = (%d, %s), want (%d, %s)", maxDoc, i,
					got[i].doc, l.node(got[i]), want[i].doc, l.node(want[i]))
			}
			if from := orig[got[i].rid.Page]; from != got[i] {
				t.Fatalf("max doc %d: key %d lost its RID: %+v, RID of %+v", maxDoc, i, got[i], from)
			}
		}
	}
}

// TestOrderItemPlanWithoutRefresh is the read-back shape of an order-entry
// load that never refreshes statistics: many distinct Price values, nine Qty
// values, both indexes created before the load. The estimate of each
// conjunct is a dive into its index, so Qty = y is known to match about a
// ninth of the items and the plan probes Price alone, instead of walking
// every Qty = y entry to intersect them.
func TestOrderItemPlanWithoutRefresh(t *testing.T) {
	db := newDB(t)
	col, err := db.CreateCollection("orders", CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range [][2]string{{"by_price", "/Order/Items/Item/Price"}, {"by_qty", "/Order/Items/Item/Qty"}} {
		if err := col.CreateValueIndex(ix[0], ix[1], xml.TDouble); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	var docs [][]byte
	var queries []string
	for i := 0; i < 1200; i++ {
		var b strings.Builder
		fmt.Fprintf(&b, `<Order id="%d"><Customer>C%03d</Customer><Items>`, i, rng.Intn(500))
		for line := 1; line <= 8+(i*7)%9; line++ {
			price, qty := 500+rng.Intn(9500), 1+rng.Intn(9)
			fmt.Fprintf(&b, `<Item line="%d"><Part>P%05d</Part><Qty>%d</Qty><Price>%d.%02d</Price></Item>`,
				line, rng.Intn(100000), qty, price/100, price%100)
			if i%97 == 0 && line == 1 {
				queries = append(queries, fmt.Sprintf(`/Order/Items/Item[Price = %d.%02d and Qty = %d]/Part`, price/100, price%100, qty))
			}
		}
		b.WriteString(`</Items></Order>`)
		docs = append(docs, []byte(b.String()))
	}
	for off := 0; off < len(docs); off += 256 {
		if _, err := txnInsertBatch(col, docs[off:min(off+256, len(docs))]); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range queries {
		res, p, err := col.QueryOpts(q, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if p.Method != "docid-list" || !slices.Equal(p.Indexes, []string{"by_price"}) {
			t.Fatalf("%s: plan %s %v (alternatives %+v), want docid-list [by_price]", q, p.Method, p.Indexes, p.Alternatives)
		}
		want, _, err := col.QueryOpts(q, QueryOptions{ForceMethod: "scan"})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 || len(res) != len(want) {
			t.Fatalf("%s: %d results, scan %d", q, len(res), len(want))
		}
	}
}
