package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"rx/internal/dom"
	"rx/internal/xml"
	"rx/internal/xmlparse"
	"rx/internal/xpath"
	"rx/internal/xpathdom"
)

// TestQueryOracleAfterChurn is the engine's capstone property test: after a
// random workload of inserts, updates, fragment insertions, subtree
// deletions and document deletions, every query — whatever access method
// the planner picks — must return exactly what a DOM oracle computes over
// the serialized state of every document.
func TestQueryOracleAfterChurn(t *testing.T) {
	queries := []string{
		`/order/items/item[qty = 5]`,
		`/order/items/item[qty > 6]/sku`,
		`//item[qty >= 3 and qty <= 4]`,
		`//sku`,
		`/order/items/item[sku = 'SNEW']`,
		`//item[not(qty)]`,
	}
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := newDB(t)
		col, _ := db.CreateCollection("c", CollectionOptions{PackThreshold: 300 + rng.Intn(2000)})
		col.CreateValueIndex("ix_qty", "//qty", xml.TDouble)
		col.CreateValueIndex("ix_sku", "/order/items/item/sku", xml.TString)

		live := map[xml.DocID]bool{}
		var ids []xml.DocID
		newDoc := func() {
			var sb bytes.Buffer
			sb.WriteString("<order><items>")
			for i := 0; i < 5+rng.Intn(30); i++ {
				fmt.Fprintf(&sb, `<item><sku>S%03d</sku><qty>%d</qty></item>`, rng.Intn(200), rng.Intn(9))
			}
			sb.WriteString("</items></order>")
			id := mustInsert(t, col, sb.Bytes())
			live[id] = true
			ids = append(ids, id)
		}
		for i := 0; i < 8; i++ {
			newDoc()
		}
		pickLive := func() (xml.DocID, bool) {
			perm := rng.Perm(len(ids))
			for _, i := range perm {
				if live[ids[i]] {
					return ids[i], true
				}
			}
			return 0, false
		}

		for op := 0; op < 60; op++ {
			switch rng.Intn(5) {
			case 0:
				newDoc()
			case 1: // update a qty text
				if id, ok := pickLive(); ok {
					res, _, _ := col.QueryOpts("//qty/text()", QueryOptions{})
					for _, r := range res {
						if r.Doc == id {
							if err := db.RunTxn(func(tx *Txn) error { return tx.UpdateText(col, id, r.Node, []byte(fmt.Sprint(rng.Intn(9)))) }); err != nil {
								t.Fatal(err)
							}
							break
						}
					}
				}
			case 2: // insert a fragment
				if id, ok := pickLive(); ok {
					root, _, _ := col.QueryOpts("/order/items", QueryOptions{})
					for _, r := range root {
						if r.Doc == id {
							frag := []byte(fmt.Sprintf(`<item><sku>SNEW</sku><qty>%d</qty></item>`, rng.Intn(9)))
							err := db.RunTxn(func(tx *Txn) error { _, err := tx.InsertFragment(col, id, r.Node, AsLastChild, frag); return err })
							if err != nil {
								t.Fatal(err)
							}
							break
						}
					}
				}
			case 3: // delete a subtree
				if id, ok := pickLive(); ok {
					res, _, _ := col.QueryOpts("//item", QueryOptions{})
					for _, r := range res {
						if r.Doc == id {
							if err := db.RunTxn(func(tx *Txn) error { return tx.DeleteSubtree(col, id, r.Node) }); err != nil {
								t.Fatal(err)
							}
							break
						}
					}
				}
			case 4: // delete a whole document (keep at least 2)
				if len(liveCount(live)) > 2 {
					if id, ok := pickLive(); ok {
						if err := db.RunTxn(func(tx *Txn) error { return tx.Delete(col, id) }); err != nil {
							t.Fatal(err)
						}
						live[id] = false
					}
				}
			}
		}

		if err := col.CheckConsistency(); err != nil {
			t.Fatalf("seed %d: consistency: %v", seed, err)
		}

		// Oracle comparison per query.
		dict := db.Catalog()
		for _, qs := range queries {
			got, plan, err := col.QueryOpts(qs, QueryOptions{})
			if err != nil {
				t.Fatalf("seed %d %q: %v", seed, qs, err)
			}
			var want []Result
			for _, id := range ids {
				if !live[id] {
					continue
				}
				var buf bytes.Buffer
				if err := col.Serialize(id, &buf); err != nil {
					t.Fatal(err)
				}
				stream, err := xmlparse.Parse(buf.Bytes(), dict, xmlparse.Options{})
				if err != nil {
					t.Fatal(err)
				}
				tree, err := dom.Build(stream)
				if err != nil {
					t.Fatal(err)
				}
				q, _ := xpath.Parse(qs)
				ce, err := xpathdom.Compile(q, dict, nil)
				if err != nil {
					t.Fatal(err)
				}
				for range ce.Evaluate(tree) {
					want = append(want, Result{Doc: id})
				}
			}
			// Node IDs differ between the stored document and a re-parse
			// (updates assign Between-IDs), so compare counts per document.
			gotPerDoc := map[xml.DocID]int{}
			for _, r := range got {
				gotPerDoc[r.Doc]++
			}
			wantPerDoc := map[xml.DocID]int{}
			for _, r := range want {
				wantPerDoc[r.Doc]++
			}
			if len(gotPerDoc) != len(wantPerDoc) {
				t.Fatalf("seed %d %q (plan %s): docs %v vs oracle %v", seed, qs, plan.Method, gotPerDoc, wantPerDoc)
			}
			for d, n := range wantPerDoc {
				if gotPerDoc[d] != n {
					t.Fatalf("seed %d %q (plan %s): doc %d has %d results, oracle %d",
						seed, qs, plan.Method, d, gotPerDoc[d], n)
				}
			}
		}
	}
}

func liveCount(m map[xml.DocID]bool) []xml.DocID {
	var out []xml.DocID
	for id, ok := range m {
		if ok {
			out = append(out, id)
		}
	}
	return out
}
