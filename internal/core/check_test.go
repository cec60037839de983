package core

import (
	"fmt"
	"strings"
	"testing"

	"rx/internal/xml"
)

// TestConsistencyAfterChurn runs the CHECK-INDEX-style verifier after a
// workload of inserts, updates, fragment insertions, subtree deletions and
// document deletions.
func TestConsistencyAfterChurn(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("churn", CollectionOptions{PackThreshold: 500})
	col.CreateValueIndex("ix_qty", "//qty", xml.TDouble)
	col.CreateValueIndex("ix_sku", "//sku", xml.TString)

	var ids []xml.DocID
	for d := 0; d < 12; d++ {
		var sb strings.Builder
		sb.WriteString("<order><items>")
		for i := 0; i < 40; i++ {
			fmt.Fprintf(&sb, `<item><sku>S%03d</sku><qty>%d</qty><pad>%030d</pad></item>`, i, i%9, i)
		}
		sb.WriteString("</items></order>")
		id := mustInsert(t, col, []byte(sb.String()))
		ids = append(ids, id)
	}
	if err := col.CheckConsistency(); err != nil {
		t.Fatalf("after load: %v", err)
	}

	// Updates on several docs.
	for _, id := range ids[:4] {
		res, _, _ := col.QueryOpts(`//item[sku = 'S005']/qty/text()`, QueryOptions{})
		for _, r := range res {
			if r.Doc == id {
				if err := db.RunTxn(func(tx *Txn) error { return tx.UpdateText(col, id, r.Node, []byte("99")) }); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Subtree deletions.
	for _, id := range ids[4:6] {
		res, _, _ := col.QueryOpts(`//item[sku = 'S010']`, QueryOptions{})
		for _, r := range res {
			if r.Doc == id {
				if err := db.RunTxn(func(tx *Txn) error { return tx.DeleteSubtree(col, id, r.Node) }); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Fragment insertions.
	for _, id := range ids[6:8] {
		root, _, _ := col.QueryOpts("/order/items", QueryOptions{})
		for _, r := range root {
			if r.Doc == id {
				err := db.RunTxn(func(tx *Txn) error {
					_, err := tx.InsertFragment(col, id, r.Node, AsLastChild, []byte(`<item><sku>SNEW</sku><qty>7</qty></item>`))
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Document deletions.
	for _, id := range ids[8:10] {
		if err := db.RunTxn(func(tx *Txn) error { return tx.Delete(col, id) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := col.CheckConsistency(); err != nil {
		t.Fatalf("after churn: %v", err)
	}
}

// TestConsistencyVersioned checks the versioned invariants after updates
// and vacuum.
func TestConsistencyVersioned(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("v", CollectionOptions{Versioned: true, PackThreshold: 400})
	col.CreateValueIndex("ix", "//v", xml.TDouble)
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&sb, "<e><v>%d</v><pad>%030d</pad></e>", i, i)
	}
	sb.WriteString("</r>")
	id := mustInsert(t, col, []byte(sb.String()))
	for round := 0; round < 4; round++ {
		res, _, _ := col.QueryOpts(`//e[v = 25]/v/text()`, QueryOptions{})
		if len(res) == 0 {
			res, _, _ = col.QueryOpts(`//e[v = 2525]/v/text()`, QueryOptions{})
		}
		if err := db.RunTxn(func(tx *Txn) error { return tx.UpdateText(col, id, res[0].Node, []byte("2525")) }); err != nil {
			t.Fatal(err)
		}
		if err := col.CheckConsistency(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	cur, _ := col.SnapshotVersion(id)
	if err := col.Vacuum(id, cur); err != nil {
		t.Fatal(err)
	}
	if err := col.CheckConsistency(); err != nil {
		t.Fatalf("after vacuum: %v", err)
	}
}
