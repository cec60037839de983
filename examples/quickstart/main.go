// Quickstart: open a database, store XML documents, index them, query with
// XPath, and serialize results.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"rx"
)

func main() {
	db, err := rx.Open("")
	if err != nil {
		log.Fatal(err)
	}
	col, err := db.CreateCollection("books", rx.CollectionOptions{})
	if err != nil {
		log.Fatal(err)
	}

	docs := []string{
		`<book year="1999"><title>Data on the Web</title><price>39.95</price></book>`,
		`<book year="2000"><title>XML Handbook</title><price>55.00</price></book>`,
		`<book year="2005"><title>Native XML Databases</title><price>25.50</price></book>`,
	}
	// Every document write is a transaction: a session write outside an
	// explicit Begin commits on its own.
	ctx := context.Background()
	for _, d := range docs {
		if _, err := db.Session().Insert(ctx, "books", []byte(d)); err != nil {
			log.Fatal(err)
		}
	}

	// An XPath value index on price (a "simple XPath expression without
	// predicates, and a data type for the key values", §3.3).
	if err := col.CreateValueIndex("by_price", "/book/price", rx.TypeDouble); err != nil {
		log.Fatal(err)
	}

	// Query through the session API: context-first, streamed through a
	// cursor; the planner picks the exact-match NodeID-list access method.
	// The same code runs against a remote rxserver via client.Dial.
	cur, err := db.Session().Query(ctx,
		"books", "/book[price < 40]/title", rx.WithValues())
	if err != nil {
		log.Fatal(err)
	}
	var results []rx.Result
	for cur.Next() {
		results = append(results, cur.Result())
	}
	if err := cur.Err(); err != nil {
		log.Fatal(err)
	}
	cur.Close()
	fmt.Printf("query /book[price < 40]/title → %d matches (access method: %s)\n",
		len(results), cur.Plan().Method)
	for _, r := range results {
		fmt.Printf("  doc %d node %s: %s\n", r.Doc, r.Node, r.Value)
	}

	// Serialize a whole stored document back to XML.
	fmt.Print("document 1: ")
	if err := col.Serialize(1, os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	// Subdocument update: change a price in place (no LOB rewrite).
	tRes, _, err := col.QueryOpts("/book[@year = 1999]/price/text()", rx.QueryOptions{})
	if err != nil || len(tRes) != 1 {
		log.Fatalf("price text: %v %v", tRes, err)
	}
	err = db.RunTxn(func(t *rx.Txn) error { return t.UpdateText(col, tRes[0].Doc, tRes[0].Node, []byte("19.99")) })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("after price update: ")
	col.Serialize(tRes[0].Doc, os.Stdout)
	fmt.Println()

	// The index followed the update.
	hits, plan, _ := col.QueryOpts("/book[price < 20]", rx.QueryOptions{})
	fmt.Printf("query /book[price < 20] → %d match via %s\n", len(hits), plan.Method)
}
