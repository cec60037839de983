// Catalog: the paper's Table-2 workload end to end. A product catalog
// collection gets the two value indexes of Table 2 — one exact path, one
// containment path — and the three §4.3 access methods are demonstrated:
// (1) DocID/NodeID list, (2) filtering with re-evaluation, (3) ANDing/ORing.
// It also shows schema registration and validated inserts (Figure 4).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"rx"
)

const catalogXSD = `
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="Catalog">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="Categories">
          <xs:complexType>
            <xs:sequence>
              <xs:element ref="Product" minOccurs="0" maxOccurs="unbounded"/>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
  <xs:element name="Product">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="ProductName" type="xs:string"/>
        <xs:element name="RegPrice" type="xs:double"/>
        <xs:element name="Discount" type="xs:double" minOccurs="0"/>
      </xs:sequence>
      <xs:attribute name="pid" type="xs:integer" use="required"/>
    </xs:complexType>
  </xs:element>
</xs:schema>`

func main() {
	db, err := rx.Open("")
	if err != nil {
		log.Fatal(err)
	}
	// Register the schema: compiled to a binary parsing table in the
	// catalog (Figure 4).
	if err := db.RegisterSchema("catalog", []byte(catalogXSD)); err != nil {
		log.Fatal(err)
	}
	col, err := db.CreateCollection("catalog", rx.CollectionOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Load validated catalogs, one transaction each.
	validated := rx.BatchOptions{Schema: "catalog"}
	rng := rand.New(rand.NewSource(7))
	for d := 0; d < 200; d++ {
		doc := genCatalog(rng, 5)
		err := db.RunTxn(func(t *rx.Txn) error { _, err := t.InsertBatch(col, [][]byte{doc}, validated); return err })
		if err != nil {
			log.Fatalf("doc %d: %v", d, err)
		}
	}
	n, _ := col.Count()
	fmt.Printf("loaded %d validated catalog documents\n", n)

	// A document that violates the schema is rejected.
	invalid := []byte(`<Catalog><Categories><Product pid="1"><RegPrice>5</RegPrice></Product></Categories></Catalog>`)
	err = db.RunTxn(func(t *rx.Txn) error { _, err := t.InsertBatch(col, [][]byte{invalid}, validated); return err })
	if err != nil {
		fmt.Printf("invalid document rejected: %v\n", err)
	}

	// Table 2's indexes.
	must(col.CreateValueIndex("ix_regprice", "/Catalog/Categories/Product/RegPrice", rx.TypeDouble))
	must(col.CreateValueIndex("ix_discount", "//Discount", rx.TypeDouble))

	queries := []string{
		`/Catalog/Categories/Product[RegPrice > 100]`,                    // exact → NodeID list
		`/Catalog/Categories/Product[Discount > 0.1]`,                    // containment → filtering
		`/Catalog/Categories/Product[RegPrice > 100 and Discount > 0.1]`, // ANDing
		`/Catalog/Categories/Product[RegPrice > 180 or Discount > 0.2]`,  // ORing
		`//Product[ProductName = 'no such product']`,                     // scan fallback
	}
	for _, q := range queries {
		results, plan, err := col.QueryOpts(q, rx.QueryOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-66s → %4d results | method=%-13s exact=%-5v indexes=%v candidates=%d\n",
			q, len(results), plan.Method, plan.Exact, plan.Indexes, plan.CandidateDocs)
	}
}

func genCatalog(rng *rand.Rand, products int) []byte {
	out := []byte(`<Catalog><Categories>`)
	for i := 0; i < products; i++ {
		out = append(out, fmt.Sprintf(
			`<Product pid="%d"><ProductName>Item %d</ProductName><RegPrice>%.2f</RegPrice><Discount>%.2f</Discount></Product>`,
			i, rng.Intn(10000), 10+rng.Float64()*190, rng.Float64()*0.3)...)
	}
	return append(out, `</Categories></Catalog>`...)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
