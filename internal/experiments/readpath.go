package experiments

// E20: the read path's allocation budget — a Get and an indexed query return
// their results without a per-node allocation.

import (
	"bytes"
	"fmt"

	"rx/internal/core"
	"rx/internal/xml"
	"rx/internal/xmlgen"
)

// e20Orders is the size of each E20 collection: 16 customers, 4 orders each.
const e20Orders = 64

// e20Sizes are the two order sizes the E20 cases run at, in line items: both
// one record at the default pack threshold, ≈0.8 and ≈6 KiB of text.
var e20Sizes = []int{8, 64}

// e20Cases — a Get of an order (the stored walk into the serializer, written
// to a buffer the caller reuses) and an indexed equality query over orders
// (plan, one value-index probe, four candidates read from the records their
// entries name). Each runs at two document sizes: allocs/op is the same
// constant at both (TestE20AllocsIndependentOfDocumentSize), and
// bench/BENCH_E20.json gates it in CI.
func e20Cases() ([]Case, error) {
	var out []Case
	for _, items := range e20Sizes {
		col, err := stored(core.CollectionOptions{}, generate(e20Orders, func(i int) []byte { return xmlgen.Order(i, items) }))
		if err != nil {
			return nil, err
		}
		if err := createIndexes(col, indexDef{"by_customer", "/Order/Customer", xml.TString}); err != nil {
			return nil, err
		}
		if n := col.StatsSnapshot().RecordCount; n != e20Orders {
			return nil, fmt.Errorf("e20: %d records for %d orders of %d items, want one each", n, e20Orders, items)
		}
		docs, err := col.DocIDs()
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		get := func() error {
			buf.Reset()
			return col.Serialize(docs[7], &buf)
		}
		query := queryOp(col, `/Order[Customer = "cust-0003"]`, core.QueryOptions{}, e20Orders/16)
		out = append(out,
			Case{Name: fmt.Sprintf("get-order/items=%d", items), Gated: true, Run: loop(get)},
			Case{Name: fmt.Sprintf("indexed-query/items=%d", items), Gated: true, Run: loop(query)})
	}
	return out, nil
}
