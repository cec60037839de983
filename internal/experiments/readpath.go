package experiments

// E20: the read path's allocation budget — a Get and an indexed query return
// their results without a per-node allocation, and planning a query whose
// shape is prepared neither parses nor compiles.

import (
	"bytes"
	"fmt"
	"strings"

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
// bench/BENCH_E20.json gates it in CI. Beside them, plan-warm-shape plans
// that query with each of the 16 customers in turn: one shape, warm, so an
// execution only lifts, binds, dives and prices, and its allocations and
// time gate per-execution parsing and compiling out. plan-cold-shape plans
// it in 4,096 spellings that differ only in their spaces, each a shape of
// its own, so every call misses a full shape set: it gates what a query
// whose shape does not repeat pays for the cache.
func e20Cases() ([]Case, error) {
	var out []Case
	for k, items := range e20Sizes {
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
		if k == 0 {
			out = append(out,
				Case{Name: "plan-warm-shape", Gated: true, Run: loop(planTexts(col, warmTexts()))},
				Case{Name: "plan-cold-shape", Gated: true, Run: loop(planTexts(col, coldTexts()))})
		}
	}
	return out, nil
}

// warmTexts are the E20 customer query for each of the 16 customers: one
// shape.
func warmTexts() []string {
	var texts []string
	for c := 0; c < e20Orders/4; c++ {
		texts = append(texts, fmt.Sprintf(`/Order[Customer = "cust-%04d"]`, c))
	}
	return texts
}

// coldTexts are the E20 customer query with 0–7 spaces at each of four
// token gaps: 4,096 shapes, far more than a shape set keeps.
func coldTexts() []string {
	var texts []string
	for i := 0; i < 1<<12; i++ {
		sp := func(gap int) string { return strings.Repeat(" ", i>>(3*gap)&7) }
		texts = append(texts, fmt.Sprintf(`/Order%s[%sCustomer%s=%s"cust-%04d"]`, sp(0), sp(1), sp(2), sp(3), i%(e20Orders/4)))
	}
	return texts
}

// planTexts plans the texts, one per call in turn.
func planTexts(col *core.Collection, texts []string) func() error {
	i := 0
	return func() error {
		p, err := col.Plan(texts[i%len(texts)], core.QueryOptions{})
		i++
		if err == nil && p.Method == "scan" {
			err = fmt.Errorf("e20: %s planned as a scan", texts[0])
		}
		return err
	}
}
