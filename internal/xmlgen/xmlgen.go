// Package xmlgen generates the synthetic workloads of the experiments
// (DESIGN.md: "the analytic claims depend only on shape parameters — node
// count k, node size n, packing factor p, recursion degree r — all of which
// the generator controls").
package xmlgen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Catalog generates a product catalog matching the paper's Table-2 queries:
// /Catalog/Categories/Product with ProductName, RegPrice, Discount.
// Prices are uniform in [10, 10+priceRange); discounts cycle through
// {0, 0.05, 0.15, 0.25}.
func Catalog(rng *rand.Rand, products int, priceRange float64) []byte {
	var sb strings.Builder
	sb.WriteString(`<Catalog><Categories>`)
	for i := 0; i < products; i++ {
		price := 10 + rng.Float64()*priceRange
		discount := []string{"0.00", "0.05", "0.15", "0.25"}[i%4]
		fmt.Fprintf(&sb,
			`<Product pid="%d"><ProductName>%s</ProductName><RegPrice>%.2f</RegPrice><Discount>%s</Discount></Product>`,
			i, ProductName(rng), price, discount)
	}
	sb.WriteString(`</Categories></Catalog>`)
	return []byte(sb.String())
}

var nameParts1 = []string{"Acme", "Global", "Prime", "Ultra", "Hyper", "Micro", "Mega", "Turbo"}
var nameParts2 = []string{"Widget", "Anvil", "Gadget", "Sprocket", "Gizmo", "Flange", "Rotor", "Valve"}

// ProductName generates a plausible product name.
func ProductName(rng *rand.Rand) string {
	return nameParts1[rng.Intn(len(nameParts1))] + " " +
		nameParts2[rng.Intn(len(nameParts2))] + " " +
		fmt.Sprint(rng.Intn(1000))
}

// Recursive generates a document whose recursion degree is exactly depth:
// <a> nested depth times with one small payload leaf — the Figure-7 /E5
// workload for //a//a//a-class queries.
func Recursive(depth int) []byte {
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		sb.WriteString("<a>")
	}
	sb.WriteString("<b>x</b>")
	for i := 0; i < depth; i++ {
		sb.WriteString("</a>")
	}
	return []byte(sb.String())
}

// Shaped generates a flat document of k element nodes, each with a text
// value of n bytes — the (k, n) storage-model workload of E1/E2/E3.
// The real node count is 2k+1 (k elements, k text nodes, one root).
func Shaped(k, n int) []byte {
	var sb strings.Builder
	sb.Grow(k*(n+16) + 16)
	sb.WriteString("<r>")
	val := strings.Repeat("v", n)
	for i := 0; i < k; i++ {
		sb.WriteString("<e>")
		sb.WriteString(val)
		sb.WriteString("</e>")
	}
	sb.WriteString("</r>")
	return []byte(sb.String())
}

// Product generates the ≈1.5 KiB product document of the gated smoke cases
// (E3, E10, E13, E16, E19): two attributes, a name, a price and 16 Part
// children with a description and a quantity each — ≈100 stored nodes.
func Product(i int) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, `<Product pid="%d" cat="tools">`, i)
	fmt.Fprintf(&sb, `<Name>Widget %d</Name><Price>%d.99</Price>`, i, i%97)
	for j := 0; j < 16; j++ {
		fmt.Fprintf(&sb, `<Part num="%d-%d"><Desc>part %d of product %d, standard finish</Desc><Qty>%d</Qty></Part>`,
			i, j, j, i, j*3)
	}
	sb.WriteString(`</Product>`)
	return []byte(sb.String())
}

// Order generates E20's order document: a customer out of 16, a date, items
// line items with a SKU attribute, a quantity and a price each, and a total
// — the shape of the benchmark's lookup corpus, ≈90 bytes per item.
func Order(i, items int) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, `<Order id="%d"><Customer>cust-%04d</Customer><Date>2004-05-%02d</Date><Items>`, i, i%16, 1+i%28)
	total := 0
	for j := 0; j < items; j++ {
		qty, cents := 1+(i+j)%5, 100+(i*31+j*17)%9000
		total += qty * cents
		fmt.Fprintf(&sb, `<Item sku="SKU-%d-%d"><Qty>%d</Qty><Price>%d.%02d</Price></Item>`, i, j, qty, cents/100, cents%100)
	}
	fmt.Fprintf(&sb, `</Items><Total>%d.%02d</Total></Order>`, total/100, total%100)
	return []byte(sb.String())
}

// Parts generates E18's adversarial planner shape: one selective field (Sku)
// and parts Part/Qty entries, so an index over Qty holds parts entries per
// document and walking it costs far more than evaluating the document once.
func Parts(i, parts int) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, `<Product><Sku>SKU-%d</Sku>`, i)
	for j := 0; j < parts; j++ {
		fmt.Fprintf(&sb, `<Part><Qty>%d</Qty></Part>`, j)
	}
	sb.WriteString(`</Product>`)
	return []byte(sb.String())
}
