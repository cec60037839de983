// Package gen is the benchmark's own seeded corpus and operation generator,
// with the oracle that says what every operation must return. It is a
// private copy, not an import of internal/xmlgen, so that a later change to
// the engine's generators cannot change what the benchmark measures. It
// imports nothing from the engine: the engine sees only the bytes it makes.
//
// Every document is generated in the form the engine serializes (no
// insignificant whitespace, double-quoted attributes, no empty-element
// tags), so the expected bytes of a Get are the rendered model itself.
package gen

import (
	"fmt"
	"math/rand"
	"strconv"
)

// Customers is the size of the Customer literal domain (≈500 per template).
const Customers = 500

// Item is one order line.
type Item struct {
	Line       int
	Part       string
	Qty        int
	PriceCents int
}

// Order is the model of one order document.
type Order struct {
	Seq        int // generator-side identity, rendered as the id attribute
	Customer   string
	Date       string
	Items      []Item
	NextLine   int
	TotalCents int
	// Draft orders have no Total element yet: they enter the Customer
	// index but not the Total index.
	Draft bool
}

var (
	partsA = []string{"Acme", "Global", "Prime", "Ultra", "Hyper", "Micro", "Mega", "Turbo"}
	partsB = []string{"Widget", "Anvil", "Gadget", "Sprocket", "Gizmo", "Flange", "Rotor", "Valve"}
)

// PartName returns one of 64×40 = 2560 part names.
func PartName(rng *rand.Rand) string {
	return partsA[rng.Intn(len(partsA))] + " " + partsB[rng.Intn(len(partsB))] + " " + strconv.Itoa(rng.Intn(40))
}

// CustomerName renders the k-th customer literal.
func CustomerName(prefix string, k int) string { return fmt.Sprintf("%s-%04d", prefix, k) }

func cents(c int) string { return fmt.Sprintf("%d.%02d", c/100, c%100) }

// NewItem makes one order line.
func NewItem(rng *rand.Rand, line int) Item {
	return Item{Line: line, Part: PartName(rng), Qty: 1 + rng.Intn(9), PriceCents: 500 + rng.Intn(9500)}
}

// ItemsAt is the number of lines of the i-th order of a population: 8–16,
// cycling. Sizes and placement are fixed and only values are drawn from the
// seed, so that which documents a seed makes hot does not change what the
// hot operations cost: runs with different seeds measure the same shape.
func ItemsAt(i int) int { return 8 + (i*7)%9 }

// NewOrder makes an order of n lines (8–16 lines is ≈1–2 KB rendered).
// custPrefix keeps the Customer domains of different document populations
// apart: a query over one population is not disturbed by inserts from
// another.
func NewOrder(rng *rand.Rand, seq int, custPrefix string, n int) *Order {
	o := &Order{
		Seq:      seq,
		Customer: CustomerName(custPrefix, rng.Intn(Customers)),
		Date:     fmt.Sprintf("20%02d-%02d-%02d", rng.Intn(5), 1+rng.Intn(12), 1+rng.Intn(28)),
	}
	for i := 0; i < n; i++ {
		it := NewItem(rng, i+1)
		o.Items = append(o.Items, it)
		o.TotalCents += it.Qty * it.PriceCents
	}
	o.NextLine = n + 1
	return o
}

// Total is the rendered text of the Total element.
func (o *Order) Total() string { return cents(o.TotalCents) }

// RenderItem renders one Item element (also the InsertFragment payload).
func RenderItem(b []byte, it Item) []byte {
	b = append(b, `<Item line="`...)
	b = strconv.AppendInt(b, int64(it.Line), 10)
	b = append(b, `"><Part>`...)
	b = append(b, it.Part...)
	b = append(b, `</Part><Qty>`...)
	b = strconv.AppendInt(b, int64(it.Qty), 10)
	b = append(b, `</Qty><Price>`...)
	b = append(b, cents(it.PriceCents)...)
	b = append(b, `</Price></Item>`...)
	return b
}

// Child slots of the rendered order, which is what node addressing follows:
// Order{@id 0, Customer 1, Date 2, Items 3, Total 4}; Item{@line 0, Part 1,
// Qty 2, Price 3}; the text node of a leaf element is its slot 0.
const (
	SlotItems = 3
	SlotQty   = 2
	SlotPrice = 3
)

func (o *Order) render(b []byte) []byte {
	b = append(b, `<Order id="o-`...)
	b = strconv.AppendInt(b, int64(o.Seq), 10)
	b = append(b, `"><Customer>`...)
	b = append(b, o.Customer...)
	b = append(b, `</Customer><Date>`...)
	b = append(b, o.Date...)
	b = append(b, `</Date><Items>`...)
	for _, it := range o.Items {
		b = RenderItem(b, it)
	}
	if o.Draft {
		return append(b, `</Items></Order>`...)
	}
	b = append(b, `</Items><Total>`...)
	b = append(b, o.Total()...)
	b = append(b, `</Total></Order>`...)
	return b
}

// Render returns the order as XML.
func (o *Order) Render() []byte { return o.render(make([]byte, 0, 256+100*len(o.Items))) }

// Product is one catalog entry.
type Product struct {
	Name       string
	PriceCents int
	Discount   string
}

// Discounts is the Discount value domain; one in four products has 0.25.
var Discounts = []string{"0.00", "0.05", "0.15", "0.25"}

// Catalog is the model of one ≈20 KB catalog document.
type Catalog struct{ Products []Product }

// NewCatalog makes a catalog of n products (≈135 bytes each).
func NewCatalog(rng *rand.Rand, n int) *Catalog {
	c := &Catalog{}
	for i := 0; i < n; i++ {
		c.Products = append(c.Products, Product{
			Name:       PartName(rng),
			PriceCents: 1000 + rng.Intn(20000),
			Discount:   Discounts[rng.Intn(len(Discounts))],
		})
	}
	return c
}

// Render returns the catalog as XML.
func (c *Catalog) Render() []byte {
	b := make([]byte, 0, 64+140*len(c.Products))
	b = append(b, `<Catalog><Categories>`...)
	for i, p := range c.Products {
		b = append(b, `<Product pid="`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `"><ProductName>`...)
		b = append(b, p.Name...)
		b = append(b, `</ProductName><RegPrice>`...)
		b = append(b, cents(p.PriceCents)...)
		b = append(b, `</RegPrice><Discount>`...)
		b = append(b, p.Discount...)
		b = append(b, `</Discount></Product>`...)
	}
	b = append(b, `</Categories></Catalog>`...)
	return b
}

// Archive is the model of one large multi-record document: many orders
// under one root. Its orders are not /Order documents, so rooted order
// queries and the order indexes never see them; //Item queries do.
type Archive struct{ Orders []*Order }

// NewArchive makes an archive of about size bytes.
func NewArchive(rng *rand.Rand, size int) *Archive {
	a := &Archive{}
	for n := 0; n < size; {
		o := NewOrder(rng, len(a.Orders), "arch", ItemsAt(len(a.Orders)))
		a.Orders = append(a.Orders, o)
		n += 300 + 100*len(o.Items)
	}
	return a
}

// Render returns the archive as XML.
func (a *Archive) Render() []byte {
	b := make([]byte, 0, 2048*len(a.Orders))
	b = append(b, `<Archive>`...)
	for _, o := range a.Orders {
		b = o.render(b)
	}
	b = append(b, `</Archive>`...)
	return b
}

// Recursive is the model of one recursive document: a random tree of <a>
// elements with <b>x</b> leaves, the //a//a//b shape of the paper's Fig. 7.
type Recursive struct {
	XML []byte
	// DeepB counts the b elements with at least two a ancestors: the
	// expected result count of //a//a//b.
	DeepB int
}

// NewRecursive makes a recursive document of the given maximum depth.
func NewRecursive(rng *rand.Rand, depth int) *Recursive {
	r := &Recursive{}
	var rec func(d, above int)
	rec = func(d, above int) {
		r.XML = append(r.XML, "<a>"...)
		if rng.Intn(2) == 0 {
			r.XML = append(r.XML, "<b>x</b>"...)
			if above+1 >= 2 {
				r.DeepB++
			}
		}
		if d > 1 {
			for k := 1 + rng.Intn(2); k > 0; k-- {
				rec(d-1, above+1)
			}
		} else {
			r.XML = append(r.XML, "<b>x</b>"...)
			if above+1 >= 2 {
				r.DeepB++
			}
		}
		r.XML = append(r.XML, "</a>"...)
	}
	rec(depth, 0)
	return r
}

// Digest is an order-independent digest of a query's result values: the
// count and the wrapping sum of each value's FNV-1a hash.
type Digest struct {
	Count int
	Sum   uint64
}

// HashBytes is the FNV-1a hash values and Get results are compared by. It is
// written out so that hashing a value inside a timed drain allocates nothing.
func HashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// Add folds one value in.
func (d *Digest) Add(v []byte) {
	d.Count++
	d.Sum += HashBytes(v)
}

// AddString folds one value in.
func (d *Digest) AddString(v string) { d.Add([]byte(v)) }

// Zipf draws keys 0..n-1 with a Zipf(s=1.1) skew over ranks and spreads the
// ranks over the key space with a fixed stride, so hot keys are not
// neighbours and — see ItemsAt — are the same keys whatever the seed.
type Zipf struct {
	z         *rand.Zipf
	n, stride int
}

// NewZipf makes a chooser over n keys.
func NewZipf(rng *rand.Rand, n int) *Zipf {
	stride := n*5/8 + 1
	for gcd(stride, n) != 1 {
		stride++
	}
	return &Zipf{z: rand.NewZipf(rng, 1.1, 1, uint64(n-1)), n: n, stride: stride}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Next draws one key.
func (z *Zipf) Next() int { return int(z.z.Uint64()) * z.stride % z.n }
