package gen

import (
	"fmt"
	"math/rand"
)

// ScanShape sizes one scan collection.
type ScanShape struct {
	Orders       int
	Catalogs     int
	Products     int // per catalog
	Recursive    int
	RecDepth     int
	ArchiveBytes int
}

// ScanCollection is one collection of the scan corpus: orders, catalogs,
// recursive documents and one large archive, with the expected result of
// each query class precomputed.
type ScanCollection struct {
	Name  string
	Docs  [][]byte
	Bytes int64

	qtyOver8  Digest            // //Item[Qty > 8]/Part
	quarter   Digest            // Product[Discount = 0.25]/ProductName
	deepB     int               // //a//a//b
	qtyByPart map[string]Digest // //Item[Part = "p"]/Qty
}

// NewScanCollection generates collection number i.
func NewScanCollection(rng *rand.Rand, i int, sh ScanShape) *ScanCollection {
	c := &ScanCollection{Name: fmt.Sprintf("scan%02d", i), qtyByPart: map[string]Digest{}}
	add := func(d []byte) {
		c.Docs = append(c.Docs, d)
		c.Bytes += int64(len(d))
	}
	items := func(o *Order) {
		for _, it := range o.Items {
			if it.Qty > 8 {
				c.qtyOver8.AddString(it.Part)
			}
			d := c.qtyByPart[it.Part]
			d.AddString(fmt.Sprint(it.Qty))
			c.qtyByPart[it.Part] = d
		}
	}
	for k := 0; k < sh.Orders; k++ {
		o := NewOrder(rng, k, "cust", ItemsAt(k))
		items(o)
		add(o.Render())
	}
	for k := 0; k < sh.Catalogs; k++ {
		cat := NewCatalog(rng, sh.Products)
		for _, p := range cat.Products {
			if p.Discount == "0.25" {
				c.quarter.AddString(p.Name)
			}
		}
		add(cat.Render())
	}
	for k := 0; k < sh.Recursive; k++ {
		r := NewRecursive(rng, sh.RecDepth)
		c.deepB += r.DeepB
		add(r.XML)
	}
	a := NewArchive(rng, sh.ArchiveBytes)
	for _, o := range a.Orders {
		items(o)
	}
	add(a.Render())
	// Documents arrive interleaved, as a mixed feed would deliver them.
	rng.Shuffle(len(c.Docs), func(i, j int) { c.Docs[i], c.Docs[j] = c.Docs[j], c.Docs[i] })
	return c
}

// ScanOps draws n operations over the collections, chosen uniformly: 60 %
// queries of four classes no index serves (20/12/10/18 %) and 40 % Get of a
// uniformly chosen document, which on this workload is a cold read. A Get
// costs about a hundredth of a scan, so the Gets take about 1 % of the time;
// their share is what gives get_p99_ms its samples.
func ScanOps(rng *rand.Rand, cols []*ScanCollection, n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		c := cols[rng.Intn(len(cols))]
		op := Op{Kind: Query, Col: c.Name, Values: true}
		switch r := rng.Intn(100); {
		case r < 20:
			op.Expr, op.Want = `//Item[Qty > 8]/Part`, c.qtyOver8
		case r < 32:
			op.Expr, op.Want = `/Catalog/Categories/Product[Discount = 0.25]/ProductName`, c.quarter
		case r < 42:
			op.Expr, op.Values, op.Want = `//a//a//b`, false, Digest{Count: c.deepB}
		case r < 60:
			p := PartName(rng)
			op.Expr, op.Want = fmt.Sprintf(`//Item[Part = "%s"]/Qty`, p), c.qtyByPart[p]
		default:
			d := rng.Intn(len(c.Docs))
			op = GetOp(c.Name, d, c.Docs[d])
		}
		ops[i] = op
	}
	return ops
}
