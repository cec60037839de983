package gen

import (
	"fmt"
	"math/rand"
	"sort"
)

// Kind is an operation type. Latencies are reported per kind.
type Kind uint8

// Operation kinds.
const (
	Query Kind = iota
	Get
	Insert
	Update
	InsertFragment
	DeleteSubtree
	Delete
	Txn
	NumKinds
)

var kindNames = [NumKinds]string{"query", "get", "insert", "update", "insert_fragment", "delete_subtree", "delete", "txn"}

func (k Kind) String() string { return kindNames[k] }

// Op is one generated operation with what the oracle expects of it.
type Op struct {
	Kind Kind
	Col  string
	// Query: the expression, whether values are requested, and the
	// expected result count and (with values) value digest.
	Expr   string
	Values bool
	Want   Digest
	// Literal is the indexed literal of a single-index equality query, for
	// the value-index probe; empty otherwise.
	Literal string
	// Doc is the generator-side document index the operation addresses
	// (Get, Update, InsertFragment, DeleteSubtree, Delete) or creates
	// (Insert). The driver maps it to the DocID the engine assigned.
	Doc int
	// Get: the expected serialized bytes, by length and hash.
	WantLen  int
	WantHash uint64
	// Update/DeleteSubtree: the item position within the order; Update: the
	// child slot (SlotQty or SlotPrice) whose text is replaced.
	Item int
	Slot int
	// Payload is the document (Insert), the new text (Update) or the
	// fragment (InsertFragment); Txn carries two documents.
	Payload  []byte
	Payload2 []byte
	// Order is the model of an inserted document, NewItem the appended
	// item, NewValue the updated number: what Apply needs.
	Order    *Order
	NewItem  Item
	NewValue int
}

// QueryOracle answers order queries from the models of a fixed population.
type QueryOracle struct {
	byCustomer map[string][]*Order
	byTotal    []*Order // ascending TotalCents
	midTotal   int
}

// NewQueryOracle indexes a population whose members no operation changes.
func NewQueryOracle(orders []*Order) *QueryOracle {
	q := &QueryOracle{byCustomer: map[string][]*Order{}}
	for _, o := range orders {
		q.byCustomer[o.Customer] = append(q.byCustomer[o.Customer], o)
	}
	q.byTotal = append([]*Order(nil), orders...)
	sort.SliceStable(q.byTotal, func(i, j int) bool { return q.byTotal[i].TotalCents < q.byTotal[j].TotalCents })
	q.midTotal = q.byTotal[len(q.byTotal)/2].TotalCents
	return q
}

// Equality is the indexed equality template for customer k.
func (q *QueryOracle) Equality(col, prefix string, k int) Op {
	c := CustomerName(prefix, k)
	op := Op{Kind: Query, Col: col, Values: true, Expr: fmt.Sprintf(`/Order[Customer="%s"]/Total`, c)}
	for _, o := range q.byCustomer[c] {
		op.Want.AddString(o.Total())
	}
	return op
}

// Range is the narrow indexed range template: the window of about eight
// totals starting at the k-th of the literal domain.
func (q *QueryOracle) Range(col string, k int) Op {
	const width = 8
	n := len(q.byTotal)
	lo := (k * (n - width - 1)) / Customers
	a, b := q.byTotal[lo].TotalCents, q.byTotal[lo+width].TotalCents
	op := Op{Kind: Query, Col: col, Values: true,
		Expr: fmt.Sprintf(`/Order[Total >= %s and Total < %s]/Customer`, cents(a), cents(b))}
	for _, o := range q.byTotal {
		if o.TotalCents >= a && o.TotalCents < b {
			op.Want.AddString(o.Customer)
		}
	}
	return op
}

// Anding is the two-index template: customer k's orders above the median
// total.
func (q *QueryOracle) Anding(col, prefix string, k int) Op {
	c := CustomerName(prefix, k)
	op := Op{Kind: Query, Col: col, Values: true,
		Expr: fmt.Sprintf(`/Order[Customer="%s" and Total > %s]/Total`, c, cents(q.midTotal))}
	for _, o := range q.byCustomer[c] {
		if o.TotalCents > q.midTotal {
			op.Want.AddString(o.Total())
		}
	}
	return op
}

// GetOp expects the rendered bytes of document doc.
func GetOp(col string, doc int, rendered []byte) Op {
	return Op{Kind: Get, Col: col, Doc: doc, WantLen: len(rendered), WantHash: HashBytes(rendered)}
}

// Population is a set of order documents with their rendered bytes.
type Population struct {
	Orders []*Order
	Docs   [][]byte
	Bytes  int64
}

// NewPopulation makes n orders. See NewOrder for custPrefix. Customers are
// dealt out in turn, not drawn, so that every customer has the same number
// of orders (±1) whatever the seed (see ItemsAt).
func NewPopulation(rng *rand.Rand, n int, custPrefix string) *Population {
	p := &Population{}
	for i := 0; i < n; i++ {
		o := NewOrder(rng, i, custPrefix, ItemsAt(i))
		o.Customer = CustomerName(custPrefix, i%Customers)
		d := o.Render()
		p.Orders = append(p.Orders, o)
		p.Docs = append(p.Docs, d)
		p.Bytes += int64(len(d))
	}
	return p
}

// ReadMix draws the read operations shared by lookup and served: indexed
// equality, narrow range and two-index ANDing queries in the ratio the
// workload gives, and Get. Each template has ≈500 literals. Key choice
// is Zipf for equality, ANDing and Get. The range window is drawn uniformly:
// what a window costs depends on where in the value domain it lies (the
// engine intersects two half-ranges), so a Zipf-hot window would make the
// whole run's speed depend on where the seed put it.
type ReadMix struct {
	rng    *rand.Rand
	col    string
	prefix string
	pop    *Population
	orc    *QueryOracle
	lit    *Zipf
	doc    *Zipf
	gets   map[int]Op
	qs     map[[2]int]Op
	// weights are the shares of equality, range and ANDing among queries.
	weights [3]int
}

// NewReadMix prepares the templates over an unchanging population; weights
// are the shares of equality, range and ANDing among the queries.
func NewReadMix(rng *rand.Rand, col, prefix string, pop *Population, weights [3]int) *ReadMix {
	return &ReadMix{rng: rng, col: col, prefix: prefix, pop: pop, orc: NewQueryOracle(pop.Orders),
		lit: NewZipf(rng, Customers), doc: NewZipf(rng, len(pop.Docs)), gets: map[int]Op{}, qs: map[[2]int]Op{}, weights: weights}
}

// Query draws one query of the three templates by their weights.
func (m *ReadMix) Query() Op {
	k, t := m.lit.Next(), 0
	w := m.weights
	if r := m.rng.Intn(w[0] + w[1] + w[2]); r >= w[0]+w[1] {
		t = 2
	} else if r >= w[0] {
		k, t = m.rng.Intn(Customers), 1
	}
	op, ok := m.qs[[2]int{t, k}]
	if !ok {
		switch t {
		case 0:
			op = m.orc.Equality(m.col, m.prefix, k)
		case 1:
			op = m.orc.Range(m.col, k)
		default:
			op = m.orc.Anding(m.col, m.prefix, k)
		}
		m.qs[[2]int{t, k}] = op
	}
	return op
}

// Get draws one Get by Zipf document.
func (m *ReadMix) Get() Op {
	d := m.doc.Next()
	op, ok := m.gets[d]
	if !ok {
		op = GetOp(m.col, d, m.pop.Docs[d])
		m.gets[d] = op
	}
	return op
}

// LookupWeights makes lookup's queries 4/7 equality, 2/7 range, 1/7 ANDing:
// 40 %, 20 % and 10 % of its operations.
var LookupWeights = [3]int{4, 2, 1}

// LookupOps draws n operations of the lookup mix: 70 % queries, 30 % Get.
func LookupOps(rng *rand.Rand, m *ReadMix, n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		if rng.Intn(10) < 7 {
			ops[i] = m.Query()
		} else {
			ops[i] = m.Get()
		}
	}
	return ops
}
