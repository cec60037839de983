package gen

import (
	"fmt"
	"math/rand"
	"strconv"
)

// WriteShape sizes the write workload's initial corpus (phase A).
type WriteShape struct {
	Orders       int
	Catalogs     int
	Products     int // per catalog
	Archives     int
	ArchiveBytes int
}

// WriteModel is the generator-side state of the write collection: what
// every document must contain after the operations applied so far.
type WriteModel struct {
	// Orders holds the model of each order document by document index; nil
	// for static documents and after Delete.
	Orders []*Order
	// Static holds the bytes of documents no operation changes (catalogs,
	// archives); nil for orders.
	Static  [][]byte
	Deleted []bool
	live    []int // order document indexes eligible as targets
	livePos map[int]int
}

func (o *Order) clone() *Order {
	c := *o
	c.Items = append([]Item(nil), o.Items...)
	return &c
}

func (m *WriteModel) clone() *WriteModel {
	c := &WriteModel{Static: m.Static, Deleted: append([]bool(nil), m.Deleted...),
		live: append([]int(nil), m.live...), livePos: make(map[int]int, len(m.livePos))}
	for _, o := range m.Orders {
		if o != nil {
			o = o.clone()
		}
		c.Orders = append(c.Orders, o)
	}
	for k, v := range m.livePos {
		c.livePos[k] = v
	}
	return c
}

func (m *WriteModel) addOrder(o *Order) int {
	d := len(m.Orders)
	m.Orders = append(m.Orders, o)
	m.Static = append(m.Static, nil)
	m.Deleted = append(m.Deleted, false)
	m.livePos[d] = len(m.live)
	m.live = append(m.live, d)
	return d
}

// NewWriteCorpus generates the mixed phase-A corpus (≈1–2 KB orders, ≈20 KB
// catalogs, a few large archives) and its model. The kinds are interleaved
// at fixed places — a catalog or an archive after every so many orders — as
// a mixed feed would deliver them. Document index i is the i-th document of
// the returned slice.
func NewWriteCorpus(rng *rand.Rand, sh WriteShape) (*WriteModel, [][]byte) {
	m := &WriteModel{livePos: map[int]int{}}
	var docs [][]byte
	static := func(b []byte) {
		m.Orders = append(m.Orders, nil)
		m.Static = append(m.Static, b)
		m.Deleted = append(m.Deleted, false)
		docs = append(docs, b)
	}
	catEvery, archEvery := sh.Orders/max(sh.Catalogs, 1), sh.Orders/max(sh.Archives, 1)
	for i := 0; i < sh.Orders; i++ {
		o := NewOrder(rng, i, "cust", ItemsAt(i))
		m.addOrder(o)
		docs = append(docs, o.Render())
		if (i+1)%catEvery == 0 && (i+1)/catEvery <= sh.Catalogs {
			static(NewCatalog(rng, sh.Products).Render())
		}
		if (i+1)%archEvery == 0 && (i+1)/archEvery <= sh.Archives {
			static(NewArchive(rng, sh.ArchiveBytes).Render())
		}
	}
	return m, docs
}

// Apply records an acknowledged operation in the model.
func (m *WriteModel) Apply(op *Op) {
	switch op.Kind {
	case Insert:
		m.addOrder(op.Order.clone())
	case Update:
		it := &m.Orders[op.Doc].Items[op.Item]
		if op.Slot == SlotQty {
			it.Qty = op.NewValue
		} else {
			it.PriceCents = op.NewValue
		}
	case InsertFragment:
		o := m.Orders[op.Doc]
		o.Items = append(o.Items, op.NewItem)
		o.NextLine++
	case DeleteSubtree:
		o := m.Orders[op.Doc]
		o.Items = append(o.Items[:op.Item], o.Items[op.Item+1:]...)
	case Delete:
		p := m.livePos[op.Doc]
		last := m.live[len(m.live)-1]
		m.live[p], m.livePos[last] = last, p
		m.live = m.live[:len(m.live)-1]
		delete(m.livePos, op.Doc)
		m.Orders[op.Doc], m.Deleted[op.Doc] = nil, true
	}
}

// Expected returns the bytes document doc must serialize to, or nil if it
// must be gone.
func (m *WriteModel) Expected(doc int) []byte {
	switch {
	case m.Deleted[doc]:
		return nil
	case m.Orders[doc] != nil:
		return m.Orders[doc].Render()
	default:
		return m.Static[doc]
	}
}

// Docs returns the number of document indexes handed out so far.
func (m *WriteModel) Docs() int { return len(m.Orders) }

// WriteOps generates the phase-B stream against a private copy of the
// model: 35 % Insert, 35 % Update of a Zipf-chosen order's Price or Qty,
// 10 % InsertFragment, 10 % DeleteSubtree, 10 % Delete. The driver applies
// each operation to its own model once the engine acknowledges it, so the
// model always describes exactly the acknowledged prefix.
func WriteOps(rng *rand.Rand, col string, initial *WriteModel, n int) []Op {
	m := initial.clone()
	z := NewZipf(rng, len(m.live))
	target := func() int { return m.live[z.Next()%len(m.live)] }
	seq := 1 << 20 // id attributes of inserted orders, apart from phase A's
	ops := make([]Op, 0, n)
	for len(ops) < n {
		op := Op{Col: col}
		switch r := rng.Intn(100); {
		case r < 35:
			op.Kind, op.Doc = Insert, m.Docs()
			op.Order = NewOrder(rng, seq, "cust", ItemsAt(seq))
			op.Payload = op.Order.Render()
			seq++
		case r < 70:
			op.Kind, op.Doc = Update, target()
			op.Item = rng.Intn(len(m.Orders[op.Doc].Items))
			if rng.Intn(2) == 0 {
				op.Slot, op.NewValue = SlotQty, 1+rng.Intn(9)
				op.Payload = strconv.AppendInt(nil, int64(op.NewValue), 10)
			} else {
				op.Slot, op.NewValue = SlotPrice, 500+rng.Intn(9500)
				op.Payload = []byte(cents(op.NewValue))
			}
		case r < 80:
			op.Kind, op.Doc = InsertFragment, target()
			o := m.Orders[op.Doc]
			op.NewItem = NewItem(rng, o.NextLine)
			op.Payload = RenderItem(nil, op.NewItem)
		case r < 90:
			op.Kind, op.Doc = DeleteSubtree, target()
			o := m.Orders[op.Doc]
			if len(o.Items) < 2 {
				continue // keep every order non-empty; draw again
			}
			op.Item = rng.Intn(len(o.Items))
		default:
			op.Kind, op.Doc = Delete, target()
		}
		m.Apply(&op)
		ops = append(ops, op)
	}
	return ops
}

// ReadBackOps draws n indexed queries over the model's current state — item
// price equality, and price-and-quantity ANDing — for the read-back after
// recovery.
func (m *WriteModel) ReadBackOps(rng *rand.Rand, col string, n int) []Op {
	type key struct{ price, qty int }
	byPrice := map[int]*Digest{}
	byBoth := map[key]*Digest{}
	var keys []key
	for _, d := range m.live {
		for _, it := range m.Orders[d].Items {
			k := key{it.PriceCents, it.Qty}
			if byPrice[k.price] == nil {
				byPrice[k.price] = &Digest{}
			}
			if byBoth[k] == nil {
				byBoth[k] = &Digest{}
				keys = append(keys, k)
			}
			byPrice[k.price].AddString(it.Part)
			byBoth[k].AddString(it.Part)
		}
	}
	ops := make([]Op, n)
	for i := range ops {
		k := keys[rng.Intn(len(keys))]
		op := Op{Kind: Query, Col: col, Values: true}
		if rng.Intn(4) > 0 {
			op.Literal = cents(k.price)
			op.Expr, op.Want = fmt.Sprintf(`/Order/Items/Item[Price = %s]/Part`, op.Literal), *byPrice[k.price]
		} else {
			op.Expr, op.Want = fmt.Sprintf(`/Order/Items/Item[Price = %s and Qty = %d]/Part`, cents(k.price), k.qty), *byBoth[k]
		}
		ops[i] = op
	}
	return ops
}
