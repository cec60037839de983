package gen

import "math/rand"

// ServedWeights makes served's queries 6/8 equality, 1/8 range, 1/8 ANDing.
// The range template costs several times the other two (see ReadMix). With
// lookup's weights the cheap templates would be 71 % of the queries, and
// about 72 % of the open loop's operations find their connection free, so
// "cheap and did not wait" would be 51 % of the queries: query_p50_ms would
// sit on the edge of that group and swing with every small shift. At 7/8
// the median query is well inside it.
var ServedWeights = [3]int{6, 1, 1}

// ServedOps draws n operations of the served mix for conns connections;
// operation i belongs to connection i mod conns and each connection runs its
// operations in order. 45 % indexed query over the base population, 25 %
// Get of a base document, 20 % Insert, 5 % Delete, 5 % transaction of two
// inserts. Inserted orders are drafts (no Total yet) of customers outside
// the base domain, so no query over the base population ever has one as a
// candidate: concurrent inserts and deletes cannot change, or fail, what a
// query must return. A Delete (Doc = -1) removes the oldest document its own
// connection inserted and has not yet deleted; one is drawn only when the
// connection has such a document, so no operation can fail.
func ServedOps(rng *rand.Rand, m *ReadMix, conns, n int) []Op {
	own := make([]int, conns) // documents each connection has inserted and not deleted
	seq := 1 << 20
	newDoc := func() []byte {
		seq++
		o := NewOrder(rng, seq, "new", ItemsAt(seq))
		o.Draft = true
		return o.Render()
	}
	ops := make([]Op, n)
	for i := range ops {
		c := i % conns
		switch r := rng.Intn(100); {
		case r < 45:
			ops[i] = m.Query()
		case r < 70:
			ops[i] = m.Get()
		case r < 90:
			ops[i] = Op{Kind: Insert, Col: m.col, Payload: newDoc()}
			own[c]++
		case r < 95 && own[c] > 0:
			ops[i] = Op{Kind: Delete, Col: m.col, Doc: -1}
			own[c]--
		case r < 95:
			ops[i] = m.Get()
		default:
			ops[i] = Op{Kind: Txn, Col: m.col, Payload: newDoc(), Payload2: newDoc()}
			own[c] += 2
		}
	}
	return ops
}
