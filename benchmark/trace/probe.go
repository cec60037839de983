package trace

import (
	"encoding/binary"
	"runtime"
	"time"

	"rx/internal/arena"
	"rx/internal/btree"
	"rx/internal/core"
	"rx/internal/heap"
	"rx/internal/nodeid"
	"rx/internal/nodeindex"
	"rx/internal/pagestore"
	"rx/internal/quickxscan"
	"rx/internal/valueindex"
	"rx/internal/vsax"
	"rx/internal/xml"
	"rx/internal/xmlparse"
	"rx/internal/xpath"
)

// NopHandler discards document events: WalkDoc with it costs the traversal
// (NodeID index, heap fetch, record decode) and nothing else.
type NopHandler struct{}

func (NopHandler) StartDocument() error                                     { return nil }
func (NopHandler) EndDocument() error                                       { return nil }
func (NopHandler) StartElement(xml.QName, nodeid.ID) error                  { return nil }
func (NopHandler) EndElement(nodeid.ID) error                               { return nil }
func (NopHandler) NSDecl(xml.NameID, xml.NameID, nodeid.ID) error           { return nil }
func (NopHandler) Attribute(xml.QName, []byte, xml.TypeID, nodeid.ID) error { return nil }
func (NopHandler) Text([]byte, xml.TypeID, nodeid.ID) error                 { return nil }
func (NopHandler) Comment([]byte, nodeid.ID) error                          { return nil }
func (NopHandler) PI(xml.NameID, []byte, nodeid.ID) error                   { return nil }

var _ vsax.Handler = NopHandler{}

// EvalHandler feeds a stored document's events to a QuickXScan evaluator:
// what the engine does to find a document's value-index keys.
type EvalHandler struct {
	NopHandler
	E *quickxscan.Eval
}

func (h EvalHandler) StartDocument() error { h.E.Reset(); h.E.StartDocument(); return nil }
func (h EvalHandler) StartElement(n xml.QName, id nodeid.ID) error {
	h.E.StartElement(n, id)
	return nil
}
func (h EvalHandler) EndElement(id nodeid.ID) error { h.E.EndElement(id); return nil }
func (h EvalHandler) Attribute(n xml.QName, v []byte, _ xml.TypeID, id nodeid.ID) error {
	h.E.Attribute(n, v, id)
	return nil
}
func (h EvalHandler) Text(v []byte, _ xml.TypeID, id nodeid.ID) error { h.E.Text(v, id); return nil }

// ProbeInput names what the micro-probes sample.
type ProbeInput struct {
	DB   *core.DB
	Col  *core.Collection
	Docs []xml.DocID // sampled documents (up to 10k)
	// Index and Literals select the value-index probe: equality on each
	// literal; empty Index skips it. WantResults is the number of results
	// the same literals' queries return, for entries_per_result.
	Index       string
	Literals    []xpath.Literal
	WantResults int
	// Sources are sample documents as XML, for the parse-allocation probe.
	Sources [][]byte
	// Exprs are the workload's scan expressions, for the live-state probe.
	Exprs []string
}

func perOp(d time.Duration, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n) / float64(unit)
}

// Probe times single layers on the workload's own database after its phase:
// B+tree point reads, NodeID-index successor lookups, heap fetches, hot
// buffer-pool fetches and value-index probes over the sampled keys, then
// B+tree puts and heap inserts into scratch structures in the same pool.
// It returns per-layer metrics by name.
func Probe(in ProbeInput) (map[string]float64, error) {
	out := map[string]float64{}
	nix, tbl, pool := in.Col.NodeIndex(), in.Col.XMLTable(), in.DB.Pool()

	// Collect one exact NodeID-index key and the root RID per document.
	keys := make([][]byte, 0, len(in.Docs))
	rids := make([]heap.RID, 0, len(in.Docs))
	entries := 0
	for _, d := range in.Docs {
		first := true
		err := nix.ScanDoc(d, func(upper nodeid.ID, rid heap.RID) bool {
			if first {
				keys = append(keys, nodeindex.Key(d, upper))
				rids = append(rids, rid)
				first = false
			}
			entries++
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	if n := len(in.Docs); n > 0 {
		out["nodeindex.entries_per_doc"] = float64(entries) / float64(n)
	}

	t := time.Now()
	for _, k := range keys {
		if _, err := nix.Tree().Get(k); err != nil {
			return nil, err
		}
	}
	out["btree.get_us"] = perOp(time.Since(t), len(keys), time.Microsecond)

	t = time.Now()
	for _, d := range in.Docs {
		if _, err := nix.RootRID(d); err != nil {
			return nil, err
		}
	}
	out["nodeindex.lookup_us"] = perOp(time.Since(t), len(in.Docs), time.Microsecond)

	t = time.Now()
	for _, rid := range rids {
		_, release, err := tbl.FetchBorrowed(rid)
		if err != nil {
			return nil, err
		}
		release()
	}
	out["heap.fetch_us"] = perOp(time.Since(t), len(rids), time.Microsecond)

	// The page just fetched is resident when the pool is at least as large
	// as the sample; on a smaller pool this is simply a pool fetch.
	t = time.Now()
	for _, rid := range rids {
		f, err := pool.Fetch(rid.Page)
		if err != nil {
			return nil, err
		}
		pool.Unpin(f, false)
	}
	out["buffer.fetch_hot_ns"] = perOp(time.Since(t), len(rids), time.Nanosecond)

	if ix := in.Col.ValueIndex(in.Index); ix != nil && len(in.Literals) > 0 {
		scanned := 0
		t = time.Now()
		for _, lit := range in.Literals {
			r, err := ix.RangeForOp(xpath.EQ, lit)
			if err != nil {
				return nil, err
			}
			if err := ix.Scan(r, func(valueindex.Entry) bool { scanned++; return true }); err != nil {
				return nil, err
			}
		}
		out["valueindex.probe_us"] = perOp(time.Since(t), len(in.Literals), time.Microsecond)
		if in.WantResults > 0 {
			out["valueindex.entries_per_result"] = float64(scanned) / float64(in.WantResults)
		}
	}

	if h, err := nix.Tree().Height(); err == nil {
		out["btree.height"] = float64(h)
	}
	if p, err := tbl.Pages(); err == nil {
		out["heap.pages"] = float64(p)
		out["btree.pages"] = float64(pool.Store().NumPages()) - float64(p)
		if st := in.Col.StatsSnapshot(); st != nil && p > 0 {
			out["heap.fill_ratio"] = float64(st.TotalDocBytes) / (float64(p) * pagestore.PageSize)
		}
	}

	// Scratch structures: puts in random key order, inserts of 1 KB rows.
	const scratch = 5000
	tree, err := btree.Create(pool)
	if err != nil {
		return nil, err
	}
	var k [8]byte
	t = time.Now()
	for i := 0; i < scratch; i++ {
		binary.BigEndian.PutUint64(k[:], uint64(i)*0x9E3779B97F4A7C15)
		if err := tree.Put(k[:], k[:]); err != nil {
			return nil, err
		}
	}
	out["btree.put_us"] = perOp(time.Since(t), scratch, time.Microsecond)
	tab, err := heap.Create(pool)
	if err != nil {
		return nil, err
	}
	row := make([]byte, 1024)
	t = time.Now()
	for i := 0; i < scratch; i++ {
		if _, err := tab.Insert(row); err != nil {
			return nil, err
		}
	}
	out["heap.insert_us"] = perOp(time.Since(t), scratch, time.Microsecond)

	if len(in.Sources) > 0 {
		a := arena.New()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, src := range in.Sources {
			if _, err := xmlparse.Parse(src, in.DB.Names(), xmlparse.Options{Arena: a}); err != nil {
				return nil, err
			}
			a.Reset()
		}
		runtime.ReadMemStats(&after)
		out["xmlparse.allocs_per_doc"] = float64(after.Mallocs-before.Mallocs) / float64(len(in.Sources))
	}

	peak := 0
	for _, expr := range in.Exprs {
		q, err := xpath.Parse(expr)
		if err != nil {
			return nil, err
		}
		e, err := quickxscan.Compile(q, in.DB.Names(), nil, quickxscan.Options{})
		if err != nil {
			return nil, err
		}
		for _, d := range in.Docs {
			if err := in.Col.WalkDoc(d, EvalHandler{E: e}); err != nil {
				return nil, err
			}
			if _, err := e.EndDocument(); err != nil {
				return nil, err
			}
			if m := e.Stats().MaxLive; m > peak {
				peak = m
			}
		}
	}
	out["quickxscan.live_peak"] = float64(peak)
	return out, nil
}
