package experiments

// E4–E6: the §4.2 QuickXScan claims — linearity in the document size, live
// matching state against a state-set automaton (Figure 7), and elapsed time
// and memory against the automaton and DOM-based evaluation.

import (
	"fmt"
	"math/rand"
	"runtime"

	"rx/internal/dom"
	"rx/internal/quickxscan"
	"rx/internal/xml"
	"rx/internal/xmlgen"
	"rx/internal/xmlparse"
	"rx/internal/xpath"
	"rx/internal/xpathdom"
	"rx/internal/xpathnaive"
)

// evaluators compiles one query for the three evaluators and returns one
// evaluation of stream by each: QuickXScan, the naive state-set automaton
// (no run when it cannot express the query: it has no predicates) and DOM
// materialize-and-navigate. The first two come back compiled as well, for
// their statistics.
func evaluators(query string, dict *xml.Dict, stream []byte) (ops [3]op, qe *quickxscan.Eval, ne *xpathnaive.Eval, err error) {
	q, err := xpath.Parse(query)
	if err != nil {
		return ops, nil, nil, err
	}
	if qe, err = quickxscan.Compile(q, dict, nil, quickxscan.Options{}); err != nil {
		return ops, nil, nil, err
	}
	ops[0] = op{"QuickXScan", func() error {
		_, err := quickxscan.EvalTokens(qe, stream)
		return err
	}}
	ops[1].name = "naive state-set automaton"
	if ne, err = xpathnaive.Compile(q, dict, nil); err == nil {
		ops[1].run = func() error {
			_, err := ne.EvalTokens(stream)
			return err
		}
	}
	ce, err := xpathdom.Compile(q, dict, nil)
	ops[2] = op{"DOM (materialize + navigate)", func() error {
		tree, err := dom.Build(stream)
		if err == nil {
			ce.Evaluate(tree)
		}
		return err
	}}
	return ops, qe, ne, err
}

// e4 reproduces the §4.2 linearity claim: QuickXScan elapsed time vs
// document size for a fixed query.
func e4(m *Meter) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "QuickXScan elapsed time vs document size |D|",
		Claim:   "linear performance with regard to the document size (§4.2: O(|Q|·r·|D|), small r)",
		Headers: []string{"products", "stream KiB", "ms/scan", "ns/KiB"},
	}
	dict := xml.NewDict()
	rng := rand.New(rand.NewSource(3))
	for _, products := range []int{500, 2000, 8000, 32000} {
		stream, err := xmlparse.Parse(xmlgen.Catalog(rng, products, 200), dict, xmlparse.Options{})
		if err != nil {
			return nil, err
		}
		evals, _, _, err := evaluators("/Catalog/Categories/Product[RegPrice > 100 and Discount > 0.1]/ProductName", dict, stream)
		if err != nil {
			return nil, err
		}
		el, err := m.time(fmt.Sprintf("products=%d", products), 3, evals[0].run)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			i0(products), i0(len(stream) / 1024), dms(el),
			f1(float64(el.Nanoseconds()) / (float64(len(stream)) / 1024)),
		})
	}
	t.Notes = append(t.Notes, "ns/KiB stays flat across a 64x size range = linear scaling")
	return t, nil
}

// e5 reproduces Figure 7: live matching state of QuickXScan vs the state-set
// automaton baseline on //a//a//a over recursive documents.
func e5(m *Meter) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "active matching state on //a//a//a vs recursion degree r (Figure 7)",
		Claim:   "QuickXScan keeps O(|Q|·r) matching instances; automata keep 'potentially exponential' active states (§4.2, Fig. 7)",
		Headers: []string{"recursion r", "QuickXScan max live", "naive automaton max active", "ratio"},
	}
	dict := xml.NewDict()
	for _, r := range []int{2, 4, 8, 16, 32, 64} {
		stream, err := xmlparse.Parse(xmlgen.Recursive(r), dict, xmlparse.Options{})
		if err != nil {
			return nil, err
		}
		evals, qe, ne, err := evaluators("//a//a//a", dict, stream)
		if err != nil {
			return nil, err
		}
		for _, o := range evals[:2] {
			if _, err := m.time(fmt.Sprintf("r=%d/%s", r, o.name), 1, o.run); err != nil {
				return nil, err
			}
		}
		ql, nl := qe.Stats().MaxLive, ne.Stats().MaxActive
		t.Rows = append(t.Rows, []string{i0(r), i0(ql), i0(nl), f1(float64(nl) / float64(ql))})
	}
	t.Notes = append(t.Notes, "QuickXScan grows linearly in r; the automaton's state set grows superlinearly (polynomial of degree |Q|)")
	return t, nil
}

// e6 reproduces the §4.2 comparison: QuickXScan vs the naive streaming
// automaton vs DOM-based evaluation, in elapsed time and allocated memory,
// over both a flat catalog and a recursive document.
func e6(m *Meter) (*Table, error) {
	products := m.pick(20000, 4000)
	t := &Table{
		ID:      "E6",
		Title:   fmt.Sprintf("evaluator comparison (catalog with %d products; recursive document r=192)", products),
		Claim:   "QuickXScan outperforms streaming automata in elapsed time and memory and is orders of magnitude better than DOM-based evaluation once materialization is paid (§4.2)",
		Headers: []string{"workload / query", "evaluator", "ms", "alloc MiB"},
	}
	dict := xml.NewDict()
	catalog, err := xmlparse.Parse(xmlgen.Catalog(rand.New(rand.NewSource(13)), products, 1000), dict, xmlparse.Options{})
	if err != nil {
		return nil, err
	}
	recursive, err := xmlparse.Parse(xmlgen.Recursive(192), dict, xmlparse.Options{})
	if err != nil {
		return nil, err
	}
	const iters = 5
	for _, wl := range []struct {
		name, query string
		stream      []byte
	}{
		{"catalog //Product[RegPrice > 500]/ProductName", "//Product[RegPrice > 500]/ProductName", catalog},
		{"catalog /Catalog/Categories/Product/RegPrice", "/Catalog/Categories/Product/RegPrice", catalog},
		{"recursive //a//a//a (r=192)", "//a//a//a", recursive},
	} {
		evals, _, _, err := evaluators(wl.query, dict, wl.stream)
		if err != nil {
			return nil, err
		}
		label := wl.name // on the workload's first row only
		for _, o := range evals {
			if o.run == nil {
				t.Rows = append(t.Rows, []string{label, o.name, "n/a (predicates unsupported)", "-"})
				continue
			}
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			el, err := m.time(wl.name+"/"+o.name, iters, o.run)
			if err != nil {
				return nil, err
			}
			runtime.ReadMemStats(&ms1)
			t.Rows = append(t.Rows, []string{label, o.name, dms(el), f2(float64(ms1.TotalAlloc-ms0.TotalAlloc) / iters / (1 << 20))})
			label = ""
		}
	}
	t.Notes = append(t.Notes,
		"QuickXScan needs no materialization (DOM allocates the whole tree per evaluation) and no state-set growth (the automaton's states explode on the recursive document)")
	return t, nil
}
