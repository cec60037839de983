package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"rx/internal/leakcheck"
	"rx/internal/memgov"
	"rx/internal/nodeid"
	"rx/internal/xml"
)

func seedCatalog(t testing.TB, col *Collection, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		doc := catalogDoc(i, float64(100+i*10), 0.1, fmt.Sprintf("Widget %03d", i))
		mustInsert(t, col, []byte(doc))
	}
}

// TestParallelScanMatchesSerial checks that the parallel executor returns
// exactly the serial result set, in the same (DocID, NodeID) order.
func TestParallelScanMatchesSerial(t *testing.T) {
	db := newDB(t)
	col, err := db.CreateCollection("cat", CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seedCatalog(t, col, 40)
	const q = "/Catalog/Categories/Product[RegPrice > 250]/ProductName"

	serial, plan, err := col.QueryOpts(q, QueryOptions{Parallelism: 1, NeedValues: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != "scan" {
		t.Fatalf("expected scan plan, got %s", plan.Method)
	}
	if len(serial) == 0 {
		t.Fatal("serial query returned no results")
	}
	par, pplan, err := col.QueryOpts(q, QueryOptions{Parallelism: 8, NeedValues: true})
	if err != nil {
		t.Fatal(err)
	}
	if pplan.Parallelism < 2 {
		t.Fatalf("expected parallel plan, got parallelism=%d", pplan.Parallelism)
	}
	if len(par) != len(serial) {
		t.Fatalf("parallel returned %d results, serial %d", len(par), len(serial))
	}
	for i := range serial {
		if par[i].Doc != serial[i].Doc || nodeid.Compare(par[i].Node, serial[i].Node) != 0 ||
			string(par[i].Value) != string(serial[i].Value) {
			t.Fatalf("result %d differs: parallel %v serial %v", i, par[i], serial[i])
		}
	}
}

// TestParallelDocListPath checks the parallel executor on the docid-list
// access method (index narrows candidates, evaluation is re-run per doc).
func TestParallelDocListPath(t *testing.T) {
	db := newDB(t)
	col, err := db.CreateCollection("cat", CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seedCatalog(t, col, 40)
	if err := col.CreateValueIndex("by_price", "/Catalog/Categories/Product/RegPrice", xml.TDouble); err != nil {
		t.Fatal(err)
	}
	const q = "/Catalog/Categories/Product[RegPrice > 250]/ProductName"
	serial, plan, err := col.QueryOpts(q, QueryOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != "docid-list" {
		t.Skipf("planner chose %s, not docid-list", plan.Method)
	}
	par, _, err := col.QueryOpts(q, QueryOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(serial) {
		t.Fatalf("parallel returned %d results, serial %d", len(par), len(serial))
	}
	for i := range serial {
		if par[i].Doc != serial[i].Doc || nodeid.Compare(par[i].Node, serial[i].Node) != 0 {
			t.Fatalf("result %d differs: parallel %v serial %v", i, par[i], serial[i])
		}
	}
}

// TestConcurrentReadersOneWriter runs parallel queries from several
// goroutines while a writer keeps inserting — the read path must be
// race-free (run under -race) and every query must see whole documents.
func TestConcurrentReadersOneWriter(t *testing.T) {
	db := newDB(t)
	col, err := db.CreateCollection("cat", CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seedCatalog(t, col, 10)
	const q = "/Catalog/Categories/Product[RegPrice > 0]/ProductName"

	var wg sync.WaitGroup
	stop := make(chan struct{})
	const readers = 4
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				rs, _, err := col.QueryOpts(q, QueryOptions{Parallelism: 4})
				if err != nil {
					errs <- err
					return
				}
				// Inserts only add matches; counts must never shrink.
				if len(rs) < prev {
					errs <- fmt.Errorf("result count shrank: %d -> %d", prev, len(rs))
					return
				}
				prev = len(rs)
			}
		}()
	}
	for i := 10; i < 60; i++ {
		doc := catalogDoc(i, float64(100+i*10), 0.1, fmt.Sprintf("Widget %03d", i))
		mustInsert(t, col, []byte(doc))
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	rs, _, err := col.QueryOpts(q, QueryOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 60 {
		t.Fatalf("expected 60 matches after writer finished, got %d", len(rs))
	}
}

// pricedProducts selects every Product of a seedCatalog collection (prices
// are positive); cheapProducts selects none.
const (
	pricedProducts = "/Catalog/Categories/Product[RegPrice >= 0]"
	cheapProducts  = "/Catalog/Categories/Product[RegPrice < 0]"
)

// indexedCatalog seeds n catalog documents and indexes their prices, so the
// price queries above admit every access method shape: scan, docid-list,
// nodeid-list and nodeid-filtering.
func indexedCatalog(t *testing.T, n int) *Collection {
	t.Helper()
	db := newDB(t)
	col, err := db.CreateCollection("cat", CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seedCatalog(t, col, n)
	if err := col.CreateValueIndex("by_price", "/Catalog/Categories/Product/RegPrice", xml.TDouble); err != nil {
		t.Fatal(err)
	}
	return col
}

// methodsOf lists every access method the planner prices for expr.
func methodsOf(t *testing.T, col *Collection, expr string) []string {
	t.Helper()
	p, err := col.Plan(expr, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, a := range p.Alternatives {
		out = append(out, a.Method)
	}
	if len(out) < 4 {
		t.Fatalf("%s admits only %v; the fixture should admit every method shape", expr, out)
	}
	return out
}

// TestQueryCtxCancel checks that a cancelled context aborts every access
// method, serial and parallel, with ctx.Err(): up front when the context is
// already done, and between candidates when it is cancelled mid-stream.
func TestQueryCtxCancel(t *testing.T) {
	col := indexedCatalog(t, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range methodsOf(t, col, pricedProducts) {
		for _, par := range cursorParallelism {
			_, _, err := col.QueryOpts(pricedProducts, QueryOptions{Ctx: ctx, Parallelism: par, ForceMethod: m})
			if err != context.Canceled {
				t.Errorf("%s, parallelism %d: expected context.Canceled, got %v", m, par, err)
			}
		}
		// The caller's goroutine checks the context before each candidate
		// it hands on, whoever visited it.
		for _, par := range cursorParallelism {
			ctx, cancel := context.WithCancel(context.Background())
			cur, err := col.Cursor(pricedProducts, QueryOptions{Ctx: ctx, Parallelism: par, ForceMethod: m})
			if err != nil {
				t.Fatal(err)
			}
			if !cur.Next() {
				t.Fatalf("%s: no first result: %v", m, cur.Err())
			}
			cancel()
			for cur.Next() {
			}
			if err := cur.Err(); err != context.Canceled {
				t.Errorf("%s, parallelism %d: cancelled mid-stream, Err = %v, want context.Canceled", m, par, err)
			}
			cur.Close()
		}
	}
}

// cursorParallelism is what the cursor tests run every method at: the
// engine's choice (0), serial, the caller with one helper, and with three.
var cursorParallelism = []int{0, 1, 2, 4}

// TestCursorSemantics exercises the streaming contract on every access
// method: empty results, early Close, exhaustion, and Limit.
func TestCursorSemantics(t *testing.T) {
	col := indexedCatalog(t, 12)
	methods := methodsOf(t, col, pricedProducts)

	t.Run("empty", func(t *testing.T) {
		for _, m := range methods {
			for _, par := range cursorParallelism {
				cur, err := col.Cursor(cheapProducts, QueryOptions{Parallelism: par, ForceMethod: m})
				if err != nil {
					t.Fatal(err)
				}
				if cur.Next() {
					t.Fatalf("%s: Next returned true on empty result set", m)
				}
				if cur.Err() != nil {
					t.Fatalf("%s: Err after exhaustion: %v", m, cur.Err())
				}
				cur.Close()
			}
		}
	})

	t.Run("early close", func(t *testing.T) {
		leakcheck.Check(t)
		for _, m := range methods {
			for _, par := range cursorParallelism {
				mem := memgov.New("test", 0)
				cur, err := col.Cursor(pricedProducts, QueryOptions{Parallelism: par, ForceMethod: m, Mem: mem})
				if err != nil {
					t.Fatal(err)
				}
				if !cur.Next() {
					t.Fatalf("%s, parallelism %d: expected at least one result", m, par)
				}
				if err := cur.Close(); err != nil {
					t.Fatal(err)
				}
				if cur.Next() {
					t.Fatalf("%s: Next returned true after Close", m)
				}
				if cur.Err() != nil {
					t.Fatalf("%s: Err after early Close: %v", m, cur.Err())
				}
				if err := cur.Close(); err != nil {
					t.Fatal("second Close errored:", err)
				}
				if u := mem.Used(); u != 0 {
					t.Fatalf("%s, parallelism %d: %d budget bytes still charged after Close", m, par, u)
				}
			}
		}
	})

	t.Run("exhaustion", func(t *testing.T) {
		for _, m := range methods {
			for _, par := range cursorParallelism {
				cur, err := col.Cursor(pricedProducts, QueryOptions{Parallelism: par, ForceMethod: m})
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for cur.Next() {
					if len(cur.Result().Node) == 0 {
						t.Fatalf("%s: result with empty node ID", m)
					}
					n++
				}
				if n != 12 {
					t.Fatalf("%s: expected 12 results, got %d", m, n)
				}
				if cur.Next() {
					t.Fatalf("%s: Next returned true after exhaustion", m)
				}
				if cur.Err() != nil {
					t.Fatalf("%s: Err after exhaustion: %v", m, cur.Err())
				}
				cur.Close()
			}
		}
	})

	// A Limit closes the cursor early: no helper may outlive it (the
	// leak check runs when the subtest ends) and no budget charge either.
	t.Run("limit", func(t *testing.T) {
		leakcheck.Check(t)
		for _, m := range methods {
			for _, par := range cursorParallelism {
				mem := memgov.New("test", 0)
				cur, err := col.Cursor(pricedProducts, QueryOptions{Parallelism: par, Limit: 5, ForceMethod: m, Mem: mem})
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for cur.Next() {
					n++
				}
				if n != 5 {
					t.Fatalf("%s, parallelism %d: Limit 5 yielded %d results", m, par, n)
				}
				if cur.Err() != nil {
					t.Fatalf("%s: Err after limit: %v", m, cur.Err())
				}
				cur.Close()
				if u := mem.Used(); u != 0 {
					t.Fatalf("%s, parallelism %d: %d budget bytes still charged after Close", m, par, u)
				}
			}
		}
	})
}

// TestDefaultParallelismFollowsWork: with Parallelism 0 the cursor starts
// helpers only when the plan's priced work for its candidates exceeds
// fanOutCost, and never more workers than GOMAXPROCS. A docid-list query
// over a handful of small documents runs on the caller's goroutine alone; a
// scan over a hundred runs on every processor there is, up to two. Both
// return exactly the serial results.
func TestDefaultParallelismFollowsWork(t *testing.T) {
	col := indexedCatalog(t, 100)
	serialResults := func(expr string) []Result {
		t.Helper()
		rs, _, err := col.QueryOpts(expr, QueryOptions{Parallelism: 1, NeedValues: true})
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	same := func(expr string, got []Result) {
		t.Helper()
		want := serialResults(expr)
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, serial %d", expr, len(got), len(want))
		}
		for i := range want {
			if got[i].Doc != want[i].Doc || nodeid.Compare(got[i].Node, want[i].Node) != 0 ||
				string(got[i].Value) != string(want[i].Value) {
				t.Fatalf("%s: result %d is %v, serial %v", expr, i, got[i], want[i])
			}
		}
	}

	// Five candidates priced far below one helper's cost.
	const few = "/Catalog/Categories/Product[RegPrice < 150]/ProductName"
	before := runtime.NumGoroutine()
	cur, err := col.Cursor(few, QueryOptions{NeedValues: true})
	if err != nil {
		t.Fatal(err)
	}
	p := cur.Plan()
	if p.Method != "docid-list" || p.CandidateDocs != 5 {
		t.Fatalf("%s planned %s over %d candidates, want docid-list over 5", few, p.Method, p.CandidateDocs)
	}
	if w := float64(p.CandidateDocs) * p.perCandidate; w >= fanOutCost {
		t.Fatalf("%s: priced work %.1f is not below fanOutCost %d", few, w, fanOutCost)
	}
	var got []Result
	for cur.Next() {
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%s: %d goroutines while iterating, %d before", few, n, before)
		}
		got = append(got, cur.Result())
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if p.Parallelism != 1 {
		t.Fatalf("%s: parallelism %d, want 1", few, p.Parallelism)
	}
	same(few, got)

	// A hundred candidates (Discount is not indexed): priced past
	// fanOutCost.
	const all = "/Catalog/Categories/Product[Discount > 0]/ProductName"
	rs, p, err := col.QueryOpts(all, QueryOptions{NeedValues: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Method != "scan" || float64(p.CandidateDocs)*p.perCandidate < fanOutCost {
		t.Fatalf("%s planned %s over %d candidates at %.1f each: not priced past fanOutCost %d",
			all, p.Method, p.CandidateDocs, p.perCandidate, fanOutCost)
	}
	if want := min(runtime.GOMAXPROCS(0), 2); p.Parallelism != want {
		t.Fatalf("%s: parallelism %d with GOMAXPROCS %d, want %d", all, p.Parallelism, runtime.GOMAXPROCS(0), want)
	}
	same(all, rs)
}
