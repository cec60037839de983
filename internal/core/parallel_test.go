package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

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
		for _, par := range []int{1, 4} {
			_, _, err := col.QueryOpts(pricedProducts, QueryOptions{Ctx: ctx, Parallelism: par, ForceMethod: m})
			if err != context.Canceled {
				t.Errorf("%s, parallelism %d: expected context.Canceled, got %v", m, par, err)
			}
		}
		// A serial cursor checks the context before each candidate.
		ctx, cancel := context.WithCancel(context.Background())
		cur, err := col.Cursor(pricedProducts, QueryOptions{Ctx: ctx, Parallelism: 1, ForceMethod: m})
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
			t.Errorf("%s: cancelled mid-stream, Err = %v, want context.Canceled", m, err)
		}
		cur.Close()
	}
}

// TestCursorSemantics exercises the streaming contract on every access
// method: empty results, early Close, exhaustion, and Limit.
func TestCursorSemantics(t *testing.T) {
	col := indexedCatalog(t, 12)
	methods := methodsOf(t, col, pricedProducts)

	t.Run("empty", func(t *testing.T) {
		for _, m := range methods {
			cur, err := col.Cursor(cheapProducts, QueryOptions{ForceMethod: m})
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
	})

	t.Run("early close", func(t *testing.T) {
		for _, m := range methods {
			for _, par := range []int{1, 4} {
				cur, err := col.Cursor(pricedProducts, QueryOptions{Parallelism: par, ForceMethod: m})
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
			}
		}
	})

	t.Run("exhaustion", func(t *testing.T) {
		for _, m := range methods {
			cur, err := col.Cursor(pricedProducts, QueryOptions{Parallelism: 2, ForceMethod: m})
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
	})

	t.Run("limit", func(t *testing.T) {
		for _, m := range methods {
			for _, par := range []int{1, 4} {
				cur, err := col.Cursor(pricedProducts, QueryOptions{Parallelism: par, Limit: 5, ForceMethod: m})
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
			}
		}
	})
}
