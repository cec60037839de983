package session

import (
	"context"
	"fmt"
	"testing"

	"rx/internal/xml"
)

// TestPlanCacheHitsAndEpochInvalidation pins the session plan-cache
// contract: repeated queries hit, index DDL and statistics refreshes bump
// the epoch and miss, ForceMethod bypasses, and counters surface in
// DB.Stats().
func TestPlanCacheHitsAndEpochInvalidation(t *testing.T) {
	db := newDB(t)
	s := New(db)
	ctx := context.Background()
	if err := s.CreateCollection(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		doc := fmt.Sprintf(`<p><price>%d</price></p>`, i*10)
		if _, err := s.Insert(ctx, "c", []byte(doc)); err != nil {
			t.Fatal(err)
		}
	}
	counters := func() (hits, misses uint64) {
		st := db.Stats()
		return st.PlanCacheHits, st.PlanCacheMisses
	}
	query := func() {
		t.Helper()
		cur, err := s.Query(ctx, "c", `/p[price < 55]`)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for cur.Next() {
			n++
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		cur.Close()
		if n != 6 {
			t.Fatalf("results = %d, want 6", n)
		}
	}

	query() // cold: miss
	query() // cached: hit
	h, m := counters()
	if h != 1 || m != 1 {
		t.Fatalf("after two queries: hits=%d misses=%d, want 1/1", h, m)
	}

	// Explain shares the cache.
	if _, err := s.Explain(ctx, "c", `/p[price < 55]`); err != nil {
		t.Fatal(err)
	}
	if h, m = counters(); h != 2 || m != 1 {
		t.Fatalf("after explain: hits=%d misses=%d, want 2/1", h, m)
	}

	// Index DDL bumps the stats epoch: the next lookup must miss (and the
	// re-planned query now uses the index).
	if err := s.CreateValueIndex(ctx, "c", "ix", "/p/price", xml.TDouble); err != nil {
		t.Fatal(err)
	}
	query()
	if h, m = counters(); h != 2 || m != 2 {
		t.Fatalf("after DDL: hits=%d misses=%d, want 2/2", h, m)
	}
	p, err := s.Explain(ctx, "c", `/p[price < 55]`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Method == "scan" {
		t.Fatalf("post-DDL plan should use the index, got %+v", p)
	}

	// A statistics refresh bumps the epoch again.
	c, err := db.Collection("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RefreshStats(); err != nil {
		t.Fatal(err)
	}
	hBefore, mBefore := counters()
	query()
	if h, m = counters(); h != hBefore || m != mBefore+1 {
		t.Fatalf("after refresh: hits=%d misses=%d, want %d/%d", h, m, hBefore, mBefore+1)
	}

	// ForceMethod bypasses the cache in both directions.
	hBefore, mBefore = counters()
	if _, err := s.Explain(ctx, "c", `/p[price < 55]`, ForceMethod("scan")); err != nil {
		t.Fatal(err)
	}
	if h, m = counters(); h != hBefore || m != mBefore {
		t.Fatalf("forced plan touched the cache: hits=%d misses=%d", h, m)
	}

	// NeedValues is part of the key: same expression, different key.
	cur, err := s.Query(ctx, "c", `/p[price < 55]`, NeedValues())
	if err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if _, m2 := counters(); m2 != mBefore+1 {
		t.Fatalf("NeedValues variant should miss: misses=%d, want %d", m2, mBefore+1)
	}
}
