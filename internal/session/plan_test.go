package session

import (
	"context"
	"fmt"
	"testing"

	"rx/internal/xml"
)

// drain runs a session query and returns its plan's method and row count.
func drain(t *testing.T, s *Session, expr string, opts ...QueryOption) (string, int) {
	t.Helper()
	cur, err := s.Query(context.Background(), "c", expr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	n := 0
	for cur.Next() {
		n++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return cur.Plan().Method, n
}

// explain returns the method a session's EXPLAIN chooses.
func explain(t *testing.T, s *Session, expr string, opts ...QueryOption) string {
	t.Helper()
	p, err := s.Explain(context.Background(), "c", expr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p.Method
}

// TestSessionPlanFlip is the planner's flip across a skewing batch, through
// one session: while `v >= 300` selects a sliver of the index, Query and
// Explain use it; once a batch buries the collection in documents whose
// every entry lands in that range, the same session's next Query and
// Explain scan, inside a transaction too. No plan the session made before
// the batch survives it.
func TestSessionPlanFlip(t *testing.T) {
	db := newDB(t)
	s := New(db)
	ctx := context.Background()
	if err := s.CreateCollection(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	doc := func(base, step int) []byte {
		d := `<r>`
		for j := 0; j < 16; j++ {
			d += fmt.Sprintf(`<v>%d</v>`, base+j*step)
		}
		return []byte(d + `</r>`)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Insert(ctx, "c", doc(i*16, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CreateValueIndex(ctx, "c", "ix", "/r/v", xml.TDouble); err != nil {
		t.Fatal(err)
	}
	const q = `/r[v >= 300]`
	if m, n := drain(t, s, q); m == "scan" || n != 2 {
		t.Fatalf("before the batch: %s returned %d rows, want an index plan and 2", m, n)
	}
	if m := explain(t, s, q); m == "scan" {
		t.Fatalf("before the batch: EXPLAIN chose %s, want an index plan", m)
	}

	batch := make([][]byte, 400)
	for i := range batch {
		batch[i] = doc(300, 1)
	}
	if _, err := s.InsertBatch(ctx, "c", batch); err != nil {
		t.Fatal(err)
	}
	if m, n := drain(t, s, q); m != "scan" || n != 402 {
		t.Fatalf("after the batch: %s returned %d rows, want scan and 402", m, n)
	}
	if m := explain(t, s, q); m != "scan" {
		t.Fatalf("after the batch: EXPLAIN chose %s, want scan", m)
	}
	if err := s.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if m, n := drain(t, s, q); m != "scan" || n != 402 {
		t.Fatalf("after the batch, in a transaction: %s returned %d rows, want scan and 402", m, n)
	}
	if err := s.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSessionPlansPerExecution: a session plans every execution from the
// collection as it stands. After index DDL the next Query and Explain use
// the index; ForceMethod runs the named method; Explain's method is the
// next Query's when no data changes in between; and the plan-cache
// counters the engine still reports read 0.
func TestSessionPlansPerExecution(t *testing.T) {
	db := newDB(t)
	s := New(db)
	ctx := context.Background()
	if err := s.CreateCollection(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Insert(ctx, "c", []byte(fmt.Sprintf(`<p><price>%d</price></p>`, i*10))); err != nil {
			t.Fatal(err)
		}
	}
	const q = `/p[price < 55]`
	agree := func(label string) string {
		t.Helper()
		e := explain(t, s, q)
		m, n := drain(t, s, q)
		if e != m || n != 6 {
			t.Fatalf("%s: EXPLAIN chose %s, the next query ran %s with %d rows, want equal methods and 6", label, e, m, n)
		}
		return m
	}
	if m := agree("unindexed"); m != "scan" {
		t.Fatalf("unindexed: ran %s, want scan", m)
	}

	if err := s.CreateValueIndex(ctx, "c", "ix", "/p/price", xml.TDouble); err != nil {
		t.Fatal(err)
	}
	if m := agree("after index DDL"); m == "scan" {
		t.Fatal("after index DDL: the next query still scans")
	}

	if m := explain(t, s, q, ForceMethod("scan")); m != "scan" {
		t.Fatalf("forced EXPLAIN chose %s, want scan", m)
	}
	if m, n := drain(t, s, q, ForceMethod("scan"), NeedValues()); m != "scan" || n != 6 {
		t.Fatalf("forced query ran %s with %d rows, want scan and 6", m, n)
	}
	agree("after forced plans")

	if st := db.Stats(); st.PlanCacheHits != 0 || st.PlanCacheMisses != 0 {
		t.Fatalf("plan-cache counters %d/%d, want 0/0", st.PlanCacheHits, st.PlanCacheMisses)
	}
}
