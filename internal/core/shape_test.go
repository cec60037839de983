package core

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"rx/internal/xpath"
)

// TestShapeKeepsNoLargeEvaluator: a shape keeps an idle evaluator only while
// everything it retains is small. An evaluator that accumulated a 1 MiB
// string value under a compared node (its texts spread over many records)
// or buffered thousands of candidates of one document is dropped on close;
// one that read small documents is kept for the shape's next execution.
func TestShapeKeepsNoLargeEvaluator(t *testing.T) {
	db := newDB(t)
	cases := []struct {
		name, q string
		doc     string
		keep    bool
	}{
		{"small", `/r[v = "x"]`, `<r><v>x</v><w>y</w></r>`, true},
		{"long-text", `/r[v = "x"]`, `<r><v>` + strings.Repeat("<t>"+strings.Repeat("t", 4<<10)+"</t>", 256) + `</v></r>`, false},
		{"many-matches", `/r//*`, `<r>` + strings.Repeat(`<e/>`, 20000) + `</r>`, false},
	}
	for _, tc := range cases {
		col, err := db.CreateCollection(tc.name, CollectionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mustInsert(t, col, []byte(tc.doc))
		for _, values := range []bool{false, true} {
			cur, err := col.Cursor(tc.q, QueryOptions{Parallelism: 1, NeedValues: values})
			if err != nil {
				t.Fatal(err)
			}
			sh := cur.Plan().shape
			drain(t, cur)
			sh.mu.Lock()
			free := sh.free[b2i(values)]
			sh.mu.Unlock()
			if kept := len(free) == 1; kept != tc.keep {
				t.Fatalf("%s values=%v: kept %d idle evaluators, want keep=%v", tc.name, values, len(free), tc.keep)
			}
			for _, e := range free {
				if r := e.Retained(); r > maxFreeEvalBytes {
					t.Fatalf("%s values=%v: kept an evaluator retaining %d bytes", tc.name, values, r)
				} else {
					t.Logf("%s values=%v: idle evaluator retains %d bytes", tc.name, values, r)
				}
			}
		}
	}
}

// TestShapeEvaluatorsBounded: however many cursors run one shape at once, it
// keeps at most shapeEvals idle evaluators per result kind.
func TestShapeEvaluatorsBounded(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	for i := 0; i < 4; i++ {
		mustInsert(t, col, []byte(fmt.Sprintf(`<r><v>%d</v></r>`, i)))
	}
	var curs []*Cursor
	for i := 0; i < 2*shapeEvals; i++ {
		cur, err := col.Cursor(fmt.Sprintf(`/r[v = %d]`, i), QueryOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		curs = append(curs, cur)
	}
	sh := curs[0].Plan().shape
	for _, cur := range curs {
		if cur.Plan().shape != sh {
			t.Fatal("texts of one shape prepared two shapes")
		}
		drain(t, cur)
	}
	if n := len(sh.free[0]); n != shapeEvals {
		t.Fatalf("%d idle evaluators after %d cursors closed, want %d", n, len(curs), shapeEvals)
	}
}

// TestShapeSetPastCap: a set keeps every shape while it has room. Once full,
// a shape seen once is planned but not kept, so shapes that do not repeat
// leave the kept ones be; a shape that misses again replaces a kept one.
func TestShapeSetPastCap(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	mustInsert(t, col, []byte(`<r><a0>1</a0></r>`))
	plan := func(q string) {
		t.Helper()
		if _, err := col.Plan(q, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	set := col.indexes()
	for i := 0; i < shapeCap; i++ {
		plan(fmt.Sprintf(`/r[a%d = 1]`, i))
	}
	if n := len(set.shapes); n != shapeCap {
		t.Fatalf("%d shapes kept after %d distinct ones, want %d", n, shapeCap, shapeCap)
	}
	before := maps.Clone(set.shapes)
	plan(`/r[b = 1]`)
	if !maps.Equal(set.shapes, before) {
		t.Fatal("a shape's first miss on a full set changed the kept shapes")
	}
	plan(`/r[b = 2]`)
	if n := len(set.shapes); n != shapeCap || set.shapes[liftKey(`/r[b = 1]`)] == nil {
		t.Fatalf("a shape's second miss on a full set: %d shapes kept, the shape kept %v; want %d and true",
			n, set.shapes[liftKey(`/r[b = 1]`)] != nil, shapeCap)
	}
}

func liftKey(q string) string {
	key, _, _ := xpath.Lift(q, nil, nil)
	return string(key)
}
