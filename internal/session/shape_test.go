package session

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"rx/internal/dom"
	"rx/internal/xml"
	"rx/internal/xmlparse"
	"rx/internal/xpath"
	"rx/internal/xpathdom"
)

// TestSessionShapeBesideIndexDDL: two sessions run one query shape, each
// with its own literals, while a third creates an index on each of the
// shape's paths. The two share the shape's prepared parse and evaluators
// until DDL replaces the collection's index set, and every answer — ID and
// value of each result — is the DOM evaluator's over the inserted texts.
// The first executions scan; the last, after the DDL, use the indexes.
func TestSessionShapeBesideIndexDDL(t *testing.T) {
	db := newDB(t)
	ctx := context.Background()
	admin := New(db)
	if err := admin.CreateCollection(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	var ids []xml.DocID
	trees := map[xml.DocID]*dom.Node{}
	for i := 0; i < 60; i++ {
		text := fmt.Sprintf(`<r><a>%d</a><b>%d</b><c>v%d</c></r>`, i%6, i, i)
		id, err := admin.Insert(ctx, "c", []byte(text))
		if err != nil {
			t.Fatal(err)
		}
		stream, err := xmlparse.Parse([]byte(text), db.Catalog(), xmlparse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if trees[id], err = dom.Build(stream); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	oracle := func(expr string) ([]string, error) {
		q, err := xpath.Parse(expr)
		if err != nil {
			return nil, err
		}
		ce, err := xpathdom.Compile(q, db.Catalog(), nil)
		if err != nil {
			return nil, err
		}
		var out []string
		for _, id := range ids {
			for _, n := range ce.Evaluate(trees[id]) {
				out = append(out, fmt.Sprintf("%d %s %s", id, n.ID, n.StringValue()))
			}
		}
		return out, nil
	}
	query := func(s *Session, expr string) ([]string, string, error) {
		cur, err := s.Query(ctx, "c", expr, NeedValues())
		if err != nil {
			return nil, "", err
		}
		defer cur.Close()
		var out []string
		for cur.Next() {
			r := cur.Result()
			out = append(out, fmt.Sprintf("%d %s %s", r.Doc, r.Node, r.Value))
		}
		return out, cur.Plan().Method, cur.Err()
	}

	started, ddlDone := make(chan struct{}, 2), make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := New(db)
			defer s.Close()
			after := 0 // executions begun after the DDL
			for i := 0; after < 20; i++ {
				select {
				case <-ddlDone:
					after++
				default:
				}
				lo := (7*i + 13*g) % 50
				expr := fmt.Sprintf(`/r[b >= %d and b < %d and a = %d]/c`, lo, lo+12, (i+g)%6)
				got, method, err := query(s, expr)
				if err == nil {
					var want []string
					if want, err = oracle(expr); err == nil && !slices.Equal(got, want) {
						err = fmt.Errorf("%s via %s: %q, DOM %q", expr, method, got, want)
					}
				}
				if err == nil && (i == 0) != (method == "scan") && (i == 0 || after > 0) {
					err = fmt.Errorf("%s: execution %d (%d after the DDL) ran as %s", expr, i, after, method)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if i == 0 {
					started <- struct{}{}
				}
			}
		}(g)
	}
	<-started
	<-started
	ddl := New(db)
	defer ddl.Close()
	for _, ix := range []struct {
		name, path string
		typ        xml.TypeID
	}{{"ix_b", "/r/b", xml.TDouble}, {"ix_a", "/r/a", xml.TDouble}, {"ix_c", "/r/c", xml.TString}} {
		if err := ddl.CreateValueIndex(ctx, "c", ix.name, ix.path, ix.typ); err != nil {
			t.Error(err)
		}
	}
	close(ddlDone)
	wg.Wait()
}
