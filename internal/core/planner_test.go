package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rx/internal/xml"
)

func plannerDB(t *testing.T) *Collection {
	t.Helper()
	db := newDB(t)
	col, _ := db.CreateCollection("emp", CollectionOptions{})
	for i := 0; i < 30; i++ {
		doc := fmt.Sprintf(
			`<emp><name>Emp %02d</name><hire>%d-0%d-15</hire><salary>%d.50</salary></emp>`,
			i, 1990+i, i%9+1, 30000+i*1000)
		if _, err := col.Insert([]byte(doc)); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(col.CreateValueIndex("ix_name", "/emp/name", xml.TString))
	must(col.CreateValueIndex("ix_hire", "/emp/hire", xml.TDate))
	must(col.CreateValueIndex("ix_salary", "/emp/salary", xml.TDecimal))
	return col
}

func TestPlannerStringIndex(t *testing.T) {
	col := plannerDB(t)
	res, plan, err := col.QueryOpts(`/emp[name = 'Emp 07']`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != "nodeid-list" || len(plan.Indexes) != 1 || plan.Indexes[0] != "ix_name" {
		t.Errorf("plan = %+v", plan)
	}
	if len(res) != 1 {
		t.Errorf("results = %d", len(res))
	}
	// Range over strings.
	res, plan, _ = col.QueryOpts(`/emp[name < 'Emp 03']`, QueryOptions{})
	if plan.Method == "scan" {
		t.Errorf("string range should use the index: %+v", plan)
	}
	if len(res) != 3 {
		t.Errorf("results = %d", len(res))
	}
}

func TestPlannerDateIndex(t *testing.T) {
	col := plannerDB(t)
	res, plan, err := col.QueryOpts(`/emp[hire >= '2015-01-01']`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != "nodeid-list" || plan.Indexes[0] != "ix_hire" {
		t.Errorf("plan = %+v", plan)
	}
	if len(res) != 5 { // 2015..2019
		t.Errorf("results = %d", len(res))
	}
	// A string literal that is not a date cannot use the date index.
	_, plan2, err := col.QueryOpts(`/emp[hire = 'not-a-date']`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Method != "scan" {
		t.Errorf("non-date literal should fall back to scan, got %s", plan2.Method)
	}
}

func TestPlannerDecimalIndex(t *testing.T) {
	col := plannerDB(t)
	res, plan, err := col.QueryOpts(`/emp[salary >= 55000]`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != "nodeid-list" || plan.Indexes[0] != "ix_salary" {
		t.Errorf("plan = %+v", plan)
	}
	scan, _, _ := col.QueryOpts(`//emp[salary >= 55000]`, QueryOptions{})
	if len(res) != len(scan) {
		t.Errorf("decimal index results %d vs scan %d", len(res), len(scan))
	}
}

func TestPlannerNERejected(t *testing.T) {
	col := plannerDB(t)
	_, plan, err := col.QueryOpts(`/emp[name != 'Emp 07']`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != "scan" {
		t.Errorf("!= has no index range; plan = %s", plan.Method)
	}
}

func TestPlannerExistencePredicateForcesReeval(t *testing.T) {
	col := plannerDB(t)
	// [name] existence is not indexable (unparsable values would be missed);
	// with an extra indexed conjunct the plan may narrow docs but must not
	// claim exactness.
	res, plan, err := col.QueryOpts(`/emp[salary >= 55000 and name]`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Exact {
		t.Errorf("existence conjunct must force re-evaluation: %+v", plan)
	}
	scan, _, _ := col.QueryOpts(`//emp[salary >= 55000 and name]`, QueryOptions{})
	if len(res) != len(scan) {
		t.Errorf("results %d vs scan %d", len(res), len(scan))
	}
}

func TestPlannerDescendantSpineNotExact(t *testing.T) {
	col := plannerDB(t)
	// A descendant spine cannot use node-level prefixes; it must still get
	// the right answer through doc-level filtering.
	res, plan, err := col.QueryOpts(`//emp[name = 'Emp 07']`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Exact {
		t.Errorf("descendant spine must not be exact: %+v", plan)
	}
	if len(res) != 1 {
		t.Errorf("results = %d", len(res))
	}
}

// TestKeyListSort checks the candidate sort against a comparison sort on
// keys whose DocIDs span several radix passes and whose documents hold
// several node keys each.
func TestKeyListSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, maxDoc := range []int64{200, 70000, 1 << 40} {
		l := &keyList{}
		var keys []candidate
		for i := 0; i < 3000; i++ {
			lo := len(l.ids)
			for d := rng.Intn(3); d > 0; d-- {
				l.ids = append(l.ids, byte(2+2*rng.Intn(3)))
			}
			keys = append(keys, candidate{xml.DocID(rng.Int63n(maxDoc)), uint32(lo), uint32(len(l.ids))})
		}
		want := slices.Clone(keys)
		slices.SortStableFunc(want, l.compare)
		got := l.sort(keys)
		for i := range want {
			if l.compare(got[i], want[i]) != 0 {
				t.Fatalf("max doc %d: key %d = (%d, %s), want (%d, %s)", maxDoc, i,
					got[i].doc, l.node(got[i]), want[i].doc, l.node(want[i]))
			}
		}
	}
}
