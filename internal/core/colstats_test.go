package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rx/internal/buffer"
	"rx/internal/heap"
	"rx/internal/nodeid"
	"rx/internal/pagestore"
	"rx/internal/xml"
	"rx/internal/xpath"
)

// TestIncrementalStats holds the statistics to a recount after every write
// path — inserts, deletes, the three edits, a bulk load, index DDL — and
// across Close/Open, on a plain and a versioned collection whose documents
// span records: documents against the DocID index, records and bytes
// against a scan of the XML table.
func TestIncrementalStats(t *testing.T) {
	store := pagestore.NewMemStore()
	db, err := Open(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc := func(i int) []byte {
		return []byte(fmt.Sprintf(`<r><v>%d</v><pad>%0*d</pad><g><w>%d</w><w>x</w></g></r>`, i, 40+i*17, i, i))
	}
	check := func(step string, col *Collection) {
		t.Helper()
		docs, err := col.DocIDs()
		if err != nil {
			t.Fatal(err)
		}
		var records, bytes int64
		if err := col.xmlTbl.Scan(func(_ heap.RID, row []byte) error {
			records++
			bytes += int64(len(row))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		s := col.StatsSnapshot()
		if s.DocCount != int64(len(docs)) || s.RecordCount != records || s.TotalDocBytes != bytes {
			t.Fatalf("%s %s: stats %d docs, %d records, %d bytes; recount %d, %d, %d",
				col.Name(), step, s.DocCount, s.RecordCount, s.TotalDocBytes, len(docs), records, bytes)
		}
	}
	node := func(col *Collection, q string) (xml.DocID, nodeid.ID) {
		t.Helper()
		res, _, err := col.QueryOpts(q, QueryOptions{})
		if err != nil || len(res) == 0 {
			t.Fatalf("%s: %d results, %v", q, len(res), err)
		}
		return res[0].Doc, res[0].Node
	}
	for _, versioned := range []bool{false, true} {
		col, err := db.CreateCollection(fmt.Sprint("c-", versioned), CollectionOptions{PackThreshold: 128, Versioned: versioned})
		if err != nil {
			t.Fatal(err)
		}
		check("empty", col)
		var ids []xml.DocID
		for i := 0; i < 10; i++ {
			ids = append(ids, mustInsert(t, col, doc(i)))
		}
		check("inserts", col)
		for _, id := range ids[:4] {
			if err := db.RunTxn(func(tx *Txn) error { return tx.Delete(col, id) }); err != nil {
				t.Fatal(err)
			}
		}
		check("deletes", col)
		d, text := node(col, `/r[v = 7]/pad/text()`)
		if err := db.RunTxn(func(tx *Txn) error {
			return tx.UpdateText(col, d, text, []byte(strings.Repeat("grown ", 80)))
		}); err != nil {
			t.Fatal(err)
		}
		check("UpdateText", col)
		d, g := node(col, `/r[v = 8]/g`)
		if err := db.RunTxn(func(tx *Txn) error {
			_, err := tx.InsertFragment(col, d, g, AsLastChild, []byte(`<w>`+strings.Repeat("y", 300)+`</w>`))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		check("InsertFragment", col)
		d, pad := node(col, `/r[v = 9]/pad`)
		if err := db.RunTxn(func(tx *Txn) error { return tx.DeleteSubtree(col, d, pad) }); err != nil {
			t.Fatal(err)
		}
		check("DeleteSubtree", col)
		var batch [][]byte
		for i := 100; i < 120; i++ {
			batch = append(batch, doc(i))
		}
		if _, err := txnInsertBatch(col, batch); err != nil {
			t.Fatal(err)
		}
		check("bulk load", col)
		// Index DDL: the very next plan of an indexable query uses the new
		// index, and its rows are the scan's.
		const q = `/r[v = 107]`
		if p, err := col.Plan(q, QueryOptions{}); err != nil || p.Method != "scan" {
			t.Fatalf("before index DDL: %s plans %+v (%v), want scan", q, p, err)
		}
		if err := col.CreateValueIndex("ix_v", "/r/v", xml.TDouble); err != nil {
			t.Fatal(err)
		}
		if p, err := col.Plan(q, QueryOptions{}); err != nil || p.Method == "scan" || !slices.Contains(p.Indexes, "ix_v") {
			t.Fatalf("after index DDL: %s plans %+v (%v), want ix_v", q, p, err)
		}
		plannerDifferentialQuery(t, col, q)
		check("index DDL", col)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, versioned := range []bool{false, true} {
		col, err := db.Collection(fmt.Sprint("c-", versioned))
		if err != nil {
			t.Fatal(err)
		}
		check("reopen", col)
	}
}

// flipDoc is a document with 16 <v> entries — many index entries per
// document, the shape where an unselective index walk costs more than
// scanning the documents themselves.
func flipDoc(vals [16]int) []byte {
	doc := `<r>`
	for _, v := range vals {
		doc += fmt.Sprintf(`<v>%d</v>`, v)
	}
	return []byte(doc + `</r>`)
}

// TestPlanFlipWithoutRefresh pins the headline planner behavior with no
// statistics refresh at all: while the predicate selects a sliver of the
// index the planner uses it, and once skewed inserts make the predicate match
// nearly every entry, the next plan of the same query is a scan. The
// estimate is a dive into the index as it stands, so nothing has to notice
// the skew first.
func TestPlanFlipWithoutRefresh(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	// Seed phase: 20 docs x 16 distinct values 0..319, under which `v >= 300`
	// matches only the top ~6% of entries.
	for i := 0; i < 20; i++ {
		var vals [16]int
		for j := range vals {
			vals[j] = i*16 + j
		}
		mustInsert(t, col, flipDoc(vals))
	}
	if err := col.CreateValueIndex("ix", "/r/v", xml.TDouble); err != nil {
		t.Fatal(err)
	}
	_, p, err := col.QueryOpts(`/r[v >= 300]`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Method == "scan" {
		t.Fatalf("selective range should use the index, got %+v", p)
	}

	// Skew phase: bury the collection in documents whose every entry lands in
	// the formerly sparse tail. v >= 300 now matches ~6400 of 6720 entries,
	// and walking them all costs more than evaluating the 420 documents
	// directly.
	var batch [][]byte
	for i := 0; i < 400; i++ {
		var vals [16]int
		for j := range vals {
			vals[j] = 300 + j
		}
		batch = append(batch, flipDoc(vals))
	}
	if _, err := txnInsertBatch(col, batch); err != nil {
		t.Fatal(err)
	}
	res, p, err := col.QueryOpts(`/r[v >= 300]`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Method != "scan" {
		t.Fatalf("with v>=300 matching ~every entry the planner should scan, got %+v", p)
	}
	if len(res) != 402 { // seed docs 18 and 19 (values 288..319) + the 400 skew docs
		t.Fatalf("results = %d, want 402", len(res))
	}

	// Deletes, with no refresh either: once three quarters of a Parts
	// collection are gone, every priced alternative — documents, record and
	// byte counts, the conjunct's entries and the filtering plan's anchors —
	// is the one a collection loaded with the survivors alone prices. The
	// index stays within one leaf, where every dive counts exactly.
	partsDoc := func(i int) []byte {
		doc := `<Order>`
		for j := 0; j <= i%4; j++ {
			doc += fmt.Sprintf(`<Part><Qty>%d</Qty><Note>%s</Note></Part>`, (i+j)%5, strings.Repeat("n", 10*i))
		}
		return []byte(doc + `</Order>`)
	}
	parts := func(name string, keep func(i int) bool) *Collection {
		col, err := db.CreateCollection(name, CollectionOptions{PackThreshold: 256})
		if err != nil {
			t.Fatal(err)
		}
		if err := col.CreateValueIndex("ix_qty", "/Order/Part/Qty", xml.TDouble); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if keep(i) {
				mustInsert(t, col, partsDoc(i))
			}
		}
		return col
	}
	survives := func(i int) bool { return i%4 == 1 }
	all := parts("parts", func(int) bool { return true })
	docs, err := all.DocIDs()
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range docs {
		if !survives(i) {
			if err := db.RunTxn(func(tx *Txn) error { return tx.Delete(all, id) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	fresh := parts("parts-fresh", survives)
	for _, q := range []string{`/Order/Part[Qty = 3]`, `/Order/Part[Qty >= 1]/Note`, `/Order[Part/Qty = 2]`} {
		got, err := all.Plan(q, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Plan(q, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Alternatives, want.Alternatives) {
			t.Fatalf("%s after deletes: alternatives %+v, a fresh load of the survivors %+v", q, got.Alternatives, want.Alternatives)
		}
		if !slices.ContainsFunc(got.Alternatives, func(a PlanAlt) bool { return a.Method == "nodeid-filtering" }) {
			t.Fatalf("%s prices no nodeid-filtering plan: %+v", q, got.Alternatives)
		}
	}
}

// TestForceMethodValidation pins the ForceMethod contract.
func TestForceMethodValidation(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	for i := 0; i < 5; i++ {
		mustInsert(t, col, []byte(fmt.Sprintf(`<r><v>%d</v></r>`, i)))
	}
	col.CreateValueIndex("ix", "/r/v", xml.TDouble)

	// Scan is always available.
	_, p, err := col.QueryOpts(`/r[v = 3]`, QueryOptions{ForceMethod: "scan"})
	if err != nil || p.Method != "scan" {
		t.Fatalf("forced scan: plan=%+v err=%v", p, err)
	}
	// A method the query does not admit fails planning.
	if _, _, err := col.QueryOpts(`/r[v = 3]`, QueryOptions{ForceMethod: "docid-oring"}); err == nil {
		t.Fatal("forcing an unavailable method must fail")
	}
	// The forced plan still records every priced alternative.
	if len(p.Alternatives) < 2 {
		t.Fatalf("alternatives = %+v", p.Alternatives)
	}
}

// differentialCorpus fills col with the seeded corpus the differential tests
// share (the planner oracle here, the scan-kernel skip oracle in
// scankernel_test.go) and returns the DocIDs. Mixed shapes: orders —
// single-record and multi-record, duplicate-heavy and distinct fields, so
// different queries admit different method sets — then catalogs with
// attributes and mixed content, the recursive a/b shape, and archives large
// enough that their entries sit behind proxies in several records. The
// collection's PackThreshold decides how many records a document spans.
func differentialCorpus(t *testing.T, rng *rand.Rand, col *Collection) []xml.DocID {
	t.Helper()
	var ids []xml.DocID
	for _, doc := range differentialDocs(rng) {
		id := mustInsert(t, col, []byte(doc))
		ids = append(ids, id)
	}
	return ids
}

// differentialDocs generates the corpus' documents (FuzzStoredRead draws its
// seeds from them).
func differentialDocs(rng *rand.Rand) []string {
	var docs []string
	add := func(doc string) { docs = append(docs, doc) }
	for i := 0; i < 60; i++ {
		items := 1 + rng.Intn(6)
		doc := `<order><hdr><cust>` + fmt.Sprintf("C%02d", rng.Intn(8)) + `</cust>` +
			fmt.Sprintf(`<total>%d</total>`, rng.Intn(1000)) + `</hdr><items>`
		for j := 0; j < items; j++ {
			doc += fmt.Sprintf(`<item><sku>S%03d</sku><qty>%d</qty></item>`, rng.Intn(40), 1+rng.Intn(9))
		}
		doc += `</items></order>`
		add(doc)
	}
	for i := 0; i < 6; i++ {
		doc := `<Catalog><Categories>`
		for j := 0; j < 3+rng.Intn(12); j++ {
			doc += fmt.Sprintf(`<Product pid="p%d" cat="%c"><ProductName>W%d</ProductName>`+
				`<RegPrice>%d.50</RegPrice><Discount>0.%d</Discount>`+
				`<Note>see <b>p%d</b> too<!--n%d--></Note></Product>`,
				j, 'a'+rune(rng.Intn(3)), rng.Intn(100), rng.Intn(300), 5*rng.Intn(6), rng.Intn(9), j)
		}
		doc += `</Categories><Footer>end</Footer></Catalog>`
		add(doc)
	}
	var rec func(depth int) string
	rec = func(depth int) string {
		if depth == 0 {
			return fmt.Sprintf(`<b>%d</b>`, rng.Intn(10))
		}
		out := `<a>`
		for k := 0; k < 1+rng.Intn(3); k++ {
			if rng.Intn(3) == 0 {
				out += fmt.Sprintf(`<b>%d</b>`, rng.Intn(10))
			} else {
				out += rec(depth - 1)
			}
		}
		return out + `</a>`
	}
	for i := 0; i < 8; i++ {
		add(rec(2 + rng.Intn(4)))
	}
	for i := 0; i < 3; i++ {
		doc := fmt.Sprintf(`<arch year="%d"><head><title>archive %d</title></head><entries>`, 2000+i, i)
		for j := 0; j < 40+rng.Intn(40); j++ {
			doc += fmt.Sprintf(`<entry n="%d"><who>C%02d</who><body>%s</body><qty>%d</qty></entry>`,
				j, rng.Intn(8), strings.Repeat("lorem ", 3+rng.Intn(10)), rng.Intn(10))
		}
		doc += `</entries><tail>done</tail></arch>`
		add(doc)
	}
	return docs
}

// TestPlannerDifferential is the planner oracle test: on two fixtures and a
// grid of queries, every access method the planner can produce must return
// byte-identical results to the forced full scan — serial and parallel, with
// values, under a Limit, and with one document quarantined. It is also the
// planner's golden file: every plan (method, probe order, exactness,
// estimates as float bits, and every priced alternative) is rendered and
// compared with testdata/planner.golden, so any drift in a cost or a choice
// fails here. Every query is planned cold (its shape not yet prepared), warm,
// and with other literals of the same shape, each plan held to a fresh parse
// that no prepared shape touched (shapePlans); the other literals' query
// runs the same differential as the query.
func TestPlannerDifferential(t *testing.T) {
	var golden strings.Builder
	for _, fx := range []struct {
		name  string
		build func(t *testing.T) (*Collection, []string)
	}{
		{"orders", plannerOrdersFixture},
		{"shapes", plannerShapesFixture},
	} {
		col, queries := fx.build(t)
		methods := map[string]bool{}
		for _, q := range queries {
			for _, values := range []bool{false, true} {
				p := shapePlans(t, col, q, values)
				renderPlan(&golden, fx.name, q, values, p)
				for _, a := range p.Alternatives {
					methods[a.Method] = true
				}
			}
			plannerDifferentialQuery(t, col, q)
			plannerDifferentialQuery(t, col, otherLiterals(t, q))
		}
		if fx.name == "shapes" && len(methods) != 7 {
			t.Fatalf("shapes fixture reaches %d access methods, want all 7: %v", len(methods), methods)
		}
	}
	const path = "testdata/planner.golden"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := golden.String(); got != string(want) {
		// Leave the rendering beside the golden file for a diff; copy it
		// over the golden file only when the plan change is deliberate.
		os.WriteFile(path+".got", []byte(got), 0o644)
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("plans differ from %s at line %d (rendering in %s.got):\n got  %s\n want %s", path, i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("plans differ from %s in length: %d lines, want %d (rendering in %s.got)", path, len(gl), len(wl), path)
	}
}

// shapePlans plans q on an index set with no shape prepared (cold), again
// (warm), and with otherLiterals, and holds each plan to the plan of a fresh
// parse; the warm and other-literal plans must come from the shape the cold
// one prepared. It returns the cold plan.
func shapePlans(t *testing.T, col *Collection, q string, values bool) *Plan {
	t.Helper()
	col.ixs.Store(&indexSet{ixs: col.indexSnapshot()})
	opts := QueryOptions{NeedValues: values}
	var cold *Plan
	for i, text := range []string{q, q, otherLiterals(t, q)} {
		p, err := col.Plan(text, opts)
		if err != nil {
			t.Fatalf("%s: plan: %v", text, err)
		}
		pq, err := xpath.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := col.selectAccessPath(newShape(pq, col.indexSnapshot()), pq.Lits, opts)
		if err != nil {
			t.Fatalf("%s: fresh plan: %v", text, err)
		}
		var got, want strings.Builder
		renderPlan(&got, "", text, values, p)
		renderPlan(&want, "", text, values, fresh)
		if got.String() != want.String() {
			t.Fatalf("plan %d of %s differs from a fresh parse's:\n%s\nwant\n%s", i, q, got.String(), want.String())
		}
		if i == 0 {
			cold = p
		} else if p.shape != cold.shape {
			t.Fatalf("%s: planned from a new parse, not from the shape %s prepared", text, q)
		}
	}
	return cold
}

// otherLiterals is q with every literal changed to another of its kind: a
// number plus one, a string with its last byte bumped.
func otherLiterals(t *testing.T, q string) string {
	_, slots, ok := xpath.Lift(q, nil, nil)
	if !ok {
		t.Fatalf("%s does not lift", q)
	}
	out, at := "", 0
	for _, sl := range slots {
		lit, err := xpath.BindLiteral(q, sl)
		if err != nil {
			t.Fatal(err)
		}
		text := strconv.FormatFloat(lit.Num+1, 'g', -1, 64)
		if !lit.IsNum {
			bumped := []byte(lit.Str + "a")[:max(1, len(lit.Str))]
			bumped[len(bumped)-1]++
			text = string(sl.Quote) + string(bumped) + string(sl.Quote)
		}
		out += q[at:sl.Pos] + text
		at = sl.End
	}
	return out + q[at:]
}

// TestPlannerDifferentialShapeSeesIndexDDL: a shape prepared while no index
// served it is not kept across index DDL — the next execution of the shape
// uses the new index, and its answer is the scan's.
func TestPlannerDifferentialShapeSeesIndexDDL(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	for i := 0; i < 40; i++ {
		mustInsert(t, col, []byte(fmt.Sprintf(`<r><a>%d</a><b>%d</b></r>`, i%4, i)))
	}
	before, err := col.Plan(`/r[b = 3]/a`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if before.Method != "scan" {
		t.Fatalf("before the index: %s, want scan", before.Method)
	}
	if err := col.CreateValueIndex("ix_b", "/r/b", xml.TDouble); err != nil {
		t.Fatal(err)
	}
	after, err := col.Plan(`/r[b = 5]/a`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Method == "scan" || !slices.Equal(after.Indexes, []string{"ix_b"}) {
		t.Fatalf("after the index: %s %v, want ix_b", after.Method, after.Indexes)
	}
	plannerDifferentialQuery(t, col, `/r[b = 5]/a`)
}

// TestPlannerDifferentialShapeSeesSingleValuedClear: a window on a
// single-valued index plans as one merged range; once a document with two
// values on the path clears SingleValued, the next execution of the same
// prepared shape keeps the two comparisons apart, and its answer — which
// the new document joins only existentially — is the scan's.
func TestPlannerDifferentialShapeSeesSingleValuedClear(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	for i := 0; i < 40; i++ {
		mustInsert(t, col, []byte(fmt.Sprintf(`<r><b>%d</b></r>`, i)))
	}
	if err := col.CreateValueIndex("ix_b", "/r/b", xml.TDouble); err != nil {
		t.Fatal(err)
	}
	alts := func(p *Plan) []string {
		var m []string
		for _, a := range p.Alternatives {
			m = append(m, a.Method)
		}
		return m
	}
	merged, err := col.Plan(`/r[b > 3 and b < 9]`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m := alts(merged); !slices.Contains(m, "nodeid-list") || slices.Contains(m, "nodeid-anding") {
		t.Fatalf("single-valued window: alternatives %v, want one merged nodeid-list", m)
	}
	mustInsert(t, col, []byte(`<r><b>1</b><b>30</b></r>`))
	if col.indexSnapshot()[0].single.Load() {
		t.Fatal("two values on the path left SingleValued set")
	}
	apart, err := col.Plan(`/r[b > 2 and b < 8]`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if apart.shape != merged.shape {
		t.Fatal("the second execution did not reuse the prepared shape")
	}
	if m := alts(apart); !slices.Contains(m, "nodeid-anding") {
		t.Fatalf("multi-valued window: alternatives %v, want nodeid-anding", m)
	}
	plannerDifferentialQuery(t, col, `/r[b > 2 and b < 8]`)
}

// renderPlan writes one plan as golden-file lines: costs as float64 bits, so
// the comparison is exact.
func renderPlan(b *strings.Builder, fixture, q string, values bool, p *Plan) {
	fmt.Fprintf(b, "%s %s values=%v\n  %s %v exact=%v est=%d cost=%x\n",
		fixture, q, values, p.Method, p.Indexes, p.Exact, p.EstDocs, math.Float64bits(p.EstCost))
	for _, a := range p.Alternatives {
		fmt.Fprintf(b, "  alt %s est=%d cost=%x\n", a.Method, a.EstDocs, math.Float64bits(a.EstCost))
	}
}

// plannerOrdersFixture is the seeded differential corpus with three indexes,
// and queries over its orders.
func plannerOrdersFixture(t *testing.T) (*Collection, []string) {
	rng := rand.New(rand.NewSource(41))
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{PackThreshold: 512})
	differentialCorpus(t, rng, col)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(col.CreateValueIndex("ix_cust", "/order/hdr/cust", xml.TString))
	must(col.CreateValueIndex("ix_total", "/order/hdr/total", xml.TDouble))
	must(col.CreateValueIndex("ix_qty", "//qty", xml.TDouble))

	queries := []string{
		`/order/hdr[cust = 'C03']`,
		`/order/hdr[total < 500]`,
		`/order/hdr[cust = 'C01' and total >= 200]`,
		`/order/hdr[cust = 'C05' or total > 900]`,
		`/order/items/item[qty = 3]`,
		`/order/items/item[qty >= 8]/sku`,
		`/order/hdr[total >= 100 and total < 700]`,
		`//item[qty = 5]`,
	}
	// Randomized equality probes widen the grid.
	for i := 0; i < 10; i++ {
		queries = append(queries, fmt.Sprintf(`/order/hdr[cust = 'C%02d']`, rng.Intn(10)))
		queries = append(queries, fmt.Sprintf(`/order/items/item[qty > %d]`, rng.Intn(10)))
	}
	return col, queries
}

// plannerShapesFixture is 60 small documents of one shape, indexed so that
// its queries reach all seven access methods, among them an attribute
// nodeid-list. Windows on one index are merged into one range where the path
// is single-valued (b) or the leaf is the anchor itself (.), and stay
// *-anding on the multi-valued /r/g/v, whose documents hold values on both
// sides of the window (existential comparison: v = 3 and v = 6 satisfy
// [g/v > 3 and g/v < 6]).
func plannerShapesFixture(t *testing.T) (*Collection, []string) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	for i := 0; i < 60; i++ {
		doc := fmt.Sprintf(`<r k="%d"><a>%d</a><b>%d</b><g><v>%d</v><w>%d</w></g><g><v>%d</v></g></r>`,
			i%5, i%2, i, i%10, i%7, (i+3)%10)
		mustInsert(t, col, []byte(doc))
	}
	for _, ix := range [][2]string{{"ix_a", "/r/a"}, {"ix_b", "/r/b"}, {"ix_v", "/r/g/v"}, {"ix_k", "/r/@k"}} {
		if err := col.CreateValueIndex(ix[0], ix[1], xml.TDouble); err != nil {
			t.Fatal(err)
		}
	}
	return col, []string{
		`/r[a = 1 and b = 7]`,
		`/r[a = 1 and b >= 0]`,
		`/r[b > 3 and b < 9]`,
		`/r/g[v = 3]`,
		`/r/g[v = 3]/w`,
		`/r[@k = 2]`,
		`/r[a = 1 or b = 3]`,
		`/r[g/v = 2]/b`,
		`/r[b = 1 and b = 1]`,
		`/r[a = 1 and g/v = 3]`,
		`/r[g/v > 3 and g/v < 6]`,
		`/r/g/v[. > 3 and . < 6]`,
	}
}

// plannerDifferentialQuery checks every alternative the planner prices for q
// against the forced scan.
func plannerDifferentialQuery(t *testing.T, col *Collection, q string) {
	t.Helper()
	want, wantPlan, err := col.QueryOpts(q, QueryOptions{ForceMethod: "scan", Parallelism: 1, NeedValues: true})
	if err != nil {
		t.Fatalf("%s: scan oracle: %v", q, err)
	}
	compare := func(label string, got, want []Result, values bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s via %s: %d results, scan %d", q, label, len(got), len(want))
		}
		for i := range got {
			if got[i].Doc != want[i].Doc || got[i].Node.String() != want[i].Node.String() ||
				values && string(got[i].Value) != string(want[i].Value) {
				t.Fatalf("%s via %s: result %d = %v, scan %v", q, label, i, got[i], want[i])
			}
		}
	}
	chosen, _, err := col.QueryOpts(q, QueryOptions{})
	if err != nil {
		t.Fatalf("%s: costed plan: %v", q, err)
	}
	compare("costed:"+wantPlan.Method, chosen, want, false)
	// Every candidate the planner priced must agree with the oracle,
	// serial and on the worker pool, with and without values, and a
	// Limit must stop at the oracle's first results.
	for _, alt := range wantPlan.Alternatives {
		for _, par := range []int{1, 4} {
			for _, values := range []bool{false, true} {
				label := fmt.Sprintf("%s/par=%d/values=%v", alt.Method, par, values)
				opts := QueryOptions{ForceMethod: alt.Method, Parallelism: par, NeedValues: values}
				got, p, err := col.QueryOpts(q, opts)
				if err != nil {
					t.Fatalf("%s forced %s: %v", q, label, err)
				}
				if p.Method != alt.Method {
					t.Fatalf("%s forced %s ran as %s", q, alt.Method, p.Method)
				}
				compare(label, got, want, values)
				opts.Limit = 3
				if got, _, err = col.QueryOpts(q, opts); err != nil {
					t.Fatalf("%s forced %s limit 3: %v", q, label, err)
				}
				compare(label+"/limit=3", got, want[:min(3, len(want))], values)
			}
		}
	}
	if len(want) == 0 {
		return
	}
	// One quarantined document — the first with results, so every
	// method lists it — is skipped by a degraded query and fails any
	// other with a typed error, whichever access method runs.
	victim := want[0].Doc
	var rest []Result
	for _, r := range want {
		if r.Doc != victim {
			rest = append(rest, r)
		}
	}
	col.db.Quarantine(col.Name(), victim, "differential", pagestore.InvalidPage)
	defer col.db.ClearQuarantine(col.Name(), victim)
	for _, alt := range wantPlan.Alternatives {
		for _, par := range []int{1, 4} {
			label := fmt.Sprintf("%s/par=%d/degraded", alt.Method, par)
			cur, err := col.Cursor(q, QueryOptions{ForceMethod: alt.Method, Parallelism: par, NeedValues: true, Degraded: true})
			if err != nil {
				t.Fatalf("%s forced %s: %v", q, label, err)
			}
			var got []Result
			for cur.Next() {
				got = append(got, cur.Result())
			}
			if err := cur.Err(); err != nil {
				t.Fatalf("%s forced %s: %v", q, label, err)
			}
			compare(label, got, rest, true)
			if cur.Skipped() != 1 {
				t.Fatalf("%s forced %s: Skipped() = %d, want 1", q, label, cur.Skipped())
			}
			cur.Close()
			var qe ErrQuarantined
			if _, _, err := col.QueryOpts(q, QueryOptions{ForceMethod: alt.Method, Parallelism: par}); !errors.As(err, &qe) || qe.Doc != victim {
				t.Fatalf("%s forced %s/par=%d without Degraded: err %v, want ErrQuarantined for doc %d", q, alt.Method, par, err, victim)
			}
		}
	}
}

// TestDeterministicProbeOrder pins the satellite: with two usable indexes the
// probe order is by estimated selectivity, ties broken by name, and repeat
// planning yields the identical plan.
func TestDeterministicProbeOrder(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	for i := 0; i < 40; i++ {
		// a: 2 distinct values (unselective); b: 40 distinct (selective).
		doc := fmt.Sprintf(`<r><a>%d</a><b>%d</b></r>`, i%2, i)
		mustInsert(t, col, []byte(doc))
	}
	col.CreateValueIndex("ix_a", "/r/a", xml.TDouble)
	col.CreateValueIndex("ix_b", "/r/b", xml.TDouble)
	var first *Plan
	for i := 0; i < 5; i++ {
		_, p, err := col.QueryOpts(`/r[a = 1 and b = 7]`, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Indexes) == 0 || p.Indexes[0] != "ix_b" {
			t.Fatalf("probe order = %v, want ix_b (most selective) first", p.Indexes)
		}
		if first == nil {
			first = p
			continue
		}
		if p.Method != first.Method || len(p.Indexes) != len(first.Indexes) {
			t.Fatalf("plan not deterministic: %+v vs %+v", p, first)
		}
		for j := range p.Indexes {
			if p.Indexes[j] != first.Indexes[j] {
				t.Fatalf("probe order not deterministic: %v vs %v", p.Indexes, first.Indexes)
			}
		}
	}
}

// TestExplainEstimates sanity-checks Plan cost fields end to end in core.
func TestExplainEstimates(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	for i := 0; i < 30; i++ {
		mustInsert(t, col, []byte(fmt.Sprintf(`<r><v>%d</v></r>`, i)))
	}
	col.CreateValueIndex("ix", "/r/v", xml.TDouble)
	p, err := col.Plan(`/r[v = 7]`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.EstCost <= 0 {
		t.Fatalf("EstCost = %f", p.EstCost)
	}
	if p.EstDocs < 1 || p.EstDocs > 5 {
		t.Fatalf("EstDocs = %d for a 1-in-30 equality", p.EstDocs)
	}
	if len(p.Alternatives) < 2 {
		t.Fatalf("alternatives = %+v", p.Alternatives)
	}
	// Alternatives come cheapest first and include the chosen method.
	prev := -1.0
	seen := false
	for _, a := range p.Alternatives {
		if a.EstCost < prev {
			t.Fatalf("alternatives not sorted: %+v", p.Alternatives)
		}
		prev = a.EstCost
		if a.Method == p.Method {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("chosen method missing from alternatives: %+v", p)
	}
	if p.Alternatives[0].Method != p.Method {
		t.Fatalf("chosen %s is not the cheapest alternative %+v", p.Method, p.Alternatives[0])
	}
}

// TestCatalogRowFitsPathVariety: a collection of hundreds of long, distinct
// element paths reopens and plans its indexed query, and its catalog row is
// the row of a collection with one path shape: nothing the row holds grows
// with the documents' paths.
func TestCatalogRowFitsPathVariety(t *testing.T) {
	const n = 400
	long := strings.Repeat("x", 40)
	load := func(name func(i int) string) pagestore.Store {
		store := pagestore.NewMemStore()
		db, err := Open(store, Options{})
		if err != nil {
			t.Fatal(err)
		}
		col, _ := db.CreateCollection("orders", CollectionOptions{})
		if err := col.CreateValueIndex("ix_total", "/order/total", xml.TDouble); err != nil {
			t.Fatal(err)
		}
		docs := make([][]byte, n)
		for i := range docs {
			docs[i] = []byte(fmt.Sprintf(`<order><total>%d</total><%s>1</%s></order>`, i, name(i), name(i)))
		}
		if _, err := txnInsertBatch(col, docs); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return store
	}
	store := load(func(i int) string { return fmt.Sprintf("%s%03d", long, i) })
	uniform := load(func(int) string { return long + "000" })
	row, _ := collectionRow(t, store, "orders")
	if want, _ := collectionRow(t, uniform, "orders"); string(row) != string(want) {
		t.Fatalf("catalog row depends on path variety:\n %s\nwith one path shape:\n %s", row, want)
	}

	db2, err := Open(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	col2, err := db2.Collection("orders")
	if err != nil {
		t.Fatal(err)
	}
	if s := col2.StatsSnapshot(); s.DocCount != n {
		t.Fatalf("reopened stats: %d docs, want %d", s.DocCount, n)
	}
	res, p, err := col2.QueryOpts(`/order[total = 123]`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || p.Method == "scan" {
		t.Fatalf("indexed query after reopen: %d results via %+v", len(res), p)
	}
}

// collectionRow finds the named collection's catalog row in a closed store
// and returns its JSON and a function that overwrites it.
func collectionRow(t *testing.T, store pagestore.Store, name string) ([]byte, func([]byte)) {
	t.Helper()
	pool := buffer.New(store, 64)
	f, err := pool.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := heap.Open(pool, pagestore.PageID(binary.BigEndian.Uint32(f.Data[16:20])))
	pool.Unpin(f, false)
	if err != nil {
		t.Fatal(err)
	}
	var row []byte
	var at heap.RID
	err = cols.Scan(func(rid heap.RID, payload []byte) error {
		var c struct{ Name string }
		if json.Unmarshal(payload, &c) == nil && c.Name == name {
			row, at = append([]byte(nil), payload...), rid
		}
		return nil
	})
	if err != nil || row == nil {
		t.Fatalf("catalog row of %s: %v", name, err)
	}
	return row, func(payload []byte) {
		t.Helper()
		if err := cols.Update(at, payload); err != nil {
			t.Fatal(err)
		}
		if err := pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLegacyStatsRowOpens: a collection row that still carries the
// statistics object older databases persisted — document, record and byte
// counters and path counts, next to the per-index entry counts, distinct
// counts and histograms of still older ones — opens, plans, passes
// CheckConsistency, reads none of it (its counts are wrong on purpose), and
// loses it on its next row rewrite.
func TestLegacyStatsRowOpens(t *testing.T) {
	store := pagestore.NewMemStore()
	db, err := Open(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	col, _ := db.CreateCollection("c", CollectionOptions{})
	if err := col.CreateValueIndex("ix_v", "/r/v", xml.TDouble); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		mustInsert(t, col, []byte(fmt.Sprintf(`<r><v>%d</v></r>`, i)))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	row, update := collectionRow(t, store, "c")
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(row, &fields); err != nil {
		t.Fatal(err)
	}
	fields["Stats"] = json.RawMessage(`{"epoch":9,"docs":7,"records":7,"bytes":700,"maxBytes":100,` +
		`"paths":{"/r":7,"/r/v":7},` +
		`"indexes":{"ix_v":{"entries":40,"distinct":40,` +
		`"hist":{"buckets":[{"ub":"wEQAAAAAAAA=","n":40,"d":40}],"total":40}}}}`)
	if row, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	update(row)
	if row, _ = collectionRow(t, store, "c"); !strings.Contains(string(row), `"hist"`) || !strings.Contains(string(row), `"paths"`) {
		t.Fatalf("legacy row not written: %s", row)
	}

	db, err = Open(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	col, err = db.Collection("c")
	if err != nil {
		t.Fatal(err)
	}
	if s := col.StatsSnapshot(); s.DocCount != 40 || s.RecordCount != 40 {
		t.Fatalf("stats read from the legacy row: %+v", s)
	}
	res, p, err := col.QueryOpts(`/r[v = 7]`, QueryOptions{})
	if err != nil || len(res) != 1 || p.Method == "scan" {
		t.Fatalf("query on the legacy row: %d results via %+v, %v", len(res), p, err)
	}
	if err := col.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := col.CreateValueIndex("ix_v2", "/r/v", xml.TString); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	row, _ = collectionRow(t, store, "c")
	for _, field := range []string{`"Stats"`, `"paths"`, `"indexes"`, `"hist"`, `"distinct"`} {
		if strings.Contains(string(row), field) {
			t.Fatalf("rewritten row still carries %s: %s", field, row)
		}
	}
}
