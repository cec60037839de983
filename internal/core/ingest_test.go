package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"rx/internal/memgov"
	"rx/internal/pagestore"
	"rx/internal/rxerr"
	"rx/internal/tokens"
	"rx/internal/xml"
	"rx/internal/xmlgen"
	"rx/internal/xmlparse"
)

// withProcs runs fn with GOMAXPROCS set to procs, the ingest worker count
// for a batch of at least that many documents.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// forEachWorkerCount runs fn as a subtest under one ingest worker and
// under four.
func forEachWorkerCount(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", procs), func(t *testing.T) { withProcs(procs, func() { fn(t) }) })
	}
}

// ingestOrder is an order of 5–20 items, ≈1–2 KB.
func ingestOrder(rng *rand.Rand, i int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `<Order id="%d"><Customer>C-%04d</Customer><Date>2024-%02d-%02d</Date>`, i, rng.Intn(500), 1+rng.Intn(12), 1+rng.Intn(28))
	for k := 0; k < 5+rng.Intn(16); k++ {
		fmt.Fprintf(&sb, `<Item line="%d"><Part>%s</Part><Qty>%d</Qty><Price>%d.%02d</Price></Item>`,
			k, xmlgen.ProductName(rng), 1+rng.Intn(9), 5+rng.Intn(95), rng.Intn(100))
	}
	sb.WriteString(`</Order>`)
	return sb.String()
}

// ingestCorpus is the write workload's mix: orders, ≈20 KB catalogs and
// one ≈512 KiB archive of orders, which packs into many records.
func ingestCorpus() [][]byte {
	rng := rand.New(rand.NewSource(7))
	var docs [][]byte
	for i := 0; i < 300; i++ {
		switch {
		case i == 150:
			var sb strings.Builder
			sb.WriteString(`<Archive>`)
			for k := 0; sb.Len() < 512<<10; k++ {
				sb.WriteString(ingestOrder(rng, k))
			}
			sb.WriteString(`</Archive>`)
			docs = append(docs, []byte(sb.String()))
		case i%60 == 7:
			docs = append(docs, xmlgen.Catalog(rng, 150, 100))
		default:
			docs = append(docs, []byte(ingestOrder(rng, i)))
		}
	}
	return docs
}

// ingestImage is what one ingest run leaves: every page of the store, and
// the statistics and index counts of each collection.
type ingestImage struct {
	pages [][]byte
	stats []string
}

// ingestRun loads the corpus in 256-document batches into a plain and a
// versioned collection, each with two value indexes, and images the result.
func ingestRun(t *testing.T, docs [][]byte) ingestImage {
	t.Helper()
	store := pagestore.NewMemStore()
	db, err := Open(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var img ingestImage
	for _, versioned := range []bool{false, true} {
		col, err := db.CreateCollection(fmt.Sprint("c-", versioned), CollectionOptions{Versioned: versioned})
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range []struct{ name, path string }{{"ix_price", "//Item/Price"}, {"ix_qty", "//Item/Qty"}} {
			if err := col.CreateValueIndex(ix.name, ix.path, xml.TDouble); err != nil {
				t.Fatal(err)
			}
		}
		for off := 0; off < len(docs); off += 256 {
			if _, err := txnInsertBatch(col, docs[off:min(off+256, len(docs))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := col.CheckConsistency(); err != nil {
			t.Fatalf("versioned=%v: CheckConsistency: %v", versioned, err)
		}
		st := col.StatsSnapshot()
		img.stats = append(img.stats, fmt.Sprintf("versioned=%v docs=%d records=%d bytes=%d",
			versioned, st.DocCount, st.RecordCount, st.TotalDocBytes))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for id := pagestore.PageID(0); id < store.NumPages(); id++ {
		buf := make([]byte, pagestore.PageSize)
		if err := store.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		img.pages = append(img.pages, buf)
	}
	db.Close()
	return img
}

// TestIngestPageIdentity is the oracle for parallel ingest: the same batches
// leave the same pages, byte for byte, and the same statistics whether one
// worker or four packs them. Page writes are serial and in document order,
// and names new to the catalog get their IDs in document order, so the
// worker count must not show anywhere in the store.
func TestIngestPageIdentity(t *testing.T) {
	t.Run("write-corpus", func(t *testing.T) { samePages(t, ingestCorpus()) })
	t.Run("new-names", func(t *testing.T) {
		// Every document brings element names no earlier one has.
		docs := make([][]byte, 300)
		for i := range docs {
			docs[i] = []byte(fmt.Sprintf(`<Order><a%d><Item><Price>%d</Price><Qty>%d</Qty></Item></a%d><b%d/></Order>`, i, i, i%9, i, i))
		}
		samePages(t, docs)
	})
}

func samePages(t *testing.T, docs [][]byte) {
	var serial, parallel ingestImage
	withProcs(1, func() { serial = ingestRun(t, docs) })
	withProcs(4, func() { parallel = ingestRun(t, docs) })
	for i := range serial.stats {
		if serial.stats[i] != parallel.stats[i] {
			t.Errorf("statistics differ:\n 1 worker:  %s\n 4 workers: %s", serial.stats[i], parallel.stats[i])
		}
	}
	if len(serial.pages) != len(parallel.pages) {
		t.Fatalf("store has %d pages with 1 worker, %d with 4", len(serial.pages), len(parallel.pages))
	}
	for id := range serial.pages {
		if !bytes.Equal(serial.pages[id], parallel.pages[id]) {
			t.Fatalf("page %d differs between 1 worker and 4", id)
		}
	}
}

// TestInsertBatchReportsFirstBadDocument: a batch with malformed documents
// at 3 and 200 reports document 3 and burns no DocID, however the workers
// are scheduled. Every document brings a name new to the catalog, so the
// workers also wait on each other for name IDs while one of them fails.
func TestInsertBatchReportsFirstBadDocument(t *testing.T) {
	forEachWorkerCount(t, func(t *testing.T) {
		db := newDB(t)
		col := setupBatchCol(t, db, false)
		docs := make([][]byte, 256)
		for i := range docs {
			docs[i] = []byte(fmt.Sprintf(`<item><sku>S%d</sku><n%d>%d</n%d></item>`, i, i, i, i))
		}
		docs[3] = []byte(`<item><sku>broken</item>`)
		docs[200] = []byte(`<item>`)
		for round := 0; round < 5; round++ {
			_, err := txnInsertBatch(col, docs)
			if err == nil || !strings.HasPrefix(err.Error(), "core: batch document 3: ") {
				t.Fatalf("round %d: error = %v, want one naming batch document 3", round, err)
			}
			if col.meta.NextDocID != 0 {
				t.Fatalf("round %d: failed batch burned DocIDs up to %d", round, col.meta.NextDocID)
			}
		}
		if n, _ := col.Count(); n != 0 {
			t.Fatalf("failed batches left %d documents", n)
		}
	})
}

// TestInsertBatchRejectsUnpackableStream: a document the packer rejects
// fails the call in stage, before any DocID is allocated.
func TestInsertBatchRejectsUnpackableStream(t *testing.T) {
	db := newDB(t)
	col := setupBatchCol(t, db, false)
	good, err := xmlparse.Parse(batchDoc(0), db.cat, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := tokens.NewWriter(16)
	w.StartDocument()
	w.EndElement() // unmatched
	w.EndDocument()
	_, err = col.stage([][]byte{good, w.Bytes()}, BatchOptions{}, true)
	if err == nil || !strings.Contains(err.Error(), "batch document 1: pack:") {
		t.Fatalf("stage error = %v, want a pack error naming batch document 1", err)
	}
	if col.meta.NextDocID != 0 {
		t.Fatalf("an unpackable batch burned DocIDs up to %d", col.meta.NextDocID)
	}
}

// manyValueDocs are n documents, each with values /d/v elements.
func manyValueDocs(n, values int) [][]byte {
	docs := make([][]byte, n)
	for i := range docs {
		var sb strings.Builder
		sb.WriteString(`<d>`)
		for k := 0; k < values; k++ {
			fmt.Fprintf(&sb, `<v>%d-%d</v>`, i, k)
		}
		sb.WriteString(`</d>`)
		docs[i] = []byte(sb.String())
	}
	return docs
}

// TestIngestBudgetStage: a batch over its budget fails in stage with
// ErrOverBudget, before a DocID is burned or an undo record logged, and
// returns every byte it charged.
func TestIngestBudgetStage(t *testing.T) {
	forEachWorkerCount(t, func(t *testing.T) {
		db := newDB(t)
		col := setupBatchCol(t, db, false)
		mem := memgov.New("batch", 64<<10)
		tx := db.Begin()
		_, err := tx.InsertBatch(col, manyValueDocs(64, 400), BatchOptions{Mem: mem})
		if !errors.Is(err, rxerr.ErrOverBudget) {
			t.Fatalf("error = %v, want ErrOverBudget", err)
		}
		if len(tx.undo) != 0 || col.meta.NextDocID != 0 {
			t.Fatalf("stage failure logged %d undo records, burned DocIDs up to %d", len(tx.undo), col.meta.NextDocID)
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
		if mem.Used() != 0 {
			t.Fatalf("%d bytes still charged", mem.Used())
		}
		if n, _ := col.Count(); n != 0 {
			t.Fatalf("failed batch left %d documents", n)
		}
	})
}

// TestIngestBudgetIngest: a batch that fits its budget through stage but not
// through key generation fails after DocIDs are allocated and some pages
// written; Rollback leaves nothing behind.
func TestIngestBudgetIngest(t *testing.T) {
	forEachWorkerCount(t, func(t *testing.T) {
		db := newDB(t)
		col, err := db.CreateCollection("c", CollectionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Four indexes on the same short values: pass 4 builds several
		// times stage's bytes in keys.
		for k := 0; k < 4; k++ {
			if err := col.CreateValueIndex(fmt.Sprint("ix_", k), "/d/v", xml.TString); err != nil {
				t.Fatal(err)
			}
		}
		docs := manyValueDocs(64, 400)
		// Stage's charge, measured: it varies by under two chunks per
		// worker with the way the documents fall to the workers.
		probe := memgov.New("probe", 0)
		st, err := col.stage(docs, BatchOptions{Mem: probe}, false)
		if err != nil {
			t.Fatal(err)
		}
		staged := probe.Used()
		st.release()

		mem := memgov.New("batch", staged+768<<10)
		tx := db.Begin()
		_, err = tx.InsertBatch(col, docs, BatchOptions{Mem: mem})
		if !errors.Is(err, rxerr.ErrOverBudget) {
			t.Fatalf("error = %v, want ErrOverBudget", err)
		}
		if len(tx.undo) != len(docs) {
			t.Fatalf("failure came with %d undo records, want %d: not past stage", len(tx.undo), len(docs))
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
		if mem.Used() != 0 {
			t.Fatalf("%d bytes still charged", mem.Used())
		}
		if n, _ := col.Count(); n != 0 {
			t.Fatalf("rollback left %d documents", n)
		}
		if n, _ := col.nodeIx.Count(); n != 0 {
			t.Fatalf("rollback left %d NodeID-index entries", n)
		}
		for _, ov := range col.indexSnapshot() {
			if n := len(dumpTree(t, ov.ix.Tree())); n != 0 {
				t.Fatalf("rollback left %d entries in %s", n, ov.meta.Name)
			}
		}
		if err := col.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		if err := db.VerifyPages(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestIngestBudgetSchema: schema validation stages its streams on the
// worker's arena like a plain parse, so a validated batch over its budget
// fails with ErrOverBudget in stage, burning no DocID and logging nothing.
func TestIngestBudgetSchema(t *testing.T) {
	forEachWorkerCount(t, func(t *testing.T) {
		db := newDB(t)
		if err := db.RegisterSchema("d", []byte(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="d" type="xs:string"/></xs:schema>`)); err != nil {
			t.Fatal(err)
		}
		col, err := db.CreateCollection("c", CollectionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		docs := make([][]byte, 512)
		for i := range docs {
			docs[i] = []byte(fmt.Sprintf(`<d>%d %s</d>`, i, strings.Repeat("y", 3<<10)))
		}
		mem := memgov.New("batch", 1<<20)
		tx := db.Begin()
		_, err = tx.InsertBatch(col, docs, BatchOptions{Schema: "d", Mem: mem})
		if !errors.Is(err, rxerr.ErrOverBudget) {
			t.Fatalf("error = %v, want ErrOverBudget", err)
		}
		if len(tx.undo) != 0 || col.meta.NextDocID != 0 {
			t.Fatalf("stage failure logged %d undo records, burned DocIDs up to %d", len(tx.undo), col.meta.NextDocID)
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
		if mem.Used() != 0 {
			t.Fatalf("%d bytes still charged", mem.Used())
		}
		// Within budget, the same schema batch stores.
		if err := db.RunTxn(func(tx *Txn) error {
			_, err := tx.InsertBatch(col, docs[:4], BatchOptions{Schema: "d", Mem: memgov.New("batch", 8<<20)})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	})
}
