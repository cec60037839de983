package experiments

// E14–E16: the write path inherited from the relational substrate — page
// checksums (the measured leg of E14; its fault-injection legs are tests),
// WAL group commit, and bulk loading against per-document commits.

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rx/internal/buffer"
	"rx/internal/core"
	"rx/internal/pagestore"
	"rx/internal/wal"
	"rx/internal/xml"
	"rx/internal/xmlgen"
)

// discardLog is a PageLogger that keeps nothing: it isolates Modify's own
// cost (before-copy, diff, LSN stamp) from the log's.
type discardLog struct{ lsn buffer.LSN }

func (l *discardLog) LogPageDelta(pagestore.PageID, []buffer.PageRun) (buffer.LSN, error) {
	l.lsn++
	return l.lsn, nil
}

// modifyCase times one logged Pool.Modify per op on a resident page laid out
// like a full B+tree leaf (150 slots over cell content); mutate makes op i's
// change and must change at least one byte.
func modifyCase(mutate func(d []byte, i int)) func(b *testing.B) {
	return func(b *testing.B) {
		pool := buffer.New(pagestore.NewMemStore(), 4)
		pool.SetLogger(&discardLog{})
		f, err := pool.NewPage()
		if err != nil {
			b.Fatal(err)
		}
		defer pool.Unpin(f, false)
		for i := 8; i < len(f.Data); i++ {
			f.Data[i] = byte(i * 7 >> 3)
		}
		for s := 0; s < leafSlots; s++ {
			binary.BigEndian.PutUint16(f.Data[leafSlot0+2*s:], uint16(pagestore.PageSize-24*(s+1)))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pool.Modify(f, func(d []byte) error { mutate(d, i); return nil }); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// The leaf modifyCase lays out: slot array offset and slot count.
const leafSlot0, leafSlots = 18, 150

// e14Cases — page I/O cost: raw store, checksum-verified store, and a hot
// (resident) page through the buffer pool over each. The pool pair is the
// engine-visible number: a hot page verifies once per residency, so the
// checksummed read must be within noise of the raw one. The modify pair is
// the cost of one logged page mutation, which every heap and B+tree write
// pays: a sparse change (header count plus one 24-byte cell) and a leaf
// insert at slot 10 of 150 (140 slots shift by one, and shift back on the
// next op). Both must cost what they change, not a compare per page byte.
func e14Cases() ([]Case, error) {
	page := make([]byte, pagestore.PageSize)
	for i := range page {
		page[i] = byte(i)
	}
	newStore := func(b *testing.B, checksummed bool) pagestore.Store {
		var s pagestore.Store = pagestore.NewMemStore()
		if checksummed {
			s = pagestore.NewChecksumStore(s)
		}
		id, err := s.Allocate()
		if err != nil {
			b.Fatal(err)
		}
		if err := s.WritePage(id, page); err != nil {
			b.Fatal(err)
		}
		return s
	}
	storeRead := func(checksummed bool) func(b *testing.B) {
		return func(b *testing.B) {
			s := newStore(b, checksummed)
			buf := make([]byte, pagestore.PageSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.ReadPage(0, buf); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	poolHot := func(checksummed bool) func(b *testing.B) {
		return func(b *testing.B) {
			s := newStore(b, checksummed)
			pool := buffer.New(s, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := pool.Fetch(0)
				if err != nil {
					b.Fatal(err)
				}
				pool.Unpin(f, false)
			}
		}
	}
	return []Case{
		{"store-read/raw", true, storeRead(false)},
		{"store-read/checksum", true, storeRead(true)},
		{"pool-hot/raw", true, poolHot(false)},
		{"pool-hot/checksum", true, poolHot(true)},
		{"modify/sparse", true, modifyCase(func(d []byte, i int) {
			binary.BigEndian.PutUint16(d[10:], uint16(i))
			cell := d[4000+24*(i%100):][:24]
			binary.BigEndian.PutUint64(cell, uint64(i))
			copy(cell[8:], cell[:8]) // a 24-byte cell, rewritten whole
			copy(cell[16:], cell[:8])
		})},
		{"modify/slot-shift", true, modifyCase(func(d []byte, i int) {
			const at = leafSlot0 + 2*10
			slots := d[at : leafSlot0+2*leafSlots]
			if i%2 == 0 {
				copy(slots[2:], slots) // insert at slot 10
			} else {
				copy(slots, slots[2:]) // remove it again
			}
			binary.BigEndian.PutUint16(d[10:], uint16(i))
		})},
	}, nil
}

// fileLogged opens a fresh memory-paged database logged to a file in dir —
// a real file, so every log sync pays the OS fsync cost being amortized —
// with one collection carrying the given indexes.
func fileLogged(dir, name string, groupDelay time.Duration, indexes ...indexDef) (*core.DB, *core.Collection, *wal.Log, error) {
	dev, err := wal.OpenFileDevice(filepath.Join(dir, name+".wal"))
	if err != nil {
		return nil, nil, nil, err
	}
	return logged(dev, groupDelay, indexes...)
}

// logged opens a fresh memory-paged database logged to dev, with one
// collection carrying the given indexes.
func logged(dev wal.Device, groupDelay time.Duration, indexes ...indexDef) (*core.DB, *core.Collection, *wal.Log, error) {
	var wopts []wal.Option
	if groupDelay > 0 {
		wopts = append(wopts, wal.WithGroupCommit(groupDelay))
	}
	log, err := wal.Open(dev, wopts...)
	if err != nil {
		return nil, nil, nil, err
	}
	db, err := core.Open(pagestore.NewMemStore(), core.Options{WAL: log})
	if err != nil {
		return nil, nil, nil, err
	}
	col, err := db.CreateCollection("c", core.CollectionOptions{})
	if err == nil {
		err = createIndexes(col, indexes...)
	}
	return db, col, log, err
}

// slowSyncDevice is an in-memory log device whose every Sync takes d: a
// stand-in for a disk whose flush costs milliseconds, the device group
// commit exists for.
type slowSyncDevice struct {
	wal.MemDevice
	d time.Duration
}

func (s *slowSyncDevice) Sync() error { time.Sleep(s.d); return nil }

// commitRound has writers goroutines each commit n single-insert
// transactions.
func commitRound(db *core.DB, col *core.Collection, writers, n int) error {
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				doc := []byte(fmt.Sprintf("<r><w>%d</w><i>%d</i></r>", w, i))
				if err := db.RunTxn(func(t *core.Txn) error { _, err := t.Insert(col, doc); return err }); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// e15 measures commit batching: W concurrent writers each commit small
// transactions, with and without a group-commit window, against a
// file-backed log and against a device whose sync takes 5 ms. The counters
// on the log give exact syncs-per-commit ratios and how often a flush
// leader waited for company.
func e15(m *Meter) (*Table, error) {
	commitsPerWriter, window, slowSync := m.pick(50, 10), 2*time.Millisecond, 5*time.Millisecond
	t := &Table{
		ID:      "E15",
		Title:   fmt.Sprintf("WAL group commit (%d commits/writer, %v window)", commitsPerWriter, window),
		Claim:   "logging inherited from the relational substrate scales to concurrent writers (§5): one log sync serves a group of committers",
		Headers: []string{"device", "writers", "mode", "commits", "syncs", "syncs/commit", "waits", "commits/sec"},
	}
	dir, err := os.MkdirTemp("", "rx-e15-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for _, device := range []string{"file", fmt.Sprintf("%v sync", slowSync)} {
		for _, writers := range []int{1, 2, 4, 8} {
			for _, groupDelay := range []time.Duration{0, window} {
				mode := "sync per commit"
				if groupDelay > 0 {
					mode = fmt.Sprintf("group commit %v", groupDelay)
				}
				var db *core.DB
				var col *core.Collection
				var log *wal.Log
				if device == "file" {
					db, col, log, err = fileLogged(dir, fmt.Sprintf("e15-%d-%d", writers, groupDelay), groupDelay)
				} else {
					db, col, log, err = logged(&slowSyncDevice{d: slowSync}, groupDelay)
				}
				if err != nil {
					return nil, err
				}
				c0, s0, w0 := log.CommitCount(), log.SyncCount(), log.WaitCount()
				el, err := m.time(fmt.Sprintf("%s/writers=%d/%s", device, writers, mode), 1, func() error {
					return commitRound(db, col, writers, commitsPerWriter)
				})
				commits, syncs, waits := log.CommitCount()-c0, log.SyncCount()-s0, log.WaitCount()-w0
				db.Close()
				if err != nil {
					return nil, err
				}
				t.Rows = append(t.Rows, []string{
					device, fmt.Sprint(writers), mode, fmt.Sprint(commits), fmt.Sprint(syncs),
					fmt.Sprintf("%.3f", float64(syncs)/float64(commits)), fmt.Sprint(waits),
					f1(float64(commitsPerWriter*writers) / el.Seconds()),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		"syncs/commit < 1 means committers shared durability syncs; waits counts the flushes whose leader waited for company, which only follows a flush that carried more than one commit, so the single-writer group rows wait 0 times and run at sync-per-commit speed")
	return t, nil
}

// e16 measures bulk loading: the same document set — deliberately tiny
// documents, the worst case for per-document commit overhead — ingested one
// transaction (and one log sync) per document versus InsertBatch (sorted
// index insertion, one commit per batch), both over a file-backed log.
func e16(m *Meter) (*Table, error) {
	docs, batchSize := m.pick(5000, 500), 1000
	t := &Table{
		ID:      "E16",
		Title:   fmt.Sprintf("bulk document loading (%d docs, batches of %d)", docs, batchSize),
		Claim:   "batch shredding with sorted index insertion and one commit per batch amortizes the per-document write-path cost",
		Headers: []string{"path", "docs", "commits", "syncs", "page-delta records", "ms", "MB/s", "docs/sec"},
	}
	dir, err := os.MkdirTemp("", "rx-e16-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	totalBytes := 0
	payloads := generate(docs, func(i int) []byte {
		d := []byte(fmt.Sprintf(
			"<item><sku>SKU-%06d</sku><qty>%d</qty><price>%d.%02d</price><note>bulk load subject %d of the ingest corpus</note></item>",
			i, i%97, i%500, i%100, i))
		totalBytes += len(d)
		return d
	})
	for i, loader := range []struct {
		name string
		load func(*core.DB, *core.Collection) error
	}{
		{"per-document commits", func(db *core.DB, col *core.Collection) error {
			for _, p := range payloads {
				if err := db.RunTxn(func(t *core.Txn) error { _, err := t.Insert(col, p); return err }); err != nil {
					return err
				}
			}
			return nil
		}},
		{fmt.Sprintf("InsertBatch(%d), GOMAXPROCS 1", batchSize), func(db *core.DB, col *core.Collection) error {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			return loadBatches(db, col, payloads, batchSize)
		}},
		{fmt.Sprintf("InsertBatch(%d)", batchSize), func(db *core.DB, col *core.Collection) error {
			return loadBatches(db, col, payloads, batchSize)
		}},
	} {
		db, col, log, err := fileLogged(dir, fmt.Sprint("e16-", i), 0,
			indexDef{"ix_qty", "//qty", xml.TDouble}, indexDef{"ix_sku", "//sku", xml.TString})
		if err != nil {
			return nil, err
		}
		c0, s0, d0 := log.CommitCount(), log.SyncCount(), log.PageDeltaCount()
		el, err := m.time(loader.name, 1, func() error { return loader.load(db, col) })
		// Every run of the loader (a benchmark makes several) adds the corpus.
		if n, cerr := col.Count(); err == nil && (cerr != nil || n == 0 || n%docs != 0) {
			err = fmt.Errorf("E16 %s: %d docs stored loading %d at a time (%v)", loader.name, n, docs, cerr)
		}
		commits, syncs, deltas := log.CommitCount()-c0, log.SyncCount()-s0, log.PageDeltaCount()-d0
		db.Close()
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			loader.name, fmt.Sprint(docs), fmt.Sprint(commits), fmt.Sprint(syncs), fmt.Sprint(deltas), dms(el),
			fmt.Sprintf("%.1f", float64(totalBytes)/1e6/el.Seconds()),
			f1(float64(docs) / el.Seconds()),
		})
	}
	t.Notes = append(t.Notes,
		"the batch path stores the same documents with identical logical index contents (see TestInsertBatchMatchesSequentialInserts); the win is one sorted insertion pass per index and one log sync per batch",
		"a batch parses, packs and generates keys on min(GOMAXPROCS, documents) workers and writes pages on one; the GOMAXPROCS 1 row is the same loop on one worker, and stores the same pages (TestIngestPageIdentity)",
		"page-delta records are logged page mutations: a sorted run enters a B+tree one leaf visit — one Modify, one record — at a time")
	return t, nil
}

// loadBatches stores docs in InsertBatch calls of size documents, one
// transaction each.
func loadBatches(db *core.DB, col *core.Collection, docs [][]byte, size int) error {
	for off := 0; off < len(docs); off += size {
		batch := docs[off:min(off+size, len(docs))]
		if err := db.RunTxn(func(t *core.Txn) error { _, err := t.InsertBatch(col, batch, core.BatchOptions{}); return err }); err != nil {
			return err
		}
	}
	return nil
}

// e16Cases — gated: the full parse→pack→index ingest path through
// InsertBatch, in memory; one op is one batch. bulk-load-32 stores 32
// products with no value index and no log; bulk-load-indexed stores 256
// multi-item orders under two value indexes with every page mutation logged
// to an in-memory WAL — the per-leaf Modify and page-delta path sorted runs
// take into the B+trees.
func e16Cases() ([]Case, error) {
	load := func(db *core.DB, col *core.Collection, docs [][]byte) func(*testing.B) {
		return func(b *testing.B) {
			defer db.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.RunTxn(func(t *core.Txn) error { _, err := t.InsertBatch(col, docs, core.BatchOptions{}); return err }); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return []Case{
		{Name: "bulk-load-32", Gated: true, Run: func(b *testing.B) {
			db, col, err := memCollection(core.CollectionOptions{})
			if err != nil {
				b.Fatal(err)
			}
			load(db, col, generate(32, xmlgen.Product))(b)
		}},
		{Name: "bulk-load-indexed", Gated: true, Run: func(b *testing.B) {
			log, err := wal.Open(&wal.MemDevice{})
			if err != nil {
				b.Fatal(err)
			}
			db, err := core.Open(pagestore.NewMemStore(), core.Options{WAL: log})
			if err != nil {
				b.Fatal(err)
			}
			col, err := db.CreateCollection("c", core.CollectionOptions{})
			if err == nil {
				err = createIndexes(col, indexDef{"ix_sku", "//item/sku", xml.TString}, indexDef{"ix_qty", "//item/qty", xml.TDouble})
			}
			if err != nil {
				b.Fatal(err)
			}
			load(db, col, generate(256, order))(b)
		}},
	}, nil
}

// order is a multi-item order document: one to eight line items.
func order(i int) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "<order id=\"%d\"><customer>C%05d</customer>", i, i%997)
	for k := 0; k <= i%8; k++ {
		fmt.Fprintf(&sb, "<item><sku>SKU-%06d</sku><qty>%d</qty><price>%d.%02d</price></item>", (i*31+k*7)%100000, 1+(i+k)%9, (i+k)%500, k*13%100)
	}
	sb.WriteString("</order>")
	return []byte(sb.String())
}
