package core

// Per-collection optimizer statistics (internal/stats): incremental
// maintenance on the write paths, a scrub-style full refresh, catalog
// persistence, and the snapshot view the cost-based planner prices plans
// with. The contract mirrors a relational optimizer's: scalar counters
// (documents, records, bytes, index entries) track every mutation exactly;
// distinct counts, histograms, and path counts are rebuilt only by
// RefreshStats and go stale in between — estimation degrades gracefully, it
// never blocks a write.

import (
	"sync"
	"sync/atomic"

	"rx/internal/heap"
	"rx/internal/nodeid"
	"rx/internal/stats"
	"rx/internal/tokens"
	"rx/internal/valueindex"
	"rx/internal/xml"
)

const (
	// statsPersistEvery is how many document mutations may accumulate before
	// the statistics snapshot is rewritten into the catalog row (the same
	// chunking idea as DocID allocation: bulk work must not rewrite the row
	// per document). DB.Close and RefreshStats persist unconditionally.
	statsPersistEvery = 64
	// maxPathDepth bounds the element depth tracked in PathCounts.
	maxPathDepth = 6
	// maxPaths bounds the number of distinct paths tracked.
	maxPaths = 512
)

// pathTable interns rooted element paths as small integers so the hot insert
// path counts elements without building path strings. Safe for concurrent
// use (inserts under writeMu race with background refresh).
type pathTable struct {
	mu   sync.Mutex
	ids  map[pathStep]int32
	strs []string
}

type pathStep struct {
	parent int32 // index of the parent path, -1 for a root element
	name   xml.NameID
}

// pathSkipped marks elements beyond the depth or cardinality caps.
const pathSkipped int32 = -2

func (pt *pathTable) intern(parent int32, name xml.NameID, names xml.Names) int32 {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.ids == nil {
		pt.ids = map[pathStep]int32{}
	}
	k := pathStep{parent: parent, name: name}
	if id, ok := pt.ids[k]; ok {
		return id
	}
	if len(pt.strs) >= maxPaths {
		return pathSkipped
	}
	local, err := names.Lookup(name)
	if err != nil {
		return pathSkipped
	}
	prefix := ""
	if parent >= 0 {
		prefix = pt.strs[parent]
	}
	id := int32(len(pt.strs))
	pt.strs = append(pt.strs, prefix+"/"+local)
	pt.ids[k] = id
	return id
}

// str returns the interned path string.
func (pt *pathTable) str(id int32) string {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.strs[id]
}

// initStats seeds the collection's live statistics at open/create time
// (single-threaded; no locks needed yet). Counters are reconciled against
// the physical state: the persisted snapshot may be up to statsPersistEvery
// mutations (or a crash) behind. The old planner counted both structures on
// every query; once per open is strictly cheaper.
func (c *Collection) initStats() {
	if c.meta.Stats != nil {
		c.live = c.meta.Stats.Clone()
	} else {
		c.live = stats.New()
	}
	docs := c.live.DocCount
	if n, err := c.docIx.Count(); err == nil {
		docs = int64(n)
	}
	if docs != c.live.DocCount {
		c.live.TotalDocBytes = c.live.AvgDocBytes() * docs
		c.live.DocCount = docs
	}
	c.live.RecordCount = int64(c.xmlTbl.Count())
}

// StatsSnapshot returns a copy of the collection's current statistics.
func (c *Collection) StatsSnapshot() *stats.CollectionStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.live.Clone()
}

// StatsEpoch returns the statistics epoch: it increments on every refresh
// and on index DDL, so cached plans keyed on it invalidate on either.
func (c *Collection) StatsEpoch() uint64 {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.live.Epoch
}

// countStreamPaths walks a token stream and increments per-path element
// counts in pc. Caller holds statsMu (pc is live.PathCounts) and writeMu
// (c.pathStack is insert scratch).
func (c *Collection) countStreamPaths(pc map[string]int64, stream []byte) {
	r := tokens.NewReader(stream)
	stack := c.pathStack[:0]
	for r.More() {
		t, err := r.Next()
		if err != nil {
			break // stats are advisory; never fail a write over them
		}
		switch t.Kind {
		case tokens.StartElement:
			parent := int32(-1)
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			id := pathSkipped
			if parent != pathSkipped && len(stack) < maxPathDepth {
				id = c.pathTab.intern(parent, t.Name.Local, c.db.cat)
			}
			if id >= 0 {
				pc[c.pathTab.str(id)]++
			}
			stack = append(stack, id)
		case tokens.EndElement:
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		}
	}
	c.pathStack = stack[:0]
}

// noteIngest records one ingestLocked call: len(streams) documents of
// totalBytes packed bytes (the largest maxBytes) in records records. ixEntries
// maps index name to the number of value keys added. Caller holds writeMu.
func (c *Collection) noteIngest(totalBytes, maxBytes, records int64, streams [][]byte, ixEntries map[string]int64) {
	c.statsMu.Lock()
	c.live.DocCount += int64(len(streams))
	c.live.RecordCount += records
	c.live.TotalDocBytes += totalBytes
	if maxBytes > c.live.MaxDocBytes {
		c.live.MaxDocBytes = maxBytes
	}
	if c.live.PathCounts == nil {
		c.live.PathCounts = map[string]int64{}
	}
	for _, stream := range streams {
		c.countStreamPaths(c.live.PathCounts, stream)
	}
	for name, n := range ixEntries {
		c.live.EnsureIndex(name).Entries += n
	}
	c.statsDirty += len(streams)
	dirty := c.statsDirty
	c.statsMu.Unlock()
	if dirty >= statsPersistEvery {
		c.persistStats()
	}
}

// noteDelete records one deleted document. Document bytes are unknown at
// delete time, so the average is subtracted (refresh corrects the drift).
func (c *Collection) noteDelete(records int64, ixEntries map[string]int64) {
	c.statsMu.Lock()
	c.live.TotalDocBytes -= c.live.AvgDocBytes()
	if c.live.TotalDocBytes < 0 {
		c.live.TotalDocBytes = 0
	}
	if c.live.DocCount > 0 {
		c.live.DocCount--
	}
	c.live.RecordCount -= records
	if c.live.RecordCount < 0 {
		c.live.RecordCount = 0
	}
	for name, n := range ixEntries {
		if is := c.live.Index(name); is != nil {
			if is.Entries -= n; is.Entries < 0 {
				is.Entries = 0
			}
		}
	}
	c.statsDirty++
	dirty := c.statsDirty
	c.statsMu.Unlock()
	if dirty >= statsPersistEvery {
		c.persistStats()
	}
}

// persistStats writes the current snapshot into the catalog row. Errors are
// swallowed: statistics are advisory and must never fail the write that
// triggered the checkpoint (a full device already fails the write itself).
func (c *Collection) persistStats() {
	c.statsMu.Lock()
	snap := c.live.Clone()
	c.statsDirty = 0
	c.statsMu.Unlock()
	_ = c.db.cat.UpdateCollectionStats(c.meta, snap)
}

// pathCountHandler counts elements per path from stored-document walks
// (vsax events) during RefreshStats.
type pathCountHandler struct {
	c      *Collection
	counts map[string]int64
	stack  []int32
}

func (h *pathCountHandler) StartDocument() error { h.stack = h.stack[:0]; return nil }
func (h *pathCountHandler) EndDocument() error   { return nil }
func (h *pathCountHandler) StartElement(name xml.QName, id nodeid.ID) error {
	parent := int32(-1)
	if len(h.stack) > 0 {
		parent = h.stack[len(h.stack)-1]
	}
	pid := pathSkipped
	if parent != pathSkipped && len(h.stack) < maxPathDepth {
		pid = h.c.pathTab.intern(parent, name.Local, h.c.db.cat)
	}
	if pid >= 0 {
		h.counts[h.c.pathTab.str(pid)]++
	}
	h.stack = append(h.stack, pid)
	return nil
}
func (h *pathCountHandler) EndElement(id nodeid.ID) error {
	if len(h.stack) > 0 {
		h.stack = h.stack[:len(h.stack)-1]
	}
	return nil
}
func (h *pathCountHandler) NSDecl(prefix, uri xml.NameID, id nodeid.ID) error { return nil }
func (h *pathCountHandler) Attribute(name xml.QName, value []byte, typ xml.TypeID, id nodeid.ID) error {
	return nil
}
func (h *pathCountHandler) Text(value []byte, typ xml.TypeID, id nodeid.ID) error  { return nil }
func (h *pathCountHandler) Comment(value []byte, id nodeid.ID) error               { return nil }
func (h *pathCountHandler) PI(target xml.NameID, value []byte, id nodeid.ID) error { return nil }

// RefreshStats rebuilds the collection's statistics exactly from the stored
// data — sizes and counts from a heap scan, path counts from document walks,
// per-index cardinalities and equi-depth histograms from index scans — then
// swaps them in (carrying forward counter deltas from writes that landed
// mid-rebuild), bumps the epoch, and persists the snapshot. It runs without
// the write lock: a scrub-style background pass must not stall writers, so a
// document deleted mid-walk is simply skipped. It takes no throttle hook: the
// index scans run their callbacks under the tree's read lock, where a pause
// would stall every writer of that index.
func (c *Collection) RefreshStats() error {
	// Baseline for the delta carry-forward.
	c.statsMu.Lock()
	base := c.live.Clone()
	c.statsMu.Unlock()

	fresh := stats.New()

	// Documents and sizes: one pass over the internal XML table.
	docBytes := map[xml.DocID]int64{}
	err := c.xmlTbl.Scan(func(_ heap.RID, row []byte) error {
		doc, _, payload, serr := splitXMLRow(row)
		if serr != nil {
			return nil // damaged row: scrub's problem, not the sampler's
		}
		docBytes[doc] += int64(len(payload))
		fresh.RecordCount++
		return nil
	})
	if err != nil {
		return err
	}
	for _, b := range docBytes {
		fresh.TotalDocBytes += b
		if b > fresh.MaxDocBytes {
			fresh.MaxDocBytes = b
		}
	}

	// Path counts: walk each stored document.
	docs, err := c.DocIDs()
	if err != nil {
		return err
	}
	fresh.DocCount = int64(len(docs))
	h := &pathCountHandler{c: c, counts: fresh.PathCounts}
	for _, doc := range docs {
		if werr := c.WalkDoc(doc, h); werr != nil {
			continue // deleted or quarantined mid-pass
		}
	}

	// Per-index cardinalities and histograms: one ordered scan each.
	for _, ov := range c.indexSnapshot() {
		b := stats.NewBuilder(stats.HistogramBuckets)
		err := ov.ix.Scan(valueindex.Range{}, func(e valueindex.Entry) bool {
			b.Add(e.EncodedValue)
			return true
		})
		if err != nil {
			return err
		}
		fresh.Indexes[ov.meta.Name] = &stats.IndexStats{
			Entries:  b.Count(),
			Distinct: b.Distinct(),
			Hist:     b.Build(),
		}
	}

	// Swap in, carrying forward whatever the incremental counters accumulated
	// while the rebuild ran (rebuild reads raced writers by design).
	c.statsMu.Lock()
	fresh.DocCount += c.live.DocCount - base.DocCount
	fresh.RecordCount += c.live.RecordCount - base.RecordCount
	fresh.TotalDocBytes += c.live.TotalDocBytes - base.TotalDocBytes
	if fresh.DocCount < 0 {
		fresh.DocCount = 0
	}
	if fresh.RecordCount < 0 {
		fresh.RecordCount = 0
	}
	if fresh.TotalDocBytes < 0 {
		fresh.TotalDocBytes = 0
	}
	for name, is := range fresh.Indexes {
		if liveIs, baseIs := c.live.Index(name), base.Index(name); liveIs != nil && baseIs != nil {
			if is.Entries += liveIs.Entries - baseIs.Entries; is.Entries < 0 {
				is.Entries = 0
			}
		}
	}
	fresh.Epoch = c.live.Epoch + 1
	c.live = fresh
	c.statsDirty = 0
	snap := fresh.Clone()
	c.statsMu.Unlock()
	return c.db.cat.UpdateCollectionStats(c.meta, snap)
}

// RefreshStats rebuilds statistics for every collection. The maintenance
// loop's statistics duty calls it every Options.StatsRefresh.
func (db *DB) RefreshStats() error {
	var firstErr error
	for _, name := range db.Collections() {
		c, err := db.Collection(name)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if err := c.RefreshStats(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	atomic.AddUint64(&db.stats.statsRefreshes, 1)
	return firstErr
}

// NotePlanCache counts a session plan-cache lookup in the engine stats.
func (db *DB) NotePlanCache(hit bool) {
	if hit {
		atomic.AddUint64(&db.stats.planCacheHits, 1)
	} else {
		atomic.AddUint64(&db.stats.planCacheMisses, 1)
	}
}
