package core

// Per-collection optimizer statistics (internal/stats): incremental
// maintenance on the write paths, a recount that corrects their drift,
// catalog persistence, and the snapshot view the cost-based planner prices
// plans with. Documents, records and path counts are noted on every insert;
// a delete subtracts its records and the average document size and leaves
// path counts alone, and RefreshStats recounts all of them. What a conjunct
// matches is not kept here at all: the planner dives into the value index
// itself (valueindex.Index.Estimate).

import (
	"cmp"
	"slices"
	"sync/atomic"

	"rx/internal/heap"
	"rx/internal/nodeid"
	"rx/internal/stats"
	"rx/internal/tokens"
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
	// maxCountedPaths bounds a pathCounter's table. foldPaths keeps
	// PathCounts within maxPaths; this cap only bounds memory, far enough
	// above it that which paths a batch counts does not depend on how its
	// documents fell to the workers.
	maxCountedPaths = 64 * maxPaths
)

type pathStep struct {
	parent int32 // index of the parent path, -1 for a root element
	name   xml.NameID
}

// pathSkipped marks elements beyond the depth or cardinality caps.
const pathSkipped int32 = -2

// pathCounter counts elements per rooted element path (PathCounts) on one
// goroutine. Paths are interned locally as small integers, so a count walk
// takes no lock and builds no string per element; foldPaths adds the counts
// to a PathCounts map once. The table outlives a reset while the dictionary
// stays the same and it holds fewer than maxPaths paths, so a pooled counter
// builds each path string once.
type pathCounter struct {
	names  xml.Names
	ids    map[pathStep]int32
	steps  []pathStep // by path ID; a parent's ID is below its children's
	strs   []string   // by path ID, built by resolve; "" for an unresolvable name
	counts []int64    // by path ID, since the last reset
	stack  []int32
}

// reset zeroes the counts and readies the counter for names.
func (pc *pathCounter) reset(names xml.Names) {
	if names != pc.names || len(pc.steps) >= maxPaths {
		pc.names = names
		clear(pc.ids)
		pc.steps, pc.strs, pc.counts = pc.steps[:0], pc.strs[:0], pc.counts[:0]
	}
	clear(pc.counts)
	pc.stack = pc.stack[:0]
}

// start counts an element opening inside the current one.
func (pc *pathCounter) start(name xml.NameID) {
	parent := int32(-1)
	if n := len(pc.stack); n > 0 {
		parent = pc.stack[n-1]
	}
	id := pathSkipped
	if parent != pathSkipped && len(pc.stack) < maxPathDepth {
		id = pc.intern(pathStep{parent: parent, name: name})
	}
	if id >= 0 {
		pc.counts[id]++
	}
	pc.stack = append(pc.stack, id)
}

// end closes the current element.
func (pc *pathCounter) end() {
	if n := len(pc.stack); n > 0 {
		pc.stack = pc.stack[:n-1]
	}
}

func (pc *pathCounter) intern(k pathStep) int32 {
	if id, ok := pc.ids[k]; ok {
		return id
	}
	if len(pc.steps) >= maxCountedPaths {
		return pathSkipped
	}
	if pc.ids == nil {
		pc.ids = map[pathStep]int32{}
	}
	id := int32(len(pc.steps))
	pc.steps = append(pc.steps, k)
	pc.counts = append(pc.counts, 0)
	pc.ids[k] = id
	return id
}

// stream counts the elements of a token stream. Stats are advisory: a
// corrupt stream ends the count, it never fails a write.
func (pc *pathCounter) stream(stream []byte) {
	pc.stack = pc.stack[:0]
	r := tokens.NewReader(stream)
	for r.More() {
		t, err := r.Next()
		if err != nil {
			return
		}
		switch t.Kind {
		case tokens.StartElement:
			pc.start(t.Name.Local)
		case tokens.EndElement:
			pc.end()
		}
	}
}

// resolve builds the path strings of the paths interned since the last call.
func (pc *pathCounter) resolve() {
	for id := len(pc.strs); id < len(pc.steps); id++ {
		st, s := pc.steps[id], ""
		if local, err := pc.names.Lookup(st.name); err == nil {
			switch {
			case st.parent < 0:
				s = "/" + local
			case pc.strs[st.parent] != "":
				s = pc.strs[st.parent] + "/" + local
			}
		}
		pc.strs = append(pc.strs, s)
	}
}

// foldPaths adds the counters' counts to dst, a PathCounts map. dst takes a
// new path only while it holds fewer than maxPaths, and takes new paths in
// string order, so what it holds does not depend on how the documents fell
// to the counters. Caller holds whatever guards dst.
func foldPaths(dst map[string]int64, pcs []*pathCounter) {
	type count struct {
		path string
		n    int64
	}
	var fresh []count
	for _, pc := range pcs {
		pc.resolve()
		for id, n := range pc.counts {
			s := pc.strs[id]
			if n == 0 || s == "" {
				continue
			}
			if _, ok := dst[s]; ok {
				dst[s] += n
			} else {
				fresh = append(fresh, count{s, n})
			}
		}
	}
	slices.SortFunc(fresh, func(x, y count) int { return cmp.Compare(x.path, y.path) })
	for _, f := range fresh {
		if _, ok := dst[f.path]; ok || len(dst) < maxPaths {
			dst[f.path] += f.n
		}
	}
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

// noteIngest records one ingestLocked call: st's documents and its workers'
// path counts. Caller holds writeMu.
func (c *Collection) noteIngest(st *staged) {
	var totalBytes, maxBytes, records int64
	for _, d := range st.docs {
		totalBytes += d.bytes
		maxBytes = max(maxBytes, d.bytes)
		records += int64(len(d.recs))
	}
	c.statsMu.Lock()
	c.live.DocCount += int64(len(st.docs))
	c.live.RecordCount += records
	c.live.TotalDocBytes += totalBytes
	if maxBytes > c.live.MaxDocBytes {
		c.live.MaxDocBytes = maxBytes
	}
	if c.live.PathCounts == nil {
		c.live.PathCounts = map[string]int64{}
	}
	foldPaths(c.live.PathCounts, st.paths())
	c.statsDirty += len(st.docs)
	dirty := c.statsDirty
	c.statsMu.Unlock()
	if dirty >= statsPersistEvery {
		c.persistStats()
	}
}

// noteDelete records one deleted document. Document bytes are unknown at
// delete time, so the average is subtracted (refresh corrects the drift).
func (c *Collection) noteDelete(records int64) {
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
type pathCountHandler struct{ pc pathCounter }

func (h *pathCountHandler) StartDocument() error { h.pc.stack = h.pc.stack[:0]; return nil }
func (h *pathCountHandler) EndDocument() error   { return nil }
func (h *pathCountHandler) StartElement(name xml.QName, id nodeid.ID) error {
	h.pc.start(name.Local)
	return nil
}
func (h *pathCountHandler) EndElement(id nodeid.ID) error {
	h.pc.end()
	return nil
}
func (h *pathCountHandler) NSDecl(prefix, uri xml.NameID, id nodeid.ID) error { return nil }
func (h *pathCountHandler) Attribute(name xml.QName, value []byte, typ xml.TypeID, id nodeid.ID) error {
	return nil
}
func (h *pathCountHandler) Text(value []byte, typ xml.TypeID, id nodeid.ID) error  { return nil }
func (h *pathCountHandler) Comment(value []byte, id nodeid.ID) error               { return nil }
func (h *pathCountHandler) PI(target xml.NameID, value []byte, id nodeid.ID) error { return nil }

// RefreshStats recounts the collection's statistics from the stored data —
// sizes and counts from a heap scan, path counts from document walks — then
// swaps them in (carrying forward counter deltas from writes that landed
// mid-recount), bumps the epoch, and persists the snapshot. It runs without
// the write lock, so it does not stall writers; a document deleted mid-walk
// is simply skipped.
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
	h := &pathCountHandler{}
	h.pc.reset(c.db.cat)
	for _, doc := range docs {
		if werr := c.WalkDoc(doc, h); werr != nil {
			continue // deleted or quarantined mid-pass
		}
	}
	foldPaths(fresh.PathCounts, []*pathCounter{&h.pc})

	// Swap in, carrying forward whatever the incremental counters accumulated
	// while the recount ran (its reads race writers by design).
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
	fresh.Epoch = c.live.Epoch + 1
	c.live = fresh
	c.statsDirty = 0
	snap := fresh.Clone()
	c.statsMu.Unlock()
	return c.db.cat.UpdateCollectionStats(c.meta, snap)
}

// RefreshStats recounts statistics for every collection. Plans need no
// refresh (conjuncts are estimated from the value indexes); it corrects the
// drift deletes leave in the byte counters and path counts.
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
