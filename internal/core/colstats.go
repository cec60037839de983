package core

// Per-collection optimizer statistics, read from the structures that hold
// the data: documents are the base table's rows (one per listed document),
// records the XML table's rows, and bytes the XML table's live row bytes,
// each an exact count the heap keeps as it writes (heap.Table.Count, Bytes).
// What a conjunct matches, and how many anchors a NodeID-filtering plan
// re-evaluates, are dives into the conjunct's own value index
// (valueindex.Index.Estimate). Nothing here is persisted, refreshed or
// reconciled; the one piece of state is the plan-cache epoch.

import "sync/atomic"

// CollectionStats is a snapshot of a collection's statistics.
type CollectionStats struct {
	// Epoch moves on index DDL, on the first write that clears an index's
	// SingleValued flag, and on RefreshStats; plan caches key on it.
	Epoch uint64
	// DocCount, RecordCount and TotalDocBytes are the base table's rows, the
	// XML table's rows and their bytes (row headers included).
	DocCount, RecordCount, TotalDocBytes int64
}

// StatsSnapshot returns the collection's current statistics.
func (c *Collection) StatsSnapshot() *CollectionStats {
	return &CollectionStats{
		Epoch:         c.epoch.Load(),
		DocCount:      int64(c.base.Count()),
		RecordCount:   int64(c.xmlTbl.Count()),
		TotalDocBytes: int64(c.xmlTbl.Bytes()),
	}
}

// StatsEpoch returns the plan-cache epoch (CollectionStats.Epoch).
func (c *Collection) StatsEpoch() uint64 { return c.epoch.Load() }

// RefreshStats moves the epoch, so cached plans are planned again. The
// statistics themselves are always current: there is nothing to recount.
func (c *Collection) RefreshStats() error {
	c.epoch.Add(1)
	return nil
}

// RefreshStats refreshes every collection (Collection.RefreshStats) and
// counts a pass.
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
