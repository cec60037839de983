package core

// Per-collection optimizer statistics, read from the structures that hold
// the data: documents are the base table's rows (one per listed document),
// records the XML table's rows, and bytes the XML table's live row bytes,
// each an exact count the heap keeps as it writes (heap.Table.Count, Bytes).
// What a conjunct matches, and how many anchors a NodeID-filtering plan
// re-evaluates, are dives into the conjunct's own value index
// (valueindex.Index.Estimate). Nothing here is persisted, refreshed or
// reconciled, and nothing keeps a plan: every execution plans afresh.

// CollectionStats is a snapshot of a collection's statistics.
type CollectionStats struct {
	// DocCount, RecordCount and TotalDocBytes are the base table's rows, the
	// XML table's rows and their bytes (row headers included).
	DocCount, RecordCount, TotalDocBytes int64
}

// StatsSnapshot returns the collection's current statistics.
func (c *Collection) StatsSnapshot() *CollectionStats {
	return &CollectionStats{
		DocCount:      int64(c.base.Count()),
		RecordCount:   int64(c.xmlTbl.Count()),
		TotalDocBytes: int64(c.xmlTbl.Bytes()),
	}
}

// RefreshStats does nothing and returns nil: the statistics are always
// current and no plan outlives the call that made it, so there is nothing
// to recount or invalidate. It is kept for callers written against the
// engine when it cached plans.
func (db *DB) RefreshStats() error { return nil }
