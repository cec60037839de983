// Package stats holds per-collection optimizer statistics: document and
// record counts, document sizes and per-path element counts. The planner
// (internal/core) prices access paths with these, next to the per-conjunct
// estimates it reads from the value indexes themselves; the catalog persists
// them inside the collection row so they survive restarts.
//
// Statistics are advisory. The counters are maintained incrementally on
// insert and delete; a refresh recounts them from the data to correct the
// drift (delete subtracts the average document size and no path counts).
package stats

import "sort"

// CollectionStats are one collection's statistics.
type CollectionStats struct {
	// Epoch increments on every refresh and on index DDL; plan caches key on
	// it so either event invalidates cached plans.
	Epoch uint64 `json:"epoch"`
	// DocCount / RecordCount / TotalDocBytes / MaxDocBytes are maintained
	// incrementally (byte counters approximately on delete) and exactly
	// recomputed by refresh.
	DocCount      int64 `json:"docs"`
	RecordCount   int64 `json:"records"`
	TotalDocBytes int64 `json:"bytes"`
	MaxDocBytes   int64 `json:"maxBytes,omitempty"`
	// PathCounts maps rooted element paths ("/a/b") to total element counts,
	// incremented on insert/bulk-load and rebuilt by refresh (deletes leave
	// them stale until then). Depth- and cardinality-capped.
	PathCounts map[string]int64 `json:"paths,omitempty"`
}

// New returns empty statistics.
func New() *CollectionStats {
	return &CollectionStats{PathCounts: map[string]int64{}}
}

// Clone deep-copies the stats for persistence or concurrent readers.
func (s *CollectionStats) Clone() *CollectionStats {
	if s == nil {
		return nil
	}
	cp := *s
	cp.PathCounts = make(map[string]int64, len(s.PathCounts))
	for k, v := range s.PathCounts {
		cp.PathCounts[k] = v
	}
	return &cp
}

// Coarsen sheds one step of resolution so a snapshot too big for its catalog
// row can still be persisted — statistics are advisory, persisting them is
// not. It halves PathCounts, keeping the most frequent paths, and reports
// false when nothing is left to shed.
func (s *CollectionStats) Coarsen() bool {
	if s == nil || len(s.PathCounts) == 0 {
		return false
	}
	paths := make([]string, 0, len(s.PathCounts))
	for p := range s.PathCounts {
		paths = append(paths, p)
	}
	sort.Slice(paths, func(i, j int) bool {
		if ci, cj := s.PathCounts[paths[i]], s.PathCounts[paths[j]]; ci != cj {
			return ci > cj
		}
		return paths[i] < paths[j]
	})
	for _, p := range paths[len(paths)/2:] {
		delete(s.PathCounts, p)
	}
	return true
}

// AvgDocBytes returns the average document size, 0 when empty.
func (s *CollectionStats) AvgDocBytes() int64 {
	if s == nil || s.DocCount <= 0 {
		return 0
	}
	return s.TotalDocBytes / s.DocCount
}

// RecordsPerDoc returns the average packed-record count per document
// (at least 1 when documents exist).
func (s *CollectionStats) RecordsPerDoc() float64 {
	if s == nil || s.DocCount <= 0 {
		return 1
	}
	r := float64(s.RecordCount) / float64(s.DocCount)
	if r < 1 {
		r = 1
	}
	return r
}
