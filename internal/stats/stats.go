// Package stats holds per-collection optimizer statistics: document and
// record counts, document sizes, per-path element counts, and per-value-index
// cardinalities with equi-depth histograms over the index's order-preserving
// encoded keys. The planner (internal/core) prices access paths with these;
// the catalog persists them inside the collection row so they survive
// restarts.
//
// Statistics are advisory. Scalar counters are maintained incrementally on
// insert/delete/bulk-load; distinct counts, histograms, and path counts go
// stale between refreshes (a scrub-style background pass rebuilds them from
// the data). Estimation functions never fail — with no histogram they fall
// back to fixed default selectivities, which reproduce the engine's old
// heuristic behavior.
package stats

import (
	"bytes"
	"sort"
)

// Default selectivities when no histogram is available.
const (
	// DefaultRangeSelectivity is the assumed fraction of entries matching a
	// range predicate with no histogram.
	DefaultRangeSelectivity = 1.0 / 3
	// DefaultDistinctFraction estimates distinct values as a fraction of
	// entries when no refresh has counted them.
	DefaultDistinctFraction = 0.5
)

// HistogramBuckets is the target bucket count for index histograms.
const HistogramBuckets = 64

// Bucket is one equi-depth histogram bucket: Count entries whose encoded key
// value is > the previous bucket's UpperBound and <= this one's.
type Bucket struct {
	// UpperBound is the largest encoded key value in the bucket (inclusive).
	UpperBound []byte `json:"ub"`
	// Count is the number of entries in the bucket.
	Count int64 `json:"n"`
	// Distinct is the number of distinct encoded values in the bucket.
	Distinct int64 `json:"d"`
}

// Histogram is an equi-depth histogram over an index's encoded key values.
// Buckets are ordered; a value at most Buckets[i].UpperBound and greater than
// Buckets[i-1].UpperBound falls in bucket i.
type Histogram struct {
	Buckets []Bucket `json:"buckets,omitempty"`
	Total   int64    `json:"total"`
}

// Builder accumulates an equi-depth histogram from values fed in
// nondecreasing order (an index scan yields exactly that). It is streaming:
// when the bucket list outgrows 2x the target, adjacent buckets merge and the
// depth doubles, so memory stays O(maxBuckets) regardless of input size.
type Builder struct {
	maxBuckets int
	depth      int64
	buckets    []Bucket
	cur        Bucket
	curOpen    bool
	last       []byte
	total      int64
	distinct   int64
}

// NewBuilder returns a histogram builder targeting maxBuckets buckets
// (<=0 picks HistogramBuckets).
func NewBuilder(maxBuckets int) *Builder {
	if maxBuckets <= 0 {
		maxBuckets = HistogramBuckets
	}
	return &Builder{maxBuckets: maxBuckets, depth: 1}
}

// Add feeds one encoded key value. Values must arrive in nondecreasing order.
func (b *Builder) Add(enc []byte) {
	newVal := b.total == 0 || !bytes.Equal(enc, b.last)
	b.total++
	if newVal {
		b.distinct++
		b.last = append(b.last[:0], enc...)
	}
	// A bucket may only close at a value boundary: equal values must share a
	// bucket or the per-bucket distinct counts would lie.
	if b.curOpen && b.cur.Count >= b.depth && newVal {
		b.buckets = append(b.buckets, b.cur)
		b.curOpen = false
		if len(b.buckets) >= 2*b.maxBuckets {
			b.merge()
		}
	}
	if !b.curOpen {
		b.cur = Bucket{}
		b.curOpen = true
	}
	b.cur.Count++
	if newVal {
		b.cur.Distinct++
	}
	b.cur.UpperBound = append(b.cur.UpperBound[:0], enc...)
}

// merge halves the bucket list by pairing neighbors and doubles the depth.
func (b *Builder) merge() {
	b.buckets = mergePairs(b.buckets[:0], b.buckets)
	b.depth *= 2
}

// mergePairs appends src's buckets to dst with neighbors paired up. dst may
// be src[:0] to merge in place.
func mergePairs(dst, src []Bucket) []Bucket {
	for i := 0; i < len(src); i += 2 {
		if i+1 < len(src) {
			dst = append(dst, Bucket{
				UpperBound: src[i+1].UpperBound,
				Count:      src[i].Count + src[i+1].Count,
				Distinct:   src[i].Distinct + src[i+1].Distinct,
			})
		} else {
			dst = append(dst, src[i])
		}
	}
	return dst
}

// Build finalizes the histogram. The builder must not be reused.
func (b *Builder) Build() Histogram {
	buckets := b.buckets
	if b.curOpen {
		cur := b.cur
		cur.UpperBound = append([]byte(nil), cur.UpperBound...)
		buckets = append(buckets, cur)
	}
	return Histogram{Buckets: buckets, Total: b.total}
}

// Distinct returns the number of distinct values fed so far.
func (b *Builder) Distinct() int64 { return b.distinct }

// Count returns the number of values fed so far.
func (b *Builder) Count() int64 { return b.total }

// EstimateEq estimates how many entries carry exactly the encoded value:
// the containing bucket's count divided by its distinct-value count.
func (h Histogram) EstimateEq(enc []byte) float64 {
	if len(h.Buckets) == 0 || h.Total == 0 {
		return 0
	}
	for _, bk := range h.Buckets {
		if bytes.Compare(enc, bk.UpperBound) <= 0 {
			d := bk.Distinct
			if d < 1 {
				d = 1
			}
			return float64(bk.Count) / float64(d)
		}
	}
	return 0 // past the maximum: nothing matches
}

// EstimateRange estimates how many entries fall in [lo, hi] (nil = unbounded;
// the strict flags exclude the bound itself). Buckets fully inside count
// whole; a bucket straddling a bound contributes half its count (byte-string
// keys admit no finer interpolation).
func (h Histogram) EstimateRange(lo, hi []byte, loStrict, hiStrict bool) float64 {
	if len(h.Buckets) == 0 || h.Total == 0 {
		return 0
	}
	if lo != nil && hi != nil {
		c := bytes.Compare(lo, hi)
		if c > 0 || (c == 0 && (loStrict || hiStrict)) {
			return 0
		}
		if c == 0 {
			return h.EstimateEq(lo)
		}
	}
	est := 0.0
	var prev []byte // lower edge of the current bucket (exclusive)
	for _, bk := range h.Buckets {
		bucketBelow := lo != nil && bytes.Compare(bk.UpperBound, lo) < 0
		bucketAbove := hi != nil && prev != nil && bytes.Compare(prev, hi) >= 0
		switch {
		case bucketBelow || bucketAbove:
			// no contribution
		case (lo == nil || prev != nil && bytes.Compare(prev, lo) >= 0) &&
			(hi == nil || bytes.Compare(bk.UpperBound, hi) < 0 ||
				(!hiStrict && bytes.Equal(bk.UpperBound, hi))):
			est += float64(bk.Count) // fully inside
		default:
			est += float64(bk.Count) / 2 // straddles a bound
		}
		prev = bk.UpperBound
	}
	if est > float64(h.Total) {
		est = float64(h.Total)
	}
	return est
}

// IndexStats are the per-value-index statistics.
type IndexStats struct {
	// Entries is the total number of index entries. Maintained incrementally.
	Entries int64 `json:"entries"`
	// Distinct is the number of distinct key values as of the last refresh
	// (0 = never refreshed).
	Distinct int64 `json:"distinct,omitempty"`
	// Hist is the equi-depth histogram as of the last refresh.
	Hist Histogram `json:"hist,omitempty"`
}

// distinctEst returns the usable distinct count, defaulting when stale.
func (is *IndexStats) distinctEst() float64 {
	if is.Distinct > 0 {
		return float64(is.Distinct)
	}
	d := float64(is.Entries) * DefaultDistinctFraction
	if d < 1 {
		d = 1
	}
	return d
}

// EstimateEq estimates entries matching `value = enc`.
func (is *IndexStats) EstimateEq(enc []byte) float64 {
	if is == nil || is.Entries == 0 {
		return 0
	}
	if len(is.Hist.Buckets) > 0 {
		// Scale the refresh-time histogram to the current (incrementally
		// maintained) entry count so growth between refreshes is reflected.
		return is.scale(is.Hist.EstimateEq(enc))
	}
	return float64(is.Entries) / is.distinctEst()
}

// EstimateRange estimates entries matching a range predicate.
func (is *IndexStats) EstimateRange(lo, hi []byte, loStrict, hiStrict bool) float64 {
	if is == nil || is.Entries == 0 {
		return 0
	}
	if lo == nil && hi == nil {
		return float64(is.Entries)
	}
	if len(is.Hist.Buckets) > 0 {
		return is.scale(is.Hist.EstimateRange(lo, hi, loStrict, hiStrict))
	}
	return float64(is.Entries) * DefaultRangeSelectivity
}

// scale adjusts a histogram-based estimate for entry-count drift since the
// histogram was built.
func (is *IndexStats) scale(est float64) float64 {
	if is.Hist.Total > 0 && is.Entries != is.Hist.Total {
		est *= float64(is.Entries) / float64(is.Hist.Total)
	}
	if est > float64(is.Entries) {
		est = float64(is.Entries)
	}
	return est
}

// Clone deep-copies the stats (histogram buckets are immutable once built
// and may be shared).
func (is *IndexStats) Clone() *IndexStats {
	if is == nil {
		return nil
	}
	cp := *is
	return &cp
}

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
	// Indexes maps value-index name to its statistics.
	Indexes map[string]*IndexStats `json:"indexes,omitempty"`
}

// New returns empty statistics.
func New() *CollectionStats {
	return &CollectionStats{
		PathCounts: map[string]int64{},
		Indexes:    map[string]*IndexStats{},
	}
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
	cp.Indexes = make(map[string]*IndexStats, len(s.Indexes))
	for k, v := range s.Indexes {
		cp.Indexes[k] = v.Clone()
	}
	return &cp
}

// coarseBuckets is the histogram resolution Coarsen will not go below.
const coarseBuckets = 8

// Coarsen sheds one step of resolution so a snapshot too big for its catalog
// row can still be persisted — statistics are advisory, persisting them is
// not. It first halves every histogram above coarseBuckets buckets (the
// builder's merge-doubling, on a fresh slice: built bucket lists are shared
// between clones), then halves PathCounts, keeping the most frequent paths.
// It reports false when nothing is left to shed.
func (s *CollectionStats) Coarsen() bool {
	if s == nil {
		return false
	}
	shed := false
	for _, is := range s.Indexes {
		if len(is.Hist.Buckets) > coarseBuckets {
			is.Hist.Buckets = mergePairs(nil, is.Hist.Buckets)
			shed = true
		}
	}
	if shed || len(s.PathCounts) == 0 {
		return shed
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

// Index returns the named index's stats, or nil.
func (s *CollectionStats) Index(name string) *IndexStats {
	if s == nil {
		return nil
	}
	return s.Indexes[name]
}

// EnsureIndex returns the named index's stats, creating an empty entry.
func (s *CollectionStats) EnsureIndex(name string) *IndexStats {
	if s.Indexes == nil {
		s.Indexes = map[string]*IndexStats{}
	}
	is := s.Indexes[name]
	if is == nil {
		is = &IndexStats{}
		s.Indexes[name] = is
	}
	return is
}
