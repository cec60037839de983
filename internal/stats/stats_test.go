package stats

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

// key renders an ordered numeric key the way value indexes encode doubles:
// big-endian, so byte order matches numeric order.
func key(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

func buildHist(t *testing.T, buckets int, vals []uint64) Histogram {
	t.Helper()
	b := NewBuilder(buckets)
	for _, v := range vals {
		b.Add(key(v))
	}
	return b.Build()
}

func TestHistogramUniform(t *testing.T) {
	vals := make([]uint64, 0, 1000)
	for i := 0; i < 1000; i++ {
		vals = append(vals, uint64(i))
	}
	h := buildHist(t, 64, vals)
	if h.Total != 1000 {
		t.Fatalf("total = %d", h.Total)
	}
	if len(h.Buckets) == 0 || len(h.Buckets) > 2*64 {
		t.Fatalf("bucket count = %d", len(h.Buckets))
	}
	// A half-range estimate should land near half the population.
	est := h.EstimateRange(nil, key(499), false, false)
	if est < 350 || est > 650 {
		t.Errorf("range(<=499) = %.1f, want ~500", est)
	}
	// Beyond the max: zero-ish (at most one straddling bucket's half).
	if est := h.EstimateRange(key(2000), nil, false, false); est > float64(h.Total)/float64(len(h.Buckets)) {
		t.Errorf("range past max = %.1f, want ~0", est)
	}
	// Equality on a present value: around total/distinct-per-bucket.
	eq := h.EstimateEq(key(500))
	if eq <= 0 || eq > 100 {
		t.Errorf("eq(500) = %.1f", eq)
	}
	// Equality past the max is a confident zero.
	if eq := h.EstimateEq(key(5000)); eq != 0 {
		t.Errorf("eq past max = %.1f, want 0", eq)
	}
}

func TestHistogramSkew(t *testing.T) {
	// 90% of the population is one heavy value; the histogram must report a
	// far larger estimate for it than for the light values around it.
	var vals []uint64
	for i := 0; i < 900; i++ {
		vals = append(vals, 42)
	}
	for i := 0; i < 100; i++ {
		vals = append(vals, uint64(1000+i))
	}
	// Builder requires nondecreasing input (index scans are ordered).
	h := buildHist(t, 16, vals)
	heavy := h.EstimateEq(key(42))
	light := h.EstimateEq(key(1050))
	if heavy < 10*light {
		t.Errorf("heavy = %.1f, light = %.1f: skew lost", heavy, light)
	}
	if heavy < 100 {
		t.Errorf("heavy = %.1f, want hundreds", heavy)
	}
}

func TestHistogramMergeDoubling(t *testing.T) {
	// Far more distinct values than buckets forces repeated merge-doubling;
	// totals must stay exact and estimates sane.
	var vals []uint64
	for i := 0; i < 10000; i++ {
		vals = append(vals, uint64(i*3))
	}
	h := buildHist(t, 32, vals)
	if h.Total != 10000 {
		t.Fatalf("total = %d", h.Total)
	}
	if len(h.Buckets) > 64 {
		t.Fatalf("bucket count = %d, want <= 2*32", len(h.Buckets))
	}
	full := h.EstimateRange(nil, nil, false, false)
	if full != float64(h.Total) {
		t.Errorf("full range = %.1f, want %d", full, h.Total)
	}
	quarter := h.EstimateRange(nil, key(7500), false, false)
	if quarter < 1500 || quarter > 3500 {
		t.Errorf("quarter range = %.1f, want ~2500", quarter)
	}
}

func TestHistogramRangeBounds(t *testing.T) {
	vals := []uint64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	h := buildHist(t, 4, vals)
	lo, hi := h.EstimateRange(key(25), key(75), false, false), float64(h.Total)
	if lo <= 0 || lo > hi {
		t.Errorf("bounded range = %.1f, total %.1f", lo, hi)
	}
	// Estimates never exceed the population.
	if est := h.EstimateRange(nil, nil, false, false); est > hi {
		t.Errorf("estimate %f exceeds total %f", est, hi)
	}
}

func TestIndexStatsFallbacksAndScaling(t *testing.T) {
	// Nil receiver (no stats yet): estimates 0 so index paths price as free
	// — the documented pre-statistics fallback.
	var nilStats *IndexStats
	if e := nilStats.EstimateEq(key(1)); e != 0 {
		t.Errorf("nil eq = %.1f", e)
	}
	if e := nilStats.EstimateRange(nil, nil, false, false); e != 0 {
		t.Errorf("nil range = %.1f", e)
	}

	// Entries without a histogram: equality uses the distinct count, ranges
	// the default selectivity.
	is := &IndexStats{Entries: 100, Distinct: 20}
	if e := is.EstimateEq(key(1)); e != 5 {
		t.Errorf("eq = %.1f, want entries/distinct = 5", e)
	}
	if e := is.EstimateRange(key(1), nil, false, false); e < 33.3 || e > 33.4 {
		t.Errorf("range = %.2f, want ~100*DefaultRangeSelectivity", e)
	}

	// A histogram built at 100 entries probed after the index grew to 200:
	// estimates scale with the drift.
	var vals []uint64
	for i := 0; i < 100; i++ {
		vals = append(vals, uint64(i))
	}
	b := NewBuilder(8)
	for _, v := range vals {
		b.Add(key(v))
	}
	grown := &IndexStats{Entries: 200, Distinct: 100, Hist: b.Build()}
	half := grown.EstimateRange(nil, key(49), false, false)
	if half < 70 || half > 130 {
		t.Errorf("scaled range = %.1f, want ~100 (50 raw x 2 drift)", half)
	}
	if full := grown.EstimateRange(nil, nil, false, false); full > 200 {
		t.Errorf("scaled estimate %f exceeds entries", full)
	}
}

func TestCollectionStatsCloneIsolation(t *testing.T) {
	cs := New()
	cs.DocCount = 5
	cs.PathCounts = map[string]int64{"/a": 5}
	cs.EnsureIndex("ix").Entries = 7
	cl := cs.Clone()
	cl.DocCount = 9
	cl.PathCounts["/a"] = 99
	cl.Index("ix").Entries = 99
	if cs.DocCount != 5 || cs.PathCounts["/a"] != 5 || cs.Index("ix").Entries != 7 {
		t.Errorf("clone mutated the original: %+v", cs)
	}
}

// TestCoarsen: each step sheds resolution without losing entries — histograms
// first (leaving the original's shared bucket list alone), then the rarest
// paths — and the steps run out.
func TestCoarsen(t *testing.T) {
	vals := make([]uint64, 1000)
	for i := range vals {
		vals[i] = uint64(i)
	}
	cs := New()
	cs.EnsureIndex("ix").Hist = buildHist(t, 64, vals)
	for i := 0; i < 10; i++ {
		cs.PathCounts[fmt.Sprintf("/p%d", i)] = int64(i)
	}
	full := len(cs.Index("ix").Hist.Buckets)
	cl := cs.Clone()
	if !cl.Coarsen() {
		t.Fatal("nothing shed from a full-resolution snapshot")
	}
	h := cl.Index("ix").Hist
	var sum int64
	for _, b := range h.Buckets {
		sum += b.Count
	}
	if len(h.Buckets) != (full+1)/2 || sum != 1000 || len(cl.PathCounts) != 10 {
		t.Fatalf("first step: %d buckets holding %d entries, %d paths; want %d, 1000, 10", len(h.Buckets), sum, len(cl.PathCounts), (full+1)/2)
	}
	if got := cs.Index("ix").Hist; len(got.Buckets) != full || got.Buckets[0].Count+got.Buckets[1].Count != h.Buckets[0].Count {
		t.Fatalf("coarsening the clone disturbed the original's buckets")
	}
	steps := 1
	for cl.Coarsen() {
		if steps++; steps > 64 {
			t.Fatal("Coarsen never runs out")
		}
	}
	if n := len(cl.Index("ix").Hist.Buckets); n == 0 || n > coarseBuckets || len(cl.PathCounts) != 0 {
		t.Fatalf("floor: %d buckets, %d paths", n, len(cl.PathCounts))
	}
	// Paths go rarest first.
	cl = cs.Clone()
	cl.Indexes = nil
	cl.Coarsen()
	if _, ok := cl.PathCounts["/p9"]; !ok || len(cl.PathCounts) != 5 {
		t.Fatalf("path trim kept %v", cl.PathCounts)
	}
}

func TestCollectionStatsJSONRoundTrip(t *testing.T) {
	cs := New()
	cs.DocCount = 3
	cs.RecordCount = 12
	cs.TotalDocBytes = 3000
	cs.PathCounts = map[string]int64{"/a/b": 6}
	is := cs.EnsureIndex("ix")
	is.Entries = 6
	is.Distinct = 3
	b := NewBuilder(4)
	for i := 0; i < 6; i++ {
		b.Add(key(uint64(i)))
	}
	is.Hist = b.Build()

	blob, err := json.Marshal(cs)
	if err != nil {
		t.Fatal(err)
	}
	var back CollectionStats
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.DocCount != 3 || back.PathCounts["/a/b"] != 6 {
		t.Errorf("round trip lost scalars: %+v", back)
	}
	ix := back.Index("ix")
	if ix == nil || ix.Entries != 6 || ix.Hist.Total != 6 {
		t.Errorf("round trip lost index stats: %+v", ix)
	}
}

func TestBuilderRandomizedMonotonicTotals(t *testing.T) {
	// Property: whatever ordered stream goes in, Build reports the exact
	// total, distinct <= total, and range estimates are monotone in the
	// upper bound.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(3000)
		vals := make([]uint64, n)
		v := uint64(0)
		for i := range vals {
			v += uint64(rng.Intn(5)) // duplicates allowed
			vals[i] = v
		}
		h := buildHist(t, 1+rng.Intn(64), vals)
		if h.Total != int64(n) {
			t.Fatalf("trial %d: total %d != %d", trial, h.Total, n)
		}
		prev := 0.0
		for _, ub := range []uint64{v / 4, v / 2, v, v + 10} {
			est := h.EstimateRange(nil, key(ub), false, false)
			if est+1e-9 < prev {
				t.Fatalf("trial %d: estimate not monotone: %.1f after %.1f (ub=%d)",
					trial, est, prev, ub)
			}
			if est > float64(h.Total)+1e-9 {
				t.Fatalf("trial %d: estimate %.1f exceeds total %d", trial, est, h.Total)
			}
			prev = est
		}
	}
}

func TestHistogramBucketSanity(t *testing.T) {
	// Bucket invariants the estimators rely on: ordered bounds, positive
	// counts, distinct <= count.
	var vals []uint64
	for i := 0; i < 500; i++ {
		vals = append(vals, uint64(i%37))
	}
	// Nondecreasing input.
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			vals = vals[:i]
		}
	}
	h := buildHist(t, 8, []uint64{0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	var prev []byte
	var sum int64
	for i, bk := range h.Buckets {
		if bk.Count <= 0 || bk.Distinct <= 0 || bk.Distinct > bk.Count {
			t.Fatalf("bucket %d: count=%d distinct=%d", i, bk.Count, bk.Distinct)
		}
		if prev != nil && string(bk.UpperBound) <= string(prev) {
			t.Fatalf("bucket %d: bounds not increasing", i)
		}
		prev = bk.UpperBound
		sum += bk.Count
	}
	if sum != h.Total {
		t.Fatalf("bucket counts sum %d != total %d", sum, h.Total)
	}
}

func ExampleHistogram() {
	b := NewBuilder(4)
	for i := 0; i < 100; i++ {
		b.Add(key(uint64(i)))
	}
	h := b.Build()
	fmt.Printf("total=%d\n", h.Total)
	// Output: total=100
}
