package buffer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rx/internal/pagestore"
	"rx/internal/rxerr"
)

func TestFetchMissRead(t *testing.T) {
	store := pagestore.NewMemStore()
	id, _ := store.Allocate()
	buf := make([]byte, pagestore.PageSize)
	buf[7] = 42
	store.WritePage(id, buf)

	p := New(store, 4)
	f, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if f.Data[7] != 42 {
		t.Error("miss did not read from store")
	}
	p.Unpin(f, false)
	// Second fetch is a hit.
	f2, _ := p.Fetch(id)
	p.Unpin(f2, false)
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("hits=%d misses=%d", st.Hits, st.Misses)
	}
}

func TestEvictionWritesDirty(t *testing.T) {
	store := pagestore.NewMemStore()
	p := New(store, 2)
	f, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Modify(f, func(d []byte) error { d[10] = 9; return nil }); err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	p.Unpin(f, false)
	// Fill the pool to force eviction of the dirty page.
	for i := 0; i < 4; i++ {
		g, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(g, false)
	}
	buf := make([]byte, pagestore.PageSize)
	if err := store.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[10] != 9 {
		t.Error("dirty page not written back on eviction")
	}
	if st := p.Stats(); st.Evictions == 0 {
		t.Error("expected evictions")
	}
}

func TestPoolFull(t *testing.T) {
	p := New(pagestore.NewMemStore(), 2)
	a, _ := p.NewPage()
	b, _ := p.NewPage()
	if _, err := p.NewPage(); err == nil {
		t.Error("expected pool-full error with all frames pinned")
	}
	p.Unpin(a, false)
	p.Unpin(b, false)
	if _, err := p.NewPage(); err != nil {
		t.Errorf("after unpin: %v", err)
	}
}

type recordingLogger struct {
	mu      sync.Mutex
	deltas  int
	lastLSN LSN
}

func (r *recordingLogger) LogPageDelta(id pagestore.PageID, runs []PageRun) (LSN, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.deltas++
	r.lastLSN += 100
	return r.lastLSN, nil
}

func TestModifyLogsDelta(t *testing.T) {
	p := New(pagestore.NewMemStore(), 4)
	lg := &recordingLogger{}
	p.SetLogger(lg)
	f, _ := p.NewPage()
	defer p.Unpin(f, false)

	if err := p.Modify(f, func(d []byte) error { d[100] = 1; return nil }); err != nil {
		t.Fatal(err)
	}
	if lg.deltas != 1 {
		t.Errorf("deltas = %d", lg.deltas)
	}
	if PageLSN(f.Data) != 100 {
		t.Errorf("page LSN = %d, want 100", PageLSN(f.Data))
	}
	// No-op modification logs nothing.
	if err := p.Modify(f, func(d []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if lg.deltas != 1 {
		t.Errorf("no-op logged: deltas = %d", lg.deltas)
	}
	// A failed modification rolls the page back.
	sentinel := errSentinel{}
	err := p.Modify(f, func(d []byte) error { d[200] = 7; return sentinel })
	if err != sentinel {
		t.Fatalf("err = %v", err)
	}
	if f.Data[200] != 0 {
		t.Error("failed modification not rolled back")
	}
}

type errSentinel struct{}

func (errSentinel) Error() string { return "sentinel" }

func TestDiffRuns(t *testing.T) {
	a := make([]byte, pagestore.PageSize)
	b := make([]byte, pagestore.PageSize)
	if runs := diffRuns(nil, a, b); len(runs) != 0 {
		t.Errorf("identical: %v", runs)
	}
	// Two changes a short gap apart merge; one beyond diffGapMin splits off.
	b[100], b[120] = 1, 2
	b[122+diffGapMin] = 3
	runs := diffRuns(nil, a, b)
	if len(runs) != 2 || runs[0].Off != 100 || len(runs[0].After) != 21 ||
		runs[1].Off != 122+diffGapMin || len(runs[1].After) != 1 || runs[1].After[0] != 3 {
		t.Errorf("got %+v", runs)
	}
	// The gap rule is WAL format: exactly diffGapMin unchanged bytes merge,
	// one more splits.
	for gap, want := range map[int]int{diffGapMin: 1, diffGapMin + 1: 2} {
		b = make([]byte, pagestore.PageSize)
		b[100], b[101+gap] = 1, 2
		if runs := diffRuns(nil, a, b); len(runs) != want {
			t.Errorf("gap %d: %d runs, want %d: %+v", gap, len(runs), want, runs)
		}
	}
	// Changes within the LSN field are ignored.
	b = make([]byte, pagestore.PageSize)
	b[3] = 9
	if runs := diffRuns(nil, a, b); len(runs) != 0 {
		t.Errorf("LSN-only diff: %v", runs)
	}
}

// diffRunsRef is the byte-at-a-time definition of a page delta's runs, the
// oracle diffRuns must reproduce exactly: the runs are the WAL's bytes.
func diffRunsRef(a, b []byte) []PageRun {
	var runs []PageRun
	i := 8
	for {
		for i < len(a) && a[i] == b[i] {
			i++
		}
		if i == len(a) {
			return runs
		}
		lo := i
		// Extend the run, absorbing gaps of up to diffGapMin unchanged bytes.
		hi := i + 1
		for j := hi; j < len(a); j++ {
			if a[j] != b[j] {
				hi = j + 1
			} else if j-hi >= diffGapMin {
				break
			}
		}
		runs = append(runs, PageRun{Off: lo, After: b[lo:hi]})
		i = hi
	}
}

// checkDiffRuns fails t unless diffRuns(a, b) equals the reference runs,
// offsets and after-image bytes.
func checkDiffRuns(t *testing.T, name string, a, b []byte) {
	t.Helper()
	got, want := diffRuns(nil, a, b), diffRunsRef(a, b)
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = got[i].Off == want[i].Off && bytes.Equal(got[i].After, want[i].After)
	}
	if !same {
		t.Fatalf("%s: diffRuns = %s, reference = %s", name, fmtRuns(got), fmtRuns(want))
	}
}

func fmtRuns(runs []PageRun) string {
	s := fmt.Sprintf("%d runs", len(runs))
	for _, r := range runs {
		s += fmt.Sprintf(" [%d,%d)", r.Off, r.Off+len(r.After))
	}
	return s
}

func TestDiffRunsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := make([]byte, pagestore.PageSize)
	rng.Read(base)
	page := func(edit func(b []byte)) (a, b []byte) {
		a = bytes.Clone(base)
		b = bytes.Clone(base)
		edit(b)
		return a, b
	}
	cases := map[string]func(b []byte){
		"identical": func([]byte) {},
		"lsn-only":  func(b []byte) { copy(b, "\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8") },
		"offset-8":  func(b []byte) { b[8]++ },
		"last-byte": func(b []byte) { b[pagestore.PageSize-1]++ },
		// The first run's word walk starts 4 bytes short of the end, so the
		// rest of it is compared bytewise.
		"trailing-partial-word": func(b []byte) { b[pagestore.PageSize-5]++; b[pagestore.PageSize-1]++ },
		"full-rewrite": func(b []byte) {
			for i := range b {
				b[i]++
			}
		},
		// A B+tree leaf insert at slot 10 of 150: the slot array shifts two
		// bytes right, the header's count and free pointer change, and the new
		// cell lands below the free pointer.
		"slot-shift": func(b []byte) {
			const slots, at = 18, 18 + 10*2
			copy(b[at+2:slots+151*2], b[at:slots+150*2])
			b[at], b[at+1] = 0x1f, 0x40
			b[11]++
			b[13] -= 24
			copy(b[7000:7024], "a fresh leaf cell, 24 B.")
		},
	}
	for _, gap := range []int{63, 64, 65, 66} {
		cases[fmt.Sprint("gap-", gap)] = func(b []byte) { b[500]++; b[501+gap]++; b[502+2*gap]++ }
	}
	for name, edit := range cases {
		a, b := page(edit)
		checkDiffRuns(t, name, a, b)
	}
	// Sparse single-byte changes land on every block and word boundary the
	// skips in nextDiff can get wrong.
	for k := 0; k < 2000; k++ {
		a, b := page(func(b []byte) {
			for e := 1 + rng.Intn(16); e > 0; e-- {
				b[rng.Intn(len(b))]++
			}
		})
		checkDiffRuns(t, fmt.Sprint("sparse-", k), a, b)
	}
	// Lengths that are not a multiple of the word: the tail is compared
	// bytewise.
	for _, n := range []int{9, 15, 71, 600, 8191} {
		a, b := page(func(b []byte) { b[n-1]++; b[n/2]++ })
		checkDiffRuns(t, fmt.Sprint("len-", n), a[:n], b[:n])
	}
}

// FuzzDiffRuns: fuzz bytes drive edits to a page pair — each 4-byte group
// is a 2-byte offset, a length and a value added to the bytes it covers —
// and the runs must equal the reference's.
func FuzzDiffRuns(f *testing.F) {
	f.Add([]byte{0, 8, 1, 7})
	f.Add([]byte{0x1f, 0xff, 1, 1, 0, 100, 1, 1, 0, 165, 1, 1, 0, 230, 1, 2})
	f.Add([]byte{0, 0, 255, 9, 0x10, 0, 255, 3})
	f.Fuzz(func(t *testing.T, edits []byte) {
		a := make([]byte, pagestore.PageSize)
		for i := range a {
			a[i] = byte(i * 7 >> 3) // runs of equal bytes, so XOR finds zero bytes too
		}
		b := bytes.Clone(a)
		for ; len(edits) >= 4; edits = edits[4:] {
			off := int(binary.BigEndian.Uint16(edits)) % pagestore.PageSize
			end := min(off+int(edits[2]), pagestore.PageSize)
			for i := off; i < end; i++ {
				b[i] += edits[3] + byte(i-off)
			}
		}
		checkDiffRuns(t, "fuzz", a, b)
	})
}

func TestConcurrentFetch(t *testing.T) {
	store := pagestore.NewMemStore()
	p := New(store, 16)
	var ids []pagestore.PageID
	for i := 0; i < 8; i++ {
		f, _ := p.NewPage()
		ids = append(ids, f.ID())
		p.Unpin(f, false)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				f, err := p.Fetch(ids[(g+i)%len(ids)])
				if err != nil {
					t.Error(err)
					return
				}
				f.RLock()
				_ = f.Data[0]
				f.RUnlock()
				p.Unpin(f, false)
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentFetchModifyEvict hammers a pool far smaller than its
// working set with mixed readers and writers, so fetch misses, fills,
// write-backs, and evictions all interleave. Run under -race.
func TestConcurrentFetchModifyEvict(t *testing.T) {
	store := pagestore.NewMemStore()
	// Capacity equals the goroutine count: each goroutine pins at most one
	// frame, so a victim always exists, while the 32-page working set keeps
	// constant eviction pressure.
	p := New(store, 8)
	var ids []pagestore.PageID
	for i := 0; i < 32; i++ {
		f, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Modify(f, func(d []byte) error { d[0] = byte(i); return nil }); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.ID())
		p.Unpin(f, false)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				n := (g*37 + i) % len(ids)
				f, err := p.Fetch(ids[n])
				if err != nil {
					t.Error(err)
					return
				}
				if g%2 == 0 {
					f.RLock()
					if f.Data[0] != byte(n) {
						t.Errorf("page %d holds %d", n, f.Data[0])
						f.RUnlock()
						p.Unpin(f, false)
						return
					}
					f.RUnlock()
					p.Unpin(f, false)
				} else {
					err := p.Modify(f, func(d []byte) error {
						if d[0] != byte(n) {
							t.Errorf("page %d holds %d before modify", n, d[0])
						}
						d[1]++
						return nil
					})
					if err != nil {
						t.Error(err)
					}
					p.Unpin(f, true)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Every page must have survived the churn with its identity byte intact.
	buf := make([]byte, pagestore.PageSize)
	for n, id := range ids {
		if err := store.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(n) {
			t.Errorf("page %d persisted %d", n, buf[0])
		}
	}
}

// fillPool returns a pool of the given capacity over a store of n pages,
// with pages [0, capacity) resident, in order, and unpinned.
func fillPool(t *testing.T, capacity, n int) *Pool {
	t.Helper()
	store := pagestore.NewMemStore()
	for i := 0; i < n; i++ {
		if _, err := store.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	p := New(store, capacity)
	for id := 0; id < capacity; id++ {
		f, err := p.Fetch(pagestore.PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f, false)
	}
	return p
}

// mapped reports whether page id is in the pool's page table.
func mapped(p *Pool, id pagestore.PageID) bool {
	s := p.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.frames[id]
	return ok
}

// TestClockSecondChance: a frame referenced since the hand last passed
// survives one sweep, and an unreferenced one is evicted first.
func TestClockSecondChance(t *testing.T) {
	p := fillPool(t, 4, 8)
	// Every frame is referenced: the hand clears all four bits, comes round
	// to frame 0 and evicts page 0.
	f, err := p.Fetch(4)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f, false)
	if mapped(p, 0) {
		t.Fatal("page 0 survived a sweep that cleared every reference bit")
	}
	// Reference page 1 again; pages 2 and 3 stay unreferenced. The hand
	// spares page 1 once and evicts page 2.
	f, _ = p.Fetch(1)
	p.Unpin(f, false)
	f, _ = p.Fetch(5)
	p.Unpin(f, false)
	for id, want := range map[pagestore.PageID]bool{1: true, 2: false, 3: true, 4: true, 5: true} {
		if got := mapped(p, id); got != want {
			t.Errorf("page %d resident = %v, want %v", id, got, want)
		}
	}
	if st := p.Stats(); st.Evictions != 2 || st.Resident != 4 {
		t.Errorf("evictions = %d, resident = %d; want 2, 4", st.Evictions, st.Resident)
	}
}

// TestClockSkipsPinned: a pinned frame is never a victim, however many
// sweeps pass it.
func TestClockSkipsPinned(t *testing.T) {
	p := fillPool(t, 4, 64)
	pinned, err := p.Fetch(2)
	if err != nil {
		t.Fatal(err)
	}
	for id := pagestore.PageID(4); id < 64; id++ {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f, false)
		if !mapped(p, 2) {
			t.Fatalf("pinned page 2 evicted by the miss on page %d", id)
		}
	}
	p.Unpin(pinned, false)
}

// TestClockPinnedShardStillGetsFrame: a page whose shard holds only pinned
// frames still gets a frame while any frame elsewhere is unpinned —
// capacity and replacement are global — and residency stays at capacity.
func TestClockPinnedShardStillGetsFrame(t *testing.T) {
	p := fillPool(t, 4, 8)
	home := p.shardOf(0)
	if p.shardOf(4) != home {
		t.Fatal("page 4 not in page 0's shard") // 2 or 4 shards at capacity 4
	}
	var held []*Frame
	for id := pagestore.PageID(0); id < 4; id++ {
		if p.shardOf(id) == home {
			f, err := p.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, f)
		}
	}
	f4, err := p.Fetch(4)
	if err != nil {
		t.Fatalf("fetch with unpinned frames in other shards: %v", err)
	}
	if st := p.Stats(); st.Evictions != 1 || st.Resident != 4 {
		t.Errorf("evictions = %d, resident = %d; want 1, 4", st.Evictions, st.Resident)
	}
	for _, f := range append(held, f4) {
		p.Unpin(f, false)
	}
}

// TestClockPoolFullExactly: ErrPoolFull comes back exactly when every frame
// is pinned; a hit still succeeds then, and the last unpin of any frame
// clears it.
func TestClockPoolFullExactly(t *testing.T) {
	p := fillPool(t, 4, 8)
	fetch := func(id pagestore.PageID) *Frame {
		t.Helper()
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatalf("fetch %d: %v", id, err)
		}
		return f
	}
	full := func(id pagestore.PageID) {
		t.Helper()
		if _, err := p.Fetch(id); !errors.Is(err, ErrPoolFull) {
			t.Fatalf("fetch %d with every frame pinned: err = %v, want ErrPoolFull", id, err)
		}
	}
	f0, f1, f2 := fetch(0), fetch(1), fetch(2)
	f4 := fetch(4) // takes page 3's frame, the last unpinned one
	full(5)
	again := fetch(0) // a hit needs no frame
	p.Unpin(f0, false)
	full(5) // page 0 is still pinned once
	p.Unpin(f1, false)
	f5 := fetch(5)
	full(6)
	for _, f := range []*Frame{again, f2, f4, f5} {
		p.Unpin(f, false)
	}
	if st := p.Stats(); st.Pinned != 0 || st.Resident != 4 {
		t.Errorf("pinned = %d, resident = %d; want 0, 4", st.Pinned, st.Resident)
	}
}

// TestPoolAllocs is the allocation tripwire: a hot Fetch+Unpin and a
// steady-state miss that evicts a clean frame allocate nothing, because
// frames are reused and the clock keeps no per-pin bookkeeping.
func TestPoolAllocs(t *testing.T) {
	p := fillPool(t, 4, 8)
	cycle := func(id pagestore.PageID) {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f, false)
	}
	const runs = 1000
	before := p.Stats()
	hot := testing.AllocsPerRun(runs, func() { cycle(1) })
	mid := p.Stats()
	// Eight pages round-robin through four frames, starting past the
	// resident ones: every fetch misses and evicts.
	next := 4
	miss := testing.AllocsPerRun(runs, func() {
		cycle(pagestore.PageID(next % 8))
		next++
	})
	after := p.Stats()
	if hits := mid.Hits - before.Hits; hits != runs+1 {
		t.Fatalf("hot loop: %d hits, want %d", hits, runs+1)
	}
	if misses := after.Misses - mid.Misses; misses != runs+1 {
		t.Fatalf("miss loop: %d misses, want %d", misses, runs+1)
	}
	if hot != 0 || miss != 0 {
		t.Errorf("allocations per hot Fetch+Unpin = %v, per miss cycle = %v; want 0, 0", hot, miss)
	}
}

// TestShardedChurnStats drives heavy concurrent churn across the shards
// (run under -race) and then checks the Stats snapshot is coherent: counters
// flowing, residency within capacity, nothing left pinned.
func TestShardedChurnStats(t *testing.T) {
	store := pagestore.NewMemStore()
	p := New(store, 16)
	var ids []pagestore.PageID
	for i := 0; i < 64; i++ {
		f, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Modify(f, func(d []byte) error { d[0] = byte(i); return nil }); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.ID())
		p.Unpin(f, false)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				n := (g*53 + i*7) % len(ids)
				f, err := p.Fetch(ids[n])
				if err != nil {
					t.Error(err)
					return
				}
				if g%2 == 0 {
					f.RLock()
					if f.Data[0] != byte(n) {
						t.Errorf("page %d holds %d", n, f.Data[0])
					}
					f.RUnlock()
					p.Unpin(f, false)
				} else {
					if err := p.Modify(f, func(d []byte) error { d[2]++; return nil }); err != nil {
						t.Error(err)
					}
					p.Unpin(f, true)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Misses == 0 || st.Evictions == 0 || st.WriteBacks == 0 {
		t.Errorf("expected churn: %+v", st)
	}
	if st.Resident > st.Capacity {
		t.Errorf("resident %d exceeds capacity %d at quiescence", st.Resident, st.Capacity)
	}
	if st.Pinned != 0 {
		t.Errorf("pinned = %d at quiescence, want 0", st.Pinned)
	}
	// Data integrity after the churn.
	buf := make([]byte, pagestore.PageSize)
	for n, id := range ids {
		if err := store.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(n) {
			t.Errorf("page %d persisted %d", n, buf[0])
		}
	}
}

// flakyStore fails WritePage a scripted number of times, then recovers.
type flakyStore struct {
	pagestore.Store
	failures int
	writes   int
}

func (s *flakyStore) WritePage(id pagestore.PageID, buf []byte) error {
	s.writes++
	if s.failures > 0 {
		s.failures--
		return errors.New("transient write error")
	}
	return s.Store.WritePage(id, buf)
}

func TestWriteBackRetriesTransientErrors(t *testing.T) {
	fs := &flakyStore{Store: pagestore.NewMemStore(), failures: 2}
	p := New(fs, 4)
	p.SetWriteRetry(2, time.Microsecond)
	f, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	f.Data[100] = 9
	p.Unpin(f, true)
	if err := p.FlushAll(); err != nil {
		t.Fatalf("flush with 2 transient failures: %v", err)
	}
	if n := p.Stats().WriteRetries; n != 2 {
		t.Errorf("writeRetries = %d, want 2", n)
	}
	buf := make([]byte, pagestore.PageSize)
	fs.Store.ReadPage(f.ID(), buf)
	if buf[100] != 9 {
		t.Error("retried write-back lost data")
	}
}

func TestWriteBackRetryExhaustion(t *testing.T) {
	fs := &flakyStore{Store: pagestore.NewMemStore(), failures: 10}
	p := New(fs, 4)
	p.SetWriteRetry(2, time.Microsecond)
	f, _ := p.NewPage()
	f.Data[1] = 1
	p.Unpin(f, true)
	if err := p.FlushAll(); err == nil {
		t.Fatal("flush should fail once retries are exhausted")
	}
	if fs.writes != 3 { // 1 attempt + 2 retries
		t.Errorf("write attempts = %d, want 3", fs.writes)
	}
	// The frame stays dirty so a later flush (after the device heals) works.
	fs.failures = 0
	if err := p.FlushAll(); err != nil {
		t.Fatalf("flush after heal: %v", err)
	}
}

// fullStore rejects every page write with the typed no-space error while
// full is set.
type fullStore struct {
	pagestore.Store
	full bool
}

func (s *fullStore) WritePage(id pagestore.PageID, buf []byte) error {
	if s.full {
		return fmt.Errorf("%w: device write of page %d", rxerr.ErrNoSpace, id)
	}
	return s.Store.WritePage(id, buf)
}

// TestVictimSkipsFailedWriteBack: on a full device a read still gets a
// frame while any unpinned frame is clean. The dirty victim whose write-back
// failed stays dirty and resident and the clock moves on; only when every
// unpinned frame is dirty does the read fail, with the write error, not
// ErrPoolFull. The pages survive to be written once the device has room.
func TestVictimSkipsFailedWriteBack(t *testing.T) {
	store := &fullStore{Store: pagestore.NewMemStore()}
	for i := 0; i < 4; i++ {
		if _, err := store.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	p := New(store, 2)
	f, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	f.Data[100] = 7
	p.Unpin(f, true)
	if f, err = p.Fetch(1); err != nil {
		t.Fatal(err)
	}
	p.Unpin(f, false)
	store.full = true
	// Page 0's frame comes first round the clock and fails its write-back;
	// page 1's is clean.
	if f, err = p.Fetch(2); err != nil {
		t.Fatalf("fetch with a clean unpinned frame: %v", err)
	}
	if !mapped(p, 0) || mapped(p, 1) {
		t.Fatalf("page 0 resident %v, page 1 resident %v; want the clean page 1 evicted", mapped(p, 0), mapped(p, 1))
	}
	f.Data[100] = 9
	p.Unpin(f, true)
	_, err = p.Fetch(3)
	if !errors.Is(err, rxerr.ErrNoSpace) || errors.Is(err, ErrPoolFull) {
		t.Fatalf("fetch with every frame dirty: %v, want the no-space write error", err)
	}
	store.full = false
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pagestore.PageSize)
	for id, want := range map[pagestore.PageID]byte{0: 7, 2: 9} {
		if err := store.ReadPage(id, buf); err != nil || buf[100] != want {
			t.Fatalf("page %d holds %d, %v; want %d", id, buf[100], err, want)
		}
	}
}
