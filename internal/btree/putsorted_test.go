package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"rx/internal/buffer"
	"rx/internal/pagestore"
)

// countLog is a PageLogger that keeps only a record count. Its LSNs make the
// page LSNs of two trees differ, which is why the comparison skips [0,8).
type countLog struct{ n buffer.LSN }

func (l *countLog) LogPageDelta(pagestore.PageID, []buffer.PageRun) (buffer.LSN, error) {
	l.n++
	return l.n, nil
}

// sortedCase is one generated PutSorted workload: entries to pre-fill in
// insertion order, keys to delete after that (holes that only compaction
// reclaims), how many of the restart cells left to delete then, and
// strictly ascending runs that reuse some live and some deleted keys under
// new values (exact-key replacements).
type sortedCase struct {
	prefill        []Entry
	deletes        [][]byte
	restartDeletes int
	runs           [][]Entry
}

// genSortedCase draws a case over nKeys distinct keys whose lengths reach
// maxKey and whose values reach maxVal (at most 256 keys when maxKey is 1:
// there are no more one-byte keys).
func genSortedCase(rng *rand.Rand, nKeys, maxKey, maxVal int) sortedCase {
	if maxKey == 1 {
		nKeys = min(nKeys, 256)
	}
	size := func(limit int) int {
		if rng.Intn(8) == 0 {
			return limit - rng.Intn(limit/8+1) // near the limit
		}
		return rng.Intn(min(limit, 48) + 1)
	}
	seen := map[string]bool{}
	var keys [][]byte
	for len(keys) < nKeys {
		k := make([]byte, max(1, size(maxKey)))
		rng.Read(k)
		if !seen[string(k)] {
			seen[string(k)] = true
			keys = append(keys, k)
		}
	}
	val := func() []byte {
		v := make([]byte, size(maxVal))
		rng.Read(v)
		return v
	}
	var c sortedCase
	for _, i := range rng.Perm(nKeys)[:rng.Intn(nKeys+1)] {
		c.prefill = append(c.prefill, Entry{Key: keys[i], Value: val()})
	}
	for _, e := range c.prefill {
		if rng.Intn(3) == 0 {
			c.deletes = append(c.deletes, e.Key)
		}
	}
	for r := 1 + rng.Intn(3); r > 0; r-- {
		var run []Entry
		for _, i := range rng.Perm(nKeys)[:1+rng.Intn(nKeys)] {
			run = append(run, Entry{Key: keys[i], Value: val()})
		}
		slices.SortFunc(run, func(x, y Entry) int { return bytes.Compare(x.Key, y.Key) })
		c.runs = append(c.runs, run)
	}
	return c
}

// genRunCase draws a case shaped like an index fed in key order: 2 to 9
// ascending runs, each key a shared stem of up to maxStem bytes, the run's
// tag byte and the run's next counter value, interleaved into the pre-fill
// and then continued by sorted batches, so that leaves split where runs
// grow, also mid-tree. One value in eight is near maxVal, so a cut at a
// run's edge sometimes leaves the left page short of room and falls back
// to an even split.
func genRunCase(rng *rand.Rand, nKeys, maxStem, maxVal int) sortedCase {
	stem := make([]byte, rng.Intn(maxStem+1))
	rng.Read(stem)
	next := make([]uint32, 2+rng.Intn(8))
	keys := make([][]byte, nKeys)
	for i := range keys {
		r := rng.Intn(len(next))
		next[r]++
		keys[i] = binary.BigEndian.AppendUint32(append(slices.Clip(stem), byte(r)), next[r])
	}
	val := func() []byte {
		n := rng.Intn(min(maxVal, 48) + 1)
		if rng.Intn(8) == 0 {
			n = maxVal - rng.Intn(maxVal/8+1)
		}
		v := make([]byte, n)
		rng.Read(v)
		return v
	}
	var c sortedCase
	cut := rng.Intn(nKeys + 1)
	for _, k := range keys[:cut] {
		c.prefill = append(c.prefill, Entry{Key: k, Value: val()})
		if rng.Intn(8) == 0 {
			c.deletes = append(c.deletes, k)
		}
	}
	for rest := keys[cut:]; len(rest) > 0; {
		m := 1 + rng.Intn(len(rest))
		var run []Entry
		for _, k := range rest[:m] {
			run = append(run, Entry{Key: k, Value: val()})
		}
		slices.SortFunc(run, func(x, y Entry) int { return bytes.Compare(x.Key, y.Key) })
		c.runs = append(c.runs, run)
		rest = rest[m:]
	}
	return c
}

// checkPutSortedMatchesPut applies c to two logged trees on 8-frame pools —
// small enough that frames are evicted in the middle of a run — one taking
// each run as sequential Puts, the other as one PutSorted. Every leaf must
// pass checkLeaf after the pre-fill, after the deletes and after each run,
// and every page must come out byte-identical outside the LSN field. It
// returns the page-delta records each tree logged for the runs.
func checkPutSortedMatchesPut(t *testing.T, c sortedCase) (seqRecs, batRecs buffer.LSN) {
	t.Helper()
	var trees [2]*Tree
	var logs [2]*countLog
	for i := range trees {
		pool := buffer.New(pagestore.NewMemStore(), 8)
		logs[i] = &countLog{}
		pool.SetLogger(logs[i])
		tr, err := Create(pool)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range c.prefill {
			if err := tr.Put(e.Key, e.Value); err != nil {
				t.Fatal(err)
			}
		}
		checkTree(t, tr)
		for _, k := range c.deletes {
			if err := tr.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
		// The trees are alike so far, so the restarts picked are too.
		if rk := restartKeys(t, tr); c.restartDeletes > 0 && len(rk) > 0 {
			for j := 0; j < c.restartDeletes; j++ {
				if err := tr.Delete(rk[j*len(rk)/c.restartDeletes]); err != nil && !errors.Is(err, ErrNotFound) {
					t.Fatal(err)
				}
			}
		}
		checkTree(t, tr)
		trees[i] = tr
	}
	seq, bat := trees[0], trees[1]
	seq0, bat0 := logs[0].n, logs[1].n
	for _, run := range c.runs {
		for _, e := range run {
			if err := seq.Put(e.Key, e.Value); err != nil {
				t.Fatal(err)
			}
		}
		if err := bat.PutSorted(run); err != nil {
			t.Fatal(err)
		}
		checkTree(t, seq)
		checkTree(t, bat)
	}
	seqPages, err := seq.Pages()
	if err != nil {
		t.Fatal(err)
	}
	batPages, err := bat.Pages()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(seqPages, batPages) {
		t.Fatalf("tree pages differ:\nPut       %v\nPutSorted %v", seqPages, batPages)
	}
	if n, m := seq.pool.Store().NumPages(), bat.pool.Store().NumPages(); n != m {
		t.Fatalf("store pages: Put %d, PutSorted %d", n, m)
	}
	for _, pg := range seqPages {
		sf, err := seq.pool.Fetch(pg)
		if err != nil {
			t.Fatal(err)
		}
		bf, err := bat.pool.Fetch(pg)
		if err != nil {
			t.Fatal(err)
		}
		same := bytes.Equal(sf.Data[8:], bf.Data[8:])
		seq.pool.Unpin(sf, false)
		bat.pool.Unpin(bf, false)
		if !same {
			t.Fatalf("page %d differs between Put and PutSorted", pg)
		}
	}
	return logs[0].n - seq0, logs[1].n - bat0
}

// genPrefixCase draws a case whose keys share long prefixes: each is one of
// up to four stems of up to maxKey-1 bytes, cut short by up to four bytes,
// and a random tail of up to eight, so keys share long runs of bytes and,
// pre-filled in random order and then put in random subsets, land in the
// middle of full runs. Up to 15 restart cells are deleted after the
// pre-fill, first cells among them.
func genPrefixCase(rng *rand.Rand, nKeys, maxKey, maxVal int) sortedCase {
	stems := make([][]byte, 1+rng.Intn(4))
	for i := range stems {
		stems[i] = make([]byte, rng.Intn(maxKey))
		rng.Read(stems[i])
	}
	seen := map[string]bool{}
	var keys [][]byte
	for tries := 0; len(keys) < nKeys && tries < 8*nKeys; tries++ {
		st := stems[rng.Intn(len(stems))]
		k := slices.Clip(st[:len(st)-rng.Intn(min(len(st), 4)+1)])
		tail := make([]byte, 1+rng.Intn(min(8, maxKey-len(k))))
		rng.Read(tail)
		if k = append(k, tail...); !seen[string(k)] {
			seen[string(k)] = true
			keys = append(keys, k)
		}
	}
	val := func() []byte {
		v := make([]byte, rng.Intn(min(maxVal, 16)+1))
		if rng.Intn(16) == 0 {
			v = make([]byte, maxVal-rng.Intn(maxVal/8+1))
		}
		rng.Read(v)
		return v
	}
	c := sortedCase{restartDeletes: rng.Intn(16)}
	for _, i := range rng.Perm(len(keys))[:rng.Intn(len(keys)+1)] {
		c.prefill = append(c.prefill, Entry{Key: keys[i], Value: val()})
		if rng.Intn(4) == 0 {
			c.deletes = append(c.deletes, keys[i])
		}
	}
	for r := 1 + rng.Intn(3); r > 0; r-- {
		var run []Entry
		for _, i := range rng.Perm(len(keys))[:1+rng.Intn(len(keys))] {
			run = append(run, Entry{Key: keys[i], Value: val()})
		}
		slices.SortFunc(run, func(x, y Entry) int { return bytes.Compare(x.Key, y.Key) })
		c.runs = append(c.runs, run)
	}
	return c
}

// Case shapes genCase draws.
const (
	shapeRandom   = iota // genSortedCase
	shapeRuns            // genRunCase
	shapePrefixes        // genPrefixCase
	shapes
)

// genCase draws a case of the given shape (run stems reach maxKey less the
// tag and counter).
func genCase(rng *rand.Rand, shape int, nKeys, maxKey, maxVal int) sortedCase {
	switch shape {
	case shapeRuns:
		return genRunCase(rng, nKeys, max(maxKey-5, 0), maxVal)
	case shapePrefixes:
		return genPrefixCase(rng, nKeys, maxKey, maxVal)
	}
	return genSortedCase(rng, nKeys, maxKey, maxVal)
}

// PutSorted is an optimisation of sequential Put, not a different tree:
// over runs from empty trees (root splits), pre-filled and holed trees
// (compaction), exact-key replacements, keys and values up to the size
// limits, ascending runs that split leaves where they grow, and keys that
// share long prefixes put into the middle of full runs beside deleted
// restart cells, every page comes out as sequential Put leaves it. A run of
// many keys costs fewer page-delta records.
func TestPutSortedMatchesPut(t *testing.T) {
	cases := []struct {
		name           string
		shape          int
		keys, key, val int
	}{
		{"small", shapeRandom, 3000, 24, 16},
		{"max-size", shapeRandom, 300, MaxKey, MaxValue},
		{"mixed", shapeRandom, 1500, MaxKey, MaxValue},
		{"runs", shapeRuns, 3000, 16, MaxValue},
		{"runs-long", shapeRuns, 600, MaxKey, MaxValue},
		{"prefixes", shapePrefixes, 3000, 64, 16},
		{"prefixes-long", shapePrefixes, 600, MaxKey, MaxValue},
	}
	for _, sh := range cases {
		t.Run(sh.name, func(t *testing.T) {
			var seqRecs, batRecs buffer.LSN
			for seed := int64(1); seed <= 8; seed++ {
				s, b := checkPutSortedMatchesPut(t, genCase(rand.New(rand.NewSource(seed)), sh.shape, sh.keys, sh.key, sh.val))
				seqRecs += s
				batRecs += b
			}
			if batRecs >= seqRecs {
				t.Errorf("PutSorted logged %d page-delta records, sequential Put %d", batRecs, seqRecs)
			}
		})
	}
}

func FuzzPutSorted(f *testing.F) {
	f.Add(int64(1), uint8(shapeRandom), uint16(200), uint16(32), uint16(16))
	f.Add(int64(2), uint8(shapeRandom), uint16(120), uint16(MaxKey), uint16(MaxValue))
	// One-byte keys, more asked for than exist.
	f.Add(int64(1), uint8(shapeRandom), uint16(579), uint16(0), uint16(432))
	// Keys near MaxKey beside short ones: an even split by count leaves the
	// page the key routes to without room for it.
	f.Add(int64(145), uint8(shapeRandom), uint16(265), uint16(1009), uint16(MaxValue))
	// Run-shaped cases whose leaves split where runs grow, at both seeds
	// also behind the room-guard fallback to an even split.
	f.Add(int64(1), uint8(shapeRuns), uint16(599), uint16(16), uint16(MaxValue))
	f.Add(int64(11), uint8(shapeRuns), uint16(599), uint16(MaxKey-1), uint16(MaxValue))
	// Long shared prefixes, mid-run inserts and deleted restart cells.
	f.Add(int64(3), uint8(shapePrefixes), uint16(599), uint16(200), uint16(16))
	f.Add(int64(4), uint8(shapePrefixes), uint16(400), uint16(MaxKey-1), uint16(MaxValue))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, keys, maxKey, maxVal uint16) {
		c := genCase(rand.New(rand.NewSource(seed)), int(shape)%shapes,
			1+int(keys)%600, 1+int(maxKey)%MaxKey, int(maxVal)%(MaxValue+1))
		checkPutSortedMatchesPut(t, c)
	})
}

func TestPutSortedRejectsBadRuns(t *testing.T) {
	tr := newTree(t, 64)
	for name, run := range map[string][]Entry{
		"descending": {{Key: key(2)}, {Key: key(1)}},
		"duplicate":  {{Key: key(1)}, {Key: key(1)}},
		"too large":  {{Key: key(1)}, {Key: make([]byte, MaxKey+1)}},
	} {
		if err := tr.PutSorted(run); err == nil {
			t.Errorf("%s: PutSorted accepted %d entries", name, len(run))
		}
	}
	if n, _ := tr.Count(); n != 0 {
		t.Errorf("rejected runs left %d entries", n)
	}
}

// Readers run beside a long PutSorted: every scan comes back sorted and
// duplicate-free, every pre-filled key stays readable by Get and Ceiling
// (from the key itself and from the gap below it), range estimates over the
// batch, the tail from its middle and the whole tree, whose walks follow
// the leaf links the appends' splits add, stay within what the tree can
// hold, and some scan sees the batch part-way in — which a lock held for the
// whole call would never allow.
func TestPutSortedReadersInterleave(t *testing.T) {
	tr := newTree(t, 1024)
	const pre, batch = 1000, 20000
	ikey := func(i int) []byte { // batch keys are even, pre-filled keys odd
		k := make([]byte, 16)
		binary.BigEndian.PutUint64(k, uint64(i))
		return k
	}
	for i := 0; i < pre; i++ {
		if err := tr.Put(ikey(2*i+1), []byte("pre")); err != nil {
			t.Fatal(err)
		}
	}
	var partial atomic.Int64
	for round := 0; round < 10 && partial.Load() == 0; round++ {
		run := make([]Entry, batch)
		base := 2 * (pre + round*batch) // disjoint from the odd keys and earlier rounds
		for i := range run {
			run[i] = Entry{Key: ikey(base + 2*i), Value: bytes.Repeat([]byte{byte(i)}, 32)}
		}
		lo, hi, mid := run[0].Key, ikey(base+2*batch), run[batch/2].Key
		total := float64(pre + (round+1)*batch)
		var done atomic.Bool
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(r)))
				for !done.Load() {
					j := rng.Intn(pre)
					k := ikey(2*j + 1)
					if v, err := tr.Get(k); err != nil || string(v) != "pre" {
						t.Errorf("Get(%x) = %q, %v", k, v, err)
						return
					}
					if e, err := ceiling(tr, k); err != nil || !bytes.Equal(e.Key, k) {
						t.Errorf("Ceiling(%x) = %x, %v", k, e.Key, err)
						return
					}
					// No even key lies below the batches, so the one before
					// k has k as its successor.
					if e, err := ceiling(tr, ikey(2*j)); err != nil || !bytes.Equal(e.Key, k) || string(e.Value) != "pre" {
						t.Errorf("Ceiling(%x) = %x/%q, %v, want %x", ikey(2*j), e.Key, e.Value, err, k)
						return
					}
					var prev []byte
					n := 0
					err := tr.Scan(lo, hi, func(e Entry) bool {
						if prev != nil && bytes.Compare(prev, e.Key) >= 0 {
							t.Errorf("scan key %x after %x", e.Key, prev)
							return false
						}
						prev = append(prev[:0], e.Key...)
						n++
						return true
					})
					if err != nil {
						t.Error(err)
						return
					}
					if n > 0 && n < batch {
						partial.Add(1)
					}
					// The appends split the leaf at the right end of each of
					// these ranges, and each estimate walks leaf links right
					// from its left end while they do. [lo, hi) never holds
					// more than the batch; the tree never holds fewer than
					// the pre-filled keys nor more than total.
					if est, err := tr.EstimateRange(lo, hi); err != nil || est < 0 || est > 2*batch {
						t.Errorf("EstimateRange = %v, %v over a batch of %d", est, err, batch)
						return
					}
					for _, r := range [][2][]byte{{mid, nil}, {nil, nil}} {
						est, err := tr.EstimateRange(r[0], r[1])
						if err != nil || est < 0 || est > 2*total || r[0] == nil && est < pre/2 {
							t.Errorf("EstimateRange(%x, %x) = %v, %v with %d pre-filled keys and at most %v in all",
								r[0], r[1], est, err, pre, total)
							return
						}
					}
				}
			}(r)
		}
		err := tr.PutSorted(run)
		done.Store(true)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if t.Failed() {
			return
		}
	}
	if partial.Load() == 0 {
		t.Error("no reader saw a batch part-way in: PutSorted held the tree lock for the whole call")
	}
	if n, _ := tr.Count(); n < pre+batch {
		t.Errorf("count = %d", n)
	}
}
