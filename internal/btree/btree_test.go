package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"rx/internal/buffer"
	"rx/internal/pagestore"
)

func newTree(t testing.TB, capacity int) *Tree {
	t.Helper()
	pool := buffer.New(pagestore.NewMemStore(), capacity)
	tr, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func key(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

func TestPutGet(t *testing.T) {
	tr := newTree(t, 64)
	if err := tr.Put([]byte("alpha"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, err := tr.Get([]byte("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "1" {
		t.Errorf("got %q", v)
	}
	if _, err := tr.Get([]byte("beta")); err == nil {
		t.Error("missing key should fail")
	}
}

func TestPutReplace(t *testing.T) {
	tr := newTree(t, 64)
	tr.Put([]byte("k"), []byte("v1"))
	tr.Put([]byte("k"), []byte("v2-longer"))
	v, err := tr.Get([]byte("k"))
	if err != nil || string(v) != "v2-longer" {
		t.Fatalf("got %q, %v", v, err)
	}
	n, _ := tr.Count()
	if n != 1 {
		t.Errorf("count = %d, want 1", n)
	}
}

func TestManyKeysSplits(t *testing.T) {
	tr := newTree(t, 256)
	const N = 20000
	perm := rand.New(rand.NewSource(1)).Perm(N)
	for _, i := range perm {
		if err := tr.Put(key(i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	h, err := tr.Height()
	if err != nil {
		t.Fatal(err)
	}
	if h < 2 {
		t.Errorf("expected height >= 2 after %d inserts, got %d", N, h)
	}
	for i := 0; i < N; i++ {
		v, err := tr.Get(key(i))
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key %d: got %q", i, v)
		}
	}
	n, _ := tr.Count()
	if n != N {
		t.Errorf("count = %d, want %d", n, N)
	}
}

func TestVariableLengthKeys(t *testing.T) {
	tr := newTree(t, 256)
	rng := rand.New(rand.NewSource(2))
	keys := map[string]string{}
	for i := 0; i < 3000; i++ {
		k := make([]byte, 1+rng.Intn(300))
		rng.Read(k)
		v := fmt.Sprintf("v%d", i)
		keys[string(k)] = v
		if err := tr.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	for k, v := range keys {
		got, err := tr.Get([]byte(k))
		if err != nil {
			t.Fatalf("%x: %v", k, err)
		}
		if string(got) != v {
			t.Fatalf("%x: got %q want %q", k, got, v)
		}
	}
}

func TestScanOrdered(t *testing.T) {
	tr := newTree(t, 256)
	const N = 5000
	perm := rand.New(rand.NewSource(3)).Perm(N)
	for _, i := range perm {
		tr.Put(key(i), key(i))
	}
	var prev []byte
	n := 0
	err := tr.Scan(nil, nil, func(e Entry) bool {
		if prev != nil && bytes.Compare(prev, e.Key) >= 0 {
			t.Fatalf("scan out of order at %x", e.Key)
		}
		prev = append(prev[:0], e.Key...)
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != N {
		t.Errorf("scan saw %d, want %d", n, N)
	}
}

func TestScanRange(t *testing.T) {
	tr := newTree(t, 256)
	for i := 0; i < 1000; i++ {
		tr.Put(key(i), nil)
	}
	var got []int
	err := tr.Scan(key(100), key(110), func(e Entry) bool {
		got = append(got, int(binary.BigEndian.Uint64(e.Key)))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != 100 || got[9] != 109 {
		t.Errorf("range scan = %v", got)
	}
	// Early stop.
	n := 0
	tr.Scan(nil, nil, func(e Entry) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("early stop at %d", n)
	}
}

func TestCeiling(t *testing.T) {
	tr := newTree(t, 256)
	for i := 0; i < 1000; i += 10 {
		tr.Put(key(i), []byte(fmt.Sprint(i)))
	}
	e, err := ceiling(tr, key(95))
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint64(e.Key); got != 100 {
		t.Errorf("Ceiling(95) = %d, want 100", got)
	}
	e, err = ceiling(tr, key(100))
	if err != nil || binary.BigEndian.Uint64(e.Key) != 100 {
		t.Errorf("Ceiling(100) = %v, %v", e, err)
	}
	if _, err := ceiling(tr, key(991)); err == nil {
		t.Error("Ceiling past end should fail")
	}
}

// ceiling returns a copy of Ceiling's borrowed entry.
func ceiling(tr *Tree, from []byte) (Entry, error) {
	var e Entry
	err := tr.Ceiling(from, func(k, v []byte) { e = Entry{bytes.Clone(k), bytes.Clone(v)} })
	return e, err
}

func TestDelete(t *testing.T) {
	tr := newTree(t, 256)
	const N = 2000
	for i := 0; i < N; i++ {
		tr.Put(key(i), key(i))
	}
	for i := 0; i < N; i += 2 {
		if err := tr.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < N; i++ {
		_, err := tr.Get(key(i))
		if i%2 == 0 && err == nil {
			t.Fatalf("key %d should be deleted", i)
		}
		if i%2 == 1 && err != nil {
			t.Fatalf("key %d should remain: %v", i, err)
		}
	}
	if err := tr.Delete(key(0)); err == nil {
		t.Error("double delete should fail")
	}
	n, _ := tr.Count()
	if n != N/2 {
		t.Errorf("count = %d, want %d", n, N/2)
	}
}

func TestOpenExisting(t *testing.T) {
	pool := buffer.New(pagestore.NewMemStore(), 256)
	tr, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		tr.Put(key(i), key(i*2))
	}
	tr2, err := Open(pool, tr.MetaPage())
	if err != nil {
		t.Fatal(err)
	}
	v, err := tr2.Get(key(4321))
	if err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint64(v) != 8642 {
		t.Errorf("got %x", v)
	}
}

func TestSizeLimits(t *testing.T) {
	tr := newTree(t, 64)
	if err := tr.Put(make([]byte, MaxKey+1), nil); err == nil {
		t.Error("oversized key should fail")
	}
	if err := tr.Put([]byte("k"), make([]byte, MaxValue+1)); err == nil {
		t.Error("oversized value should fail")
	}
	if err := tr.Put(make([]byte, MaxKey), make([]byte, MaxValue)); err != nil {
		t.Errorf("max-size entry should fit: %v", err)
	}
}

// roomInvariantHolds reports whether every node of tr satisfies freeBytes
// <= liveFree, the inequality Put's room check (needsSplit) relies on to
// skip the liveFree walk.
func roomInvariantHolds(t *testing.T, tr *Tree) bool {
	pages, err := tr.Pages()
	if err != nil {
		t.Error(err)
		return false
	}
	for _, pg := range pages[1:] { // pages[0] is the meta page
		f, err := tr.pool.Fetch(pg)
		if err != nil {
			t.Error(err)
			return false
		}
		free, live := freeBytes(f.Data), liveFree(f.Data)
		tr.pool.Unpin(f, false)
		if free > live {
			t.Errorf("page %d: freeBytes %d > liveFree %d", pg, free, live)
			return false
		}
	}
	return true
}

// Property: the tree agrees with a sorted map oracle under random interleaved
// put/replace/delete, iteration order is sorted, every node keeps the room
// invariant after every step, and no Put fails (in particular never with
// "leaf full after preemptive split"). Values vary in length so replaces and
// deletes leave holes that only compaction reclaims.
func TestOracleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := newTree(t, 512)
		oracle := map[string]string{}
		for op := 0; op < 2000; op++ {
			k := fmt.Sprintf("key-%05d", rng.Intn(500))
			switch rng.Intn(3) {
			case 0, 1:
				v := fmt.Sprintf("val-%d-%s", op, strings.Repeat("x", rng.Intn(48)))
				oracle[k] = v
				if err := tr.Put([]byte(k), []byte(v)); err != nil {
					t.Errorf("seed %d op %d: Put(%s): %v", seed, op, k, err)
					return false
				}
			case 2:
				if _, ok := oracle[k]; ok {
					delete(oracle, k)
					if err := tr.Delete([]byte(k)); err != nil {
						return false
					}
				}
			}
			if !roomInvariantHolds(t, tr) {
				return false
			}
		}
		var want []string
		for k := range oracle {
			want = append(want, k)
		}
		sort.Strings(want)
		var got []string
		err := tr.Scan(nil, nil, func(e Entry) bool {
			got = append(got, string(e.Key))
			if oracle[string(e.Key)] != string(e.Value) {
				t.Logf("value mismatch for %s", e.Key)
				return false
			}
			return true
		})
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
