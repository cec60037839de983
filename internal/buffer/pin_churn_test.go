package buffer

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"rx/internal/pagestore"
)

// TestConcurrentPinEvictChurn hammers a small pool from many goroutines —
// fetch, read-verify under the shared latch, occasionally modify, unpin —
// with far more pages than frames, so every iteration contends with
// evictions and frame reuse. Run under -race this checks that
// pinned frames are never stolen and that the pin accounting converges.
func TestConcurrentPinEvictChurn(t *testing.T) {
	const (
		pages      = 256
		capacity   = 16
		goroutines = 8
		iters      = 3000
	)
	store := pagestore.NewMemStore()
	buf := make([]byte, pagestore.PageSize)
	for i := 0; i < pages; i++ {
		id, err := store.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint64(buf, uint64(id))
		if err := store.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	p := New(store, capacity)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				id := pagestore.PageID(rng.Intn(pages))
				f, err := p.Fetch(id)
				if err != nil {
					t.Errorf("fetch %d: %v", id, err)
					return
				}
				if rng.Intn(8) == 0 {
					// Touch a scratch byte (never the ID stamp) so dirty
					// write-back and eviction interleave with readers.
					err := p.Modify(f, func(d []byte) error {
						d[16] = byte(i)
						return nil
					})
					if err != nil {
						t.Errorf("modify %d: %v", id, err)
						p.Unpin(f, false)
						return
					}
				}
				f.RLock()
				got := pagestore.PageID(binary.BigEndian.Uint64(f.Data))
				f.RUnlock()
				if got != id {
					t.Errorf("frame for page %d holds page %d's bytes (stolen frame?)", id, got)
					p.Unpin(f, false)
					return
				}
				p.Unpin(f, false)
			}
		}(int64(g))
	}
	wg.Wait()

	s := p.Stats()
	if s.Pinned != 0 {
		t.Errorf("Pinned = %d after all unpins, want 0", s.Pinned)
	}
	if s.PinnedHighWater < 1 {
		t.Errorf("PinnedHighWater = %d, want >= 1", s.PinnedHighWater)
	}
	if s.PinnedHighWater > goroutines+1 {
		t.Errorf("PinnedHighWater = %d, want <= %d (each goroutine pins at most one frame)",
			s.PinnedHighWater, goroutines+1)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
}
