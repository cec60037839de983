package nodeid

import (
	"math/rand"
	"testing"
)

// TestStackMatchesAppend walks random trees — wide enough for multi-byte
// relative IDs, deep enough to outgrow the Stack's inline arrays — and
// checks every ID the Stack yields, on the way down and on the way back up,
// against the allocating Append-based construction.
func TestStackMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s Stack
	var walk func(parent ID, depth int)
	walk = func(parent ID, depth int) {
		kids := rng.Intn(4)
		if depth < 3 {
			kids += 130 * rng.Intn(2) // some levels spill into 3-byte RelAt codes
		}
		for i := 0; i < kids; i++ {
			want := Append(parent, RelAt(i))
			var got ID
			switch rng.Intn(3) {
			case 0:
				got = s.Push(RelAt(i))
				s.SkipSlot() // keep sequential labelling in step with explicit pushes
			case 1:
				got = s.PushNext()
			default:
				s.SkipSlot()
				continue
			}
			if !Equal(got, want) {
				t.Fatalf("depth %d child %d: stack %s, want %s", depth, i, got, want)
			}
			if depth < 40 && rng.Intn(3) > 0 {
				s.Descend()
				if !Equal(s.Parent(), want) {
					t.Fatalf("Parent() = %s after descending into %s", s.Parent(), want)
				}
				walk(want, depth+1)
				if got := s.Ascend(); !Equal(got, want) {
					t.Fatalf("Ascend() = %s, want %s", got, want)
				}
			}
		}
	}
	for _, ctx := range []ID{Root, Append(Append(Root, RelAt(3)), RelAt(200))} {
		for round := 0; round < 20; round++ {
			s.Reset(ctx)
			walk(ctx, 0)
		}
	}
}

func TestStackAllocatesNothingWhenWarm(t *testing.T) {
	var s Stack
	allocs := testing.AllocsPerRun(100, func() {
		s.Reset(Root)
		for d := 0; d < 8; d++ {
			s.PushNext()
			s.Descend()
		}
		for i := 0; i < 200; i++ { // past the cached single-byte relative IDs
			s.PushNext()
		}
		for d := 0; d < 8; d++ {
			s.Ascend()
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per traversal, want 0", allocs)
	}
}
