package nodeid

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRelAtMonotonic(t *testing.T) {
	var prev Rel
	for i := 0; i < 200000; i++ {
		r := RelAt(i)
		if !ValidRel(r) {
			t.Fatalf("RelAt(%d) = %x invalid", i, []byte(r))
		}
		if prev != nil && bytes.Compare(prev, r) >= 0 {
			t.Fatalf("RelAt not increasing at %d: %x >= %x", i, []byte(prev), []byte(r))
		}
		prev = r
	}
}

func TestRelAtBoundaries(t *testing.T) {
	cases := []struct {
		i    int
		want Rel
	}{
		{0, Rel{0x02}},
		{1, Rel{0x04}},
		{126, Rel{0xFE}},
		{127, Rel{0xFF, 0x01, 0x02}},
		{253, Rel{0xFF, 0x01, 0xFE}},
		{254, Rel{0xFF, 0x03, 0x02}},
		{127 + 126*127 - 1, Rel{0xFF, 0xFB, 0xFE}},
		{127 + 126*127, Rel{0xFF, 0xFD, 0x01, 0x01, 0x02}},
	}
	for _, c := range cases {
		if got := RelAt(c.i); !bytes.Equal(got, c.want) {
			t.Errorf("RelAt(%d) = %x, want %x", c.i, []byte(got), []byte(c.want))
		}
	}
}

func TestNext(t *testing.T) {
	cases := []struct{ in, want Rel }{
		{nil, Rel{0x02}},
		{Rel{0x02}, Rel{0x04}},
		{Rel{0xFC}, Rel{0xFE}},
		{Rel{0xFE}, Rel{0xFF, 0x02}},
		{Rel{0xFF, 0xFE}, Rel{0xFF, 0xFF, 0x02}},
		{Rel{0x03, 0x02}, Rel{0x03, 0x04}},
	}
	for _, c := range cases {
		got := Next(c.in)
		if !bytes.Equal(got, c.want) {
			t.Errorf("Next(%x) = %x, want %x", []byte(c.in), []byte(got), []byte(c.want))
		}
		if len(c.in) > 0 && bytes.Compare(c.in, got) >= 0 {
			t.Errorf("Next(%x) = %x not greater", []byte(c.in), []byte(got))
		}
	}
}

func TestValid(t *testing.T) {
	valid := []ID{{}, {0x02}, {0x02, 0x04}, {0x03, 0x02}, {0xFF, 0xFF, 0x02, 0x04}}
	for _, id := range valid {
		if !Valid(id) {
			t.Errorf("Valid(%x) = false, want true", []byte(id))
		}
	}
	invalid := []ID{{0x03}, {0x01}, {0x02, 0x03}, {0x00}, {0x02, 0x00}}
	for _, id := range invalid {
		if Valid(id) {
			t.Errorf("Valid(%x) = true, want false", []byte(id))
		}
	}
}

func TestSplitLevelParent(t *testing.T) {
	id := ID{0x02, 0x03, 0x04, 0xFF, 0x06}
	rels, err := Split(id)
	if err != nil {
		t.Fatal(err)
	}
	want := []Rel{{0x02}, {0x03, 0x04}, {0xFF, 0x06}}
	if len(rels) != len(want) {
		t.Fatalf("Split levels = %d, want %d", len(rels), len(want))
	}
	for i := range want {
		if !bytes.Equal(rels[i], want[i]) {
			t.Errorf("level %d = %x, want %x", i, []byte(rels[i]), []byte(want[i]))
		}
	}
	if got := Level(id); got != 3 {
		t.Errorf("Level = %d, want 3", got)
	}
	p, err := Parent(id)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(p, ID{0x02, 0x03, 0x04}) {
		t.Errorf("Parent = %s", p)
	}
	root, err := Parent(Root)
	if err != nil || !Equal(root, Root) {
		t.Errorf("Parent(root) = %s, %v", root, err)
	}
	last, err := LastRel(id)
	if err != nil || !bytes.Equal(last, Rel{0xFF, 0x06}) {
		t.Errorf("LastRel = %x, %v", []byte(last), err)
	}
	if _, err := LastRel(Root); err == nil {
		t.Error("LastRel(root) should fail")
	}
}

func TestAncestor(t *testing.T) {
	a := ID{0x02}
	b := ID{0x02, 0x04}
	c := ID{0x02, 0x04, 0x06}
	d := ID{0x04}
	if !IsAncestor(a, b) || !IsAncestor(a, c) || !IsAncestor(b, c) {
		t.Error("expected ancestor relationships missing")
	}
	if IsAncestor(b, a) || IsAncestor(d, b) || IsAncestor(a, a) {
		t.Error("unexpected ancestor relationships")
	}
	if !IsAncestorOrSelf(a, a) || !IsAncestorOrSelf(Root, c) {
		t.Error("ancestor-or-self failures")
	}
	// Document order: ancestor sorts before descendants.
	if Compare(a, b) >= 0 || Compare(b, c) >= 0 {
		t.Error("ancestors must precede descendants in document order")
	}
}

func TestBetweenSimple(t *testing.T) {
	cases := []struct{ lo, hi Rel }{
		{Rel{0x02}, Rel{0x04}},
		{Rel{0x02}, Rel{0x03, 0x02}},
		{Rel{0x03, 0x02}, Rel{0x04}},
		{nil, Rel{0x02}},
		{nil, Rel{0x01, 0x02}},
		{Rel{0xFE}, nil},
		{nil, nil},
		{Rel{0x02}, Rel{0x06}},
		{Rel{0x05, 0x02}, Rel{0x05, 0x04}},
		{Rel{0x03, 0x02}, Rel{0x03, 0x03, 0x02}},
	}
	for _, c := range cases {
		x, err := Between(c.lo, c.hi)
		if err != nil {
			t.Fatalf("Between(%x, %x): %v", []byte(c.lo), []byte(c.hi), err)
		}
		if !ValidRel(x) {
			t.Fatalf("Between(%x, %x) = %x invalid", []byte(c.lo), []byte(c.hi), []byte(x))
		}
		if len(c.lo) > 0 && bytes.Compare(c.lo, x) >= 0 {
			t.Errorf("Between(%x, %x) = %x not above lo", []byte(c.lo), []byte(c.hi), []byte(x))
		}
		if len(c.hi) > 0 && bytes.Compare(x, c.hi) >= 0 {
			t.Errorf("Between(%x, %x) = %x not below hi", []byte(c.lo), []byte(c.hi), []byte(x))
		}
	}
}

func TestBetweenErrors(t *testing.T) {
	if _, err := Between(Rel{0x04}, Rel{0x02}); err == nil {
		t.Error("out-of-order bounds should fail")
	}
	if _, err := Between(Rel{0x03}, Rel{0x04}); err == nil {
		t.Error("invalid lo should fail")
	}
	if _, err := Between(Rel{0x02}, Rel{0x05}); err == nil {
		t.Error("invalid hi should fail")
	}
}

// TestBetweenRepeatedInsertion simulates the paper's claim that there is
// always space for insertion in the middle: repeatedly split the same gap and
// verify order and validity hold throughout.
func TestBetweenRepeatedInsertion(t *testing.T) {
	ids := []Rel{{0x02}, {0x04}}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		j := rng.Intn(len(ids) + 1)
		var lo, hi Rel
		if j > 0 {
			lo = ids[j-1]
		}
		if j < len(ids) {
			hi = ids[j]
		}
		x, err := Between(lo, hi)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		ids = append(ids[:j], append([]Rel{x}, ids[j:]...)...)
	}
	for i := 1; i < len(ids); i++ {
		if bytes.Compare(ids[i-1], ids[i]) >= 0 {
			t.Fatalf("order violated at %d: %x >= %x", i, []byte(ids[i-1]), []byte(ids[i]))
		}
		if !ValidRel(ids[i]) {
			t.Fatalf("invalid rel at %d: %x", i, []byte(ids[i]))
		}
	}
}

// Property: Between output is always valid and strictly inside its bounds for
// arbitrary valid bounds generated from child indexes and refinement.
func TestBetweenProperty(t *testing.T) {
	f := func(seed int64, splits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		lo := RelAt(rng.Intn(300))
		hi := RelAt(rng.Intn(300) + 301)
		for s := 0; s < int(splits%16)+1; s++ {
			x, err := Between(lo, hi)
			if err != nil || !ValidRel(x) {
				return false
			}
			if bytes.Compare(lo, x) >= 0 || bytes.Compare(x, hi) >= 0 {
				return false
			}
			if rng.Intn(2) == 0 {
				hi = x
			} else {
				lo = x
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: absolute IDs built from RelAt paths sort in document order, i.e.
// pre-order of the implied tree equals byte order.
func TestDocumentOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Generate random tree paths and check that sorting by bytes equals
		// sorting by path (lexicographic on child indexes, prefix first).
		type pathID struct {
			path []int
			id   ID
		}
		var nodes []pathID
		for i := 0; i < 50; i++ {
			depth := rng.Intn(5)
			path := make([]int, depth)
			id := Root
			for d := 0; d < depth; d++ {
				path[d] = rng.Intn(6)
				id = Append(id, RelAt(path[d]))
			}
			nodes = append(nodes, pathID{path, id})
		}
		byBytes := make([]pathID, len(nodes))
		copy(byBytes, nodes)
		sort.Slice(byBytes, func(i, j int) bool { return Compare(byBytes[i].id, byBytes[j].id) < 0 })
		byPath := make([]pathID, len(nodes))
		copy(byPath, nodes)
		sort.Slice(byPath, func(i, j int) bool { return pathLess(byPath[i].path, byPath[j].path) })
		for i := range byBytes {
			if Compare(byBytes[i].id, byPath[i].id) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func pathLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func TestStringParseRoundTrip(t *testing.T) {
	ids := []ID{Root, {0x02}, {0x02, 0x04, 0x06}, {0x03, 0x02, 0xFF, 0x08}}
	for _, id := range ids {
		s := id.String()
		back, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if !Equal(id, back) {
			t.Errorf("round trip %q -> %s", s, back)
		}
	}
	if Root.String() != "00" {
		t.Errorf("root string = %q, want 00", Root.String())
	}
	if _, err := Parse("zz"); err == nil {
		t.Error("Parse(zz) should fail")
	}
	if _, err := Parse("03"); err == nil {
		t.Error("Parse(03) should fail: odd terminator")
	}
}

func TestClone(t *testing.T) {
	id := ID{0x02, 0x04}
	c := Clone(id)
	c[0] = 0x06
	if id[0] != 0x02 {
		t.Error("Clone shares storage")
	}
	if Clone(nil) != nil {
		t.Error("Clone(nil) should be nil")
	}
}
