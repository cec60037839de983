// Package nodeid implements the prefix-encoded Dewey node IDs of System R/X
// (Zhang, SIGMOD/XIME-P 2005, §3.1).
//
// A node's absolute ID is the concatenation of relative IDs along the path
// from the root to the node. The root's ID is always 00 and therefore implicit:
// the root's absolute ID is the empty byte string. Each relative ID is a
// self-terminating byte string: every byte except the last is odd, and the
// last byte is even. This encoding has three properties the engine relies on:
//
//   - Plain byte-string comparison of absolute IDs yields document order
//     (an ancestor sorts immediately before its descendants).
//   - Ancestor/descendant relationships reduce to prefix tests, because no
//     relative ID is a proper prefix of another (a proper prefix would end in
//     an odd byte, which cannot terminate a relative ID).
//   - There is always room to insert a new ID strictly between two existing
//     sibling IDs by extending the ID length, so IDs are stable under update:
//     an insertion never relabels existing nodes.
package nodeid

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
)

// ID is an absolute node ID: the concatenation of relative IDs from the root
// (exclusive) down to the node. The root itself has the empty ID.
type ID []byte

// Rel is a single relative ID: one or more bytes, all odd except the final
// even byte.
type Rel []byte

// Root is the absolute ID of the document root node.
var Root = ID{}

// ErrInvalid reports a malformed node ID.
var ErrInvalid = errors.New("nodeid: invalid node ID")

// Compare orders two absolute IDs in document order. An ancestor compares
// less than all of its descendants.
func Compare(a, b ID) int { return bytes.Compare(a, b) }

// Equal reports whether a and b identify the same node.
func Equal(a, b ID) bool { return bytes.Equal(a, b) }

// IsAncestorOrSelf reports whether a is b or an ancestor of b.
// Both IDs must be valid; validity makes the prefix test exact because a
// valid ID can only be a prefix of another at a level boundary.
func IsAncestorOrSelf(a, b ID) bool { return bytes.HasPrefix(b, a) }

// IsAncestor reports whether a is a proper ancestor of b.
func IsAncestor(a, b ID) bool { return len(a) < len(b) && bytes.HasPrefix(b, a) }

// Valid reports whether id is a well-formed absolute node ID, i.e. a
// concatenation of zero or more valid relative IDs.
func Valid(id ID) bool {
	i := 0
	for i < len(id) {
		n := relLen(id[i:])
		if n == 0 {
			return false
		}
		i += n
	}
	return true
}

// relLen returns the length of the relative ID at the front of b, or 0 if b
// does not start with a complete relative ID.
func relLen(b []byte) int {
	for i, c := range b {
		if c%2 == 0 {
			if c == 0 {
				return 0 // 0x00 is reserved for the implicit root
			}
			return i + 1
		}
	}
	return 0
}

// ValidRel reports whether r is a well-formed relative ID.
func ValidRel(r Rel) bool { return len(r) > 0 && relLen(r) == len(r) }

// Split decomposes an absolute ID into its relative IDs, one per level below
// the root. Split(Root) returns nil.
func Split(id ID) ([]Rel, error) {
	var out []Rel
	i := 0
	for i < len(id) {
		n := relLen(id[i:])
		if n == 0 {
			return nil, fmt.Errorf("%w: %s at offset %d", ErrInvalid, id, i)
		}
		out = append(out, Rel(id[i:i+n]))
		i += n
	}
	return out, nil
}

// Level returns the depth of the node below the root (root = 0), or -1 if id
// is malformed.
func Level(id ID) int {
	lvl, i := 0, 0
	for i < len(id) {
		n := relLen(id[i:])
		if n == 0 {
			return -1
		}
		i += n
		lvl++
	}
	return lvl
}

// Parent returns the absolute ID of the node's parent. Parent of the root is
// the root itself.
func Parent(id ID) (ID, error) {
	if len(id) == 0 {
		return Root, nil
	}
	rels, err := Split(id)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, r := range rels[:len(rels)-1] {
		n += len(r)
	}
	return id[:n], nil
}

// Append returns the absolute ID formed by descending from id along rel.
// The result shares no storage with id.
func Append(id ID, rel Rel) ID {
	out := make(ID, 0, len(id)+len(rel))
	out = append(out, id...)
	out = append(out, rel...)
	return out
}

// relSingles caches the 127 single-byte relative IDs; callers must treat
// RelAt results as immutable (every API that stores one copies it).
var relSingles = func() [127]Rel {
	var t [127]Rel
	for i := range t {
		t[i] = Rel{byte(2*i + 2)}
	}
	return t
}()

// RelAt returns the relative ID assigned to the i-th (0-based) child slot
// when children are labeled sequentially at initial construction. RelAt is
// strictly increasing in i under byte comparison and its length grows
// logarithmically in i, so wide fan-outs stay compact:
//
//	level 0 (1 byte):  i in [0, 127)            → E(i)
//	level 1 (3 bytes): next 126·127 values      → FF  O(d) E(e)
//	level 2 (5 bytes): next 126²·127 values     → FF FD O(d) O(d) E(e)
//	level L:           FF FD×(L-1) O-digits×L E(e)
//
// where E(v) = 2v+2 (even terminator, base 127) and O(d) = 2d+1 with
// d < 126 (odd continuation digits; 0xFD and 0xFF are reserved as the
// level-escalation markers, which is what makes longer codes sort after
// all shorter ones). Results are shared for i < 127 and must not be
// mutated.
func RelAt(i int) Rel {
	if i < 0 {
		panic("nodeid: negative child index")
	}
	if i < 127 {
		return relSingles[i]
	}
	return appendRelAt(nil, i)
}

// appendRelAt appends RelAt(i) to dst without an intermediate allocation.
func appendRelAt(dst []byte, i int) []byte {
	if i < 127 {
		return append(dst, byte(2*i+2))
	}
	i -= 127
	digits := 1
	capacity := 126 * 127
	dst = append(dst, 0xFF)
	for i >= capacity {
		i -= capacity
		capacity *= 126
		digits++
		dst = append(dst, 0xFD)
	}
	// Encode i as `digits` base-126 O-digits followed by a base-127 E digit,
	// filling the digits from the least significant end.
	for d := 0; d <= digits; d++ {
		dst = append(dst, 0)
	}
	pos := len(dst) - 1
	dst[pos] = byte(2*(i%127) + 2)
	i /= 127
	for d := 0; d < digits; d++ {
		pos--
		dst[pos] = byte(2*(i%126) + 1)
		i /= 126
	}
	return dst
}

// Next returns the relative ID that sorts immediately into the open slot
// after r when appending at the end of a sibling list: the successor used by
// updates that append after the current last child.
func Next(r Rel) Rel {
	if len(r) == 0 {
		return Rel{0x02}
	}
	last := r[len(r)-1]
	if last <= 0xFC {
		out := make(Rel, len(r))
		copy(out, r)
		out[len(out)-1] = last + 2
		return out
	}
	// ...FE: extend with FF 02.
	out := make(Rel, 0, len(r)+1)
	out = append(out, r[:len(r)-1]...)
	out = append(out, 0xFF, 0x02)
	return out
}

// Between returns a valid relative ID x with lo < x < hi in byte order.
// An empty lo means "no lower bound" (insert before the first sibling); an
// empty hi means "no upper bound" (insert after the last sibling). lo and hi
// must be valid relative IDs when non-empty, and lo < hi. Between always
// succeeds: the encoding guarantees space can be made by extending length.
func Between(lo, hi Rel) (Rel, error) {
	if len(lo) > 0 && !ValidRel(lo) {
		return nil, fmt.Errorf("%w: lo %x", ErrInvalid, []byte(lo))
	}
	if len(hi) > 0 && !ValidRel(hi) {
		return nil, fmt.Errorf("%w: hi %x", ErrInvalid, []byte(hi))
	}
	if len(lo) > 0 && len(hi) > 0 && bytes.Compare(lo, hi) >= 0 {
		return nil, fmt.Errorf("nodeid: Between bounds out of order: %x >= %x", []byte(lo), []byte(hi))
	}
	x := between(lo, hi)
	return x, nil
}

// between computes a byte string strictly between lo and hi such that every
// byte but the last is odd and the last is even. Empty bounds are open.
// Precondition: lo < hi when both are non-empty (and neither is a prefix of
// the other, which validity of relative IDs guarantees).
func between(lo, hi []byte) []byte {
	switch {
	case len(lo) == 0 && len(hi) == 0:
		return []byte{0x02}
	case len(lo) == 0:
		return before(hi)
	case len(hi) == 0:
		return Next(Rel(lo))
	}
	// Find the first differing byte. Validity ⇒ neither is a prefix of the
	// other, so i < min(len(lo), len(hi)).
	i := 0
	for lo[i] == hi[i] {
		i++
	}
	a, b := lo[i], hi[i]
	if b-a >= 2 {
		// Prefer an even byte strictly between a and b; the result ends here.
		m := a + 2
		if m%2 != 0 {
			m = a + 1
		}
		if m < b {
			out := make([]byte, 0, i+1)
			out = append(out, lo[:i]...)
			return append(out, m)
		}
		// Gap of exactly 2 with a even: only a+1 (odd) lies between; use it
		// as a continuation byte and terminate with 02.
		out := make([]byte, 0, i+2)
		out = append(out, lo[:i]...)
		return append(out, a+1, 0x02)
	}
	// b == a+1: no room at this byte.
	if a%2 == 1 {
		// lo continues past i; stay equal to lo at i and go after lo's suffix.
		out := make([]byte, 0, i+1)
		out = append(out, lo[:i+1]...)
		return append(out, Next(Rel(lo[i+1:]))...)
	}
	// a even ⇒ lo ends at i; b odd ⇒ hi continues. Stay equal to hi at i and
	// go before hi's suffix.
	out := make([]byte, 0, i+1)
	out = append(out, hi[:i+1]...)
	return append(out, before(hi[i+1:])...)
}

// before returns a valid relative ID strictly less than hi (non-empty, valid).
func before(hi []byte) []byte {
	c := hi[0]
	switch {
	case c >= 0x04:
		// An even byte strictly below c terminates immediately.
		if c%2 == 0 {
			return []byte{c - 2}
		}
		return []byte{c - 1}
	case c == 0x03:
		return []byte{0x02}
	case c == 0x02:
		// hi is exactly {0x02}: descend below it with an odd prefix.
		return []byte{0x01, 0x02}
	default: // c == 0x01: hi continues; recurse under the 0x01 prefix.
		return append([]byte{0x01}, before(hi[1:])...)
	}
}

// String renders the ID as lowercase hex, with the implicit root shown as
// "00" to match the paper's figures.
func (id ID) String() string {
	if len(id) == 0 {
		return "00"
	}
	return hex.EncodeToString(id)
}

// String renders the relative ID as lowercase hex.
func (r Rel) String() string { return hex.EncodeToString(r) }

// Parse converts a hex string (as produced by String) back into an ID.
func Parse(s string) (ID, error) {
	if s == "00" || s == "" {
		return Root, nil
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	id := ID(b)
	if !Valid(id) {
		return nil, fmt.Errorf("%w: %s", ErrInvalid, s)
	}
	return id, nil
}

// Clone returns a copy of id with its own backing storage.
func Clone(id ID) ID {
	if id == nil {
		return nil
	}
	out := make(ID, len(id))
	copy(out, id)
	return out
}

// LastRel returns the final relative ID of id. The root has no relative ID.
func LastRel(id ID) (Rel, error) {
	if len(id) == 0 {
		return nil, fmt.Errorf("%w: root has no relative ID", ErrInvalid)
	}
	rels, err := Split(id)
	if err != nil {
		return nil, err
	}
	return rels[len(rels)-1], nil
}
