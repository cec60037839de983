package nodeid

import "unsafe"

// Stack synthesizes absolute node IDs along a depth-first traversal in one
// reusable buffer: the ID of the node being visited is the ID of the
// innermost open parent (a prefix of the buffer) followed by the node's
// relative ID, written over whatever the previous sibling left there. Every
// ID a Stack returns aliases that buffer and is valid only until the next
// call on the Stack; a consumer that keeps one must Clone it.
//
// It is the single ID synthesizer behind the stored-record walker (which
// pushes the relative IDs it decodes) and the two token-stream iterators
// (which label children sequentially, exactly as the packer does), so the
// three cannot drift apart.
//
// The zero value is ready for Reset. Both slices start out in arrays inside
// the Stack, so a traversal of ordinary depth allocates nothing even when
// its Stack is new (the packer makes one per document); deeper documents
// spill to the heap through append. A Stack must not be copied once used.
type Stack struct {
	buf  []byte  // absolute ID of the current node
	open []level // open parents, outermost first

	buf0  [48]byte
	open0 [12]level
}

// level is one open parent: the length of its absolute ID within buf, and
// the next child slot for sequential labelling.
type level struct {
	plen int
	next int
}

// Retained is the bytes the Stack holds outside itself: its buffers once a
// deep traversal spilled them out of the Stack's own arrays.
func (s *Stack) Retained() int {
	n := 0
	if cap(s.buf) > len(s.buf0) {
		n += cap(s.buf)
	}
	if cap(s.open) > len(s.open0) {
		n += cap(s.open) * int(unsafe.Sizeof(level{}))
	}
	return n
}

// Reset starts a traversal of the children of the node with absolute ID
// parent (Root for a whole document).
func (s *Stack) Reset(parent ID) {
	if s.buf == nil {
		s.buf, s.open = s.buf0[:0], s.open0[:0]
	}
	s.buf = append(s.buf[:0], parent...)
	s.open = append(s.open[:0], level{plen: len(parent)})
}

// Push makes the child rel of the innermost open parent the current node and
// returns its absolute ID.
func (s *Stack) Push(rel Rel) ID {
	s.buf = append(s.buf[:s.open[len(s.open)-1].plen], rel...)
	return ID(s.buf)
}

// PushNext is Push with the relative ID of the parent's next sequential
// child slot (RelAt), consuming the slot.
func (s *Stack) PushNext() ID {
	top := &s.open[len(s.open)-1]
	s.buf = appendRelAt(s.buf[:top.plen], top.next)
	top.next++
	return ID(s.buf)
}

// SkipSlot consumes the parent's next sequential child slot without
// producing an ID (a node the consumer has no event for).
func (s *Stack) SkipSlot() { s.open[len(s.open)-1].next++ }

// Parent returns the absolute ID of the innermost open parent.
func (s *Stack) Parent() ID { return ID(s.buf[:s.open[len(s.open)-1].plen]) }

// Descend opens the current node: subsequent pushes are its children.
func (s *Stack) Descend() { s.open = append(s.open, level{plen: len(s.buf)}) }

// Ascend closes the innermost open parent, which becomes the current node
// again, and returns its absolute ID — re-derived from the buffer, which may
// have been reallocated while the children were visited.
func (s *Stack) Ascend() ID {
	n := len(s.open) - 1
	s.buf = s.buf[:s.open[n].plen]
	s.open = s.open[:n]
	return ID(s.buf)
}
