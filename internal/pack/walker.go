package pack

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rx/internal/nodeid"
	"rx/internal/xml"
)

// FetchBorrow resolves a proxy: given the absolute node ID of the first
// subtree in a packed-away run, it returns the record holding that run.
// Implementations search the NodeID index (§3.4). The ID is valid only during
// the call. The record's bytes may be borrowed from a pinned buffer-pool
// frame; the returned release function (nil when the record is owned) unpins
// the frame, and the walker calls it exactly once, either directly or after a
// Detach.
type FetchBorrow func(first nodeid.ID) (*Record, func(), error)

// Visitor receives document-order traversal events. Enter is called for
// every real node; Leave is called for elements after their content. Either
// may return false to stop the walk early.
//
// The Node belongs to the walker: it is a scratch slot overwritten by the
// next sibling, its Value and Rel alias the record's (possibly pinned) bytes,
// and its Abs aliases the walker's ID stack. All of it is valid only until
// the callback returns; a visitor that keeps an ID or a value copies it
// (nodeid.Clone, append). In Leave only Kind, Name, Type and Abs are
// meaningful — the record may have been detached while the content was
// walked.
type Visitor interface {
	Enter(n *Node) (bool, error)
	Leave(n *Node) (bool, error)
}

// Skipper is an optional Visitor capability, looked up once per walk. Right
// after Enter accepted an element with content, SkipContent reports whether
// that content can be stepped over: the walker then jumps to the end of the
// element's encoding — using the byte length its header carries (§3.1) —
// without decoding the body or fetching the proxied records inside it, and
// still calls Leave. A skipped body releases and detaches nothing.
type Skipper interface {
	SkipContent() bool
}

// walker is the one stored-record traversal: a depth-first walk over a run
// of sibling entries that decodes each entry in place, keeps the current
// absolute ID on one reusable stack, resolves proxies under the single-borrow
// protocol, and lets the visitor skip element content.
//
// The single-borrow invariant — at most ONE borrowed record at any instant —
// keeps the walk deadlock-free against heap writers: a goroutine never holds
// two heap-page read latches at once (see heap.FetchBorrowed). Before
// fetching a proxy's record, the current borrow is detached (its bytes
// copied to owned memory, frame released); when a fetched record's subtree
// walk completes, its frame is released without the copy. A record the caller
// owns (nil release) goes through the same steps as no-ops.
type walker struct {
	v     Visitor
	skip  Skipper // nil: the visitor never skips
	fetch FetchBorrow
	// lost, when non-nil, makes proxy-resolution failures non-fatal: the
	// failure is counted and the proxied subtrees omitted (WalkPartial).
	lost *int

	rec     *Record // record whose bytes are currently borrowed (nil: none)
	release func()

	ids    nodeid.Stack // absolute ID of the node being visited
	nodes  []Node       // decode scratch, one slot per depth
	poison bool         // PoisonIDs was set when the walk started
}

// PoisonIDs is the walker's ID-lifetime test mode: while set, every walk
// overwrites a node's ID bytes as soon as the node's last callback returned,
// so a visitor (or vsax.Handler behind it) that kept an ID without copying
// it reads garbage deterministically instead of only once the next sibling
// happens to differ. Walks are correct with it set; only tests set it.
var PoisonIDs atomic.Bool

// walkers recycles walkers with their ID stack and node scratch, so a walk
// allocates nothing per node and (once warm) nothing per document.
var walkers = sync.Pool{New: func() any { return new(walker) }}

// run walks entries sibling entries of rec starting at offset off, whose
// common parent has absolute ID parent.
func run(rec *Record, release func(), off, entries int, parent nodeid.ID, fetch FetchBorrow, v Visitor, lost *int) error {
	w := walkers.Get().(*walker)
	w.v, w.fetch, w.lost = v, fetch, lost
	w.skip, _ = v.(Skipper)
	w.rec, w.release = rec, release
	w.ids.Reset(parent)
	w.poison = PoisonIDs.Load()
	_, err := w.walkEntries(rec, off, entries, 0)
	if w.release != nil {
		w.release() // whatever borrow is still outstanding
	}
	// Drop every reference into records, frames and the caller before the
	// walker is parked in the pool.
	for i := range w.nodes {
		w.nodes[i] = Node{}
	}
	w.v, w.skip, w.fetch, w.lost, w.rec, w.release = nil, nil, nil, nil, nil, nil
	walkers.Put(w)
	return err
}

// Walk traverses the subtrees of rec in document order, fetching proxied
// records as needed. This is the stored-data traversal of §3.4: the records
// form a block-based tree walked depth-first, with fetch order matching the
// (DocID, minNodeID) clustering order. rec's bytes may live in a pinned
// buffer-pool frame, released by calling release (nil if rec is owned). Proxy
// records are fetched through fetch and their frames released as soon as each
// subtree completes, so the walk holds at most one frame pin at any instant
// regardless of document size. A proxy that resolves to a record of another
// context, or of another subtree count than the proxy's, fails the walk with
// ErrCorrupt.
func Walk(rec *Record, release func(), fetch FetchBorrow, v Visitor) error {
	return run(rec, release, 0, rec.SubtreeCount, rec.ContextID, fetch, v, nil)
}

// WalkPartial is Walk, except that a proxy whose record cannot be fetched is
// skipped (its whole subtree is omitted from the traversal) instead of
// failing the walk. It returns the number of subtrees lost this way. This is
// the best-effort salvage traversal: when a heap page is gone, everything
// still reachable is recovered and the loss is reported, never silent. A
// run is walked by its own subtree count, whatever its proxy says.
func WalkPartial(rec *Record, release func(), fetch FetchBorrow, v Visitor) (lost int, err error) {
	err = run(rec, release, 0, rec.SubtreeCount, rec.ContextID, fetch, v, &lost)
	return lost, err
}

// WalkSubtree traverses one node's subtree (the node itself included),
// resolving proxies; same lifetime contract as Walk. n must have been decoded
// from rec. Used for node-scoped serialization, string values and subtree
// re-evaluation of nodes reached through the NodeID index.
func WalkSubtree(rec *Record, release func(), n *Node, fetch FetchBorrow, v Visitor) error {
	parent := n.Abs[:len(n.Abs)-len(n.Rel)]
	return run(rec, release, n.start, 1, parent, fetch, v, nil)
}

// detach promotes the outstanding borrow to owned memory and releases its
// frame.
func (w *walker) detach() {
	if w.release != nil {
		w.rec.Detach()
		w.release()
	}
	w.rec, w.release = nil, nil
}

// drop releases rec's frame without copying, if rec is still the outstanding
// borrow. Its bytes must not be used afterwards.
func (w *walker) drop(rec *Record) {
	if w.rec == rec {
		if w.release != nil {
			w.release()
		}
		w.rec, w.release = nil, nil
	}
}

// node returns the scratch slot for depth. Slots live in one slice that
// grows with the deepest nesting seen, so a pointer obtained before a deeper
// call must be re-derived after it.
func (w *walker) node(depth int) *Node {
	for depth >= len(w.nodes) {
		w.nodes = append(w.nodes, Node{})
	}
	return &w.nodes[depth]
}

// walkEntries walks a run of sibling entries at one depth; it returns false
// to stop the walk. This loop is the only place that iterates stored
// siblings and resolves proxies.
func (w *walker) walkEntries(rec *Record, off, entries, depth int) (bool, error) {
	for i := 0; i < entries; i++ {
		n := w.node(depth)
		if err := rec.decodeNodeAt(n, off); err != nil {
			return false, err
		}
		off = n.end
		n.Abs = w.ids.Push(n.Rel)
		if n.Kind == xml.Proxy {
			// Release the current frame before taking another: the fetch
			// descends into the node-ID index and then borrows a new heap
			// page, and holding two page latches across that would risk
			// deadlock. rec's body survives via the detach copy, so the
			// continued decode of this run (off onwards) stays valid.
			w.detach()
			child, childRelease, err := w.fetch(n.Abs)
			if err != nil {
				if w.lost != nil {
					*w.lost++
					continue
				}
				return false, fmt.Errorf("pack: resolving proxy %s: %w", n.Abs, err)
			}
			// The run must be the proxy's: same context and, unless this is
			// salvage (which walks whatever the run holds), as many
			// subtrees as the proxy stands for.
			if !nodeid.Equal(child.ContextID, w.ids.Parent()) ||
				(w.lost == nil && n.ProxyCount != child.SubtreeCount) {
				if childRelease != nil {
					childRelease()
				}
				return false, fmt.Errorf("%w: proxy for %d subtrees under %s resolved to a record of %d with context %s",
					ErrCorrupt, n.ProxyCount, w.ids.Parent(), child.SubtreeCount, child.ContextID)
			}
			// The packed-away subtrees are siblings of the proxy: same
			// parent on the ID stack, same depth.
			w.rec, w.release = child, childRelease
			cont, err := w.walkEntries(child, 0, child.SubtreeCount, depth)
			w.drop(child)
			if err != nil || !cont {
				return cont, err
			}
			continue
		}
		cont, err := w.v.Enter(n)
		if err != nil || !cont {
			return cont, err
		}
		if n.Kind != xml.Element {
			w.poisonID(n)
			continue
		}
		if n.EntryCount > 0 && (w.skip == nil || !w.skip.SkipContent()) {
			w.ids.Descend()
			cont, err := w.walkEntries(rec, n.bodyStart, n.EntryCount, depth+1)
			if err != nil || !cont {
				return cont, err
			}
			// Both the scratch slice and the ID stack may have been
			// reallocated below: re-derive the node and its ID.
			n = w.node(depth)
			n.Abs = w.ids.Ascend()
		}
		cont, err = w.v.Leave(n)
		if err != nil || !cont {
			return cont, err
		}
		w.poisonID(n)
	}
	return true, nil
}

// poisonID scribbles over n's own part of the ID stack (test mode only); the
// parent's prefix stays, the siblings still need it.
func (w *walker) poisonID(n *Node) {
	if w.poison {
		for i := len(w.ids.Parent()); i < len(n.Abs); i++ {
			n.Abs[i] = 0xFF
		}
	}
}
