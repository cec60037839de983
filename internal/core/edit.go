package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"rx/internal/btree"
	"rx/internal/heap"
	"rx/internal/nodeid"
	"rx/internal/nodeindex"
	"rx/internal/pack"
	"rx/internal/quickxscan"
	"rx/internal/tokens"
	"rx/internal/valueindex"
	"rx/internal/vsax"
	"rx/internal/xml"
	"rx/internal/xmlparse"
)

// Subdocument updates (§3.1, §5.2). Node IDs are stable: deletions never
// relabel survivors and insertions take fresh IDs Between their siblings, so
// index entries for untouched nodes stay valid. The paper's LOB comparison
// is exactly this capability: a LOB column would rewrite the whole document.
//
// Txn.UpdateText, InsertFragment and DeleteSubtree — on a plain or a
// versioned collection, requested or run as the inverse of one another by
// compensation — are one pipeline, Collection.edit:
//
//	plan   read-only, under writeMu: resolve the record holding the target
//	       (or the anchor's sibling list) at the current version, once;
//	       validate kind, root and anchor; build the new subtree and its
//	       node ID. Everything later stages need is in the editPlan.
//	log    a transaction derives its logical undo record from the plan and
//	       logs it before any page effect (the undo ordering invariant,
//	       txn.go).
//	apply  mutate the decoded MutNode trees and write them through a
//	       recordSink — in place (plainSink) or copy-on-write into a new
//	       document version (verEdit). newSink is the only place the edit
//	       path asks whether the collection is versioned. Value-index
//	       maintenance brackets the record effects at this one seam.
//
// Proxy invariant: a record packed away from its parent element (a run) is
// stood for by exactly one proxy entry among that element's children, and
// after every edit the proxy's Rel is the run's first subtree's and its
// ProxyCount the run's subtree count — so the proxy's first ID resolves,
// through the NodeID index, to the record holding exactly its run, and a
// proxy's Rel is the relative ID of the sibling that follows the entry before
// it. An edit that changes a run's top level rewrites the proxy with it, and
// removes it with the run's last subtree.

// Position selects where an inserted fragment goes relative to its anchor.
type Position int

// Insertion positions.
const (
	// AsLastChild appends under the anchor element.
	AsLastChild Position = iota
	// BeforeNode inserts as the anchor's preceding sibling.
	BeforeNode
	// AfterNode inserts as the anchor's following sibling.
	AfterNode
)

type editKind uint8

const (
	editUpdateText editKind = iota
	editInsert
	editDelete
)

// editReq is one requested edit.
type editReq struct {
	kind editKind
	doc  xml.DocID
	id   nodeid.ID // the target node; the anchor of an editInsert
	pos  Position  // editInsert
	// data is the new value (editUpdateText) or the fragment (editInsert): XML
	// text, or, with tokenized set, a token stream holding one subtree — the
	// form a delete's undo record keeps it in, leaves included.
	data      []byte
	tokenized bool
}

// openRec is a stored record decoded for editing.
type openRec struct {
	rid  heap.RID
	rec  *pack.Record // as stored: edits go to tops
	tops []*pack.MutNode
}

// openRec decodes the record holding node id at the reader's version.
func (r docReader) openRec(id nodeid.ID) (*openRec, error) {
	rid, err := r.lookup(id)
	if err != nil {
		return nil, lookupErr(err, fmt.Sprintf("doc %d node %s", r.doc, id))
	}
	rec, err := detached(r.c.borrowRecord(rid))
	if err != nil {
		return nil, err
	}
	tops, err := rec.Mutable()
	if err != nil {
		return nil, err
	}
	return &openRec{rid: rid, rec: rec, tops: tops}, nil
}

// openRun decodes the run record a proxy entry under parentID stands for.
func (r docReader) openRun(parentID nodeid.ID, proxy *pack.MutNode) (*openRec, error) {
	first := nodeid.Append(parentID, proxy.Rel)
	run, err := r.openRec(first)
	if err != nil {
		return nil, err
	}
	if !nodeid.Equal(run.rec.ContextID, parentID) || len(run.tops) == 0 || !bytes.Equal(run.tops[0].Rel, proxy.Rel) {
		return nil, fmt.Errorf("%w: doc %d: proxy %s does not resolve to its run", pack.ErrCorrupt, r.doc, first)
	}
	return run, nil
}

// children returns the child entries of element id (or of the document node)
// within r.
func (r *openRec) children(id nodeid.ID) (*[]*pack.MutNode, error) {
	if nodeid.Equal(id, r.rec.ContextID) {
		return &r.tops, nil
	}
	_, _, n, err := pack.FindMut(r.tops, r.rec.ContextID, id)
	if err != nil {
		return nil, fmt.Errorf("%w: node %s", ErrNotFound, id)
	}
	if n.Kind != xml.Element {
		return nil, fmt.Errorf("core: node %s is a %v, not an element", id, n.Kind)
	}
	return &n.Children, nil
}

// editPlan is a resolved edit: what apply mutates and what the undo record
// is derived from, decoded once.
type editPlan struct {
	req      editReq
	r        docReader // the document at the version the edit starts from
	parentID nodeid.ID // parent of the entries in list (editInsert, editDelete)
	// tgt is the record the edit rewrites; list the sibling list in it that
	// holds the target or receives the new subtree; idx the target's (or the
	// anchor's) index in list.
	tgt  *openRec
	list *[]*pack.MutNode
	idx  int
	// When a structural edit's list is the top level of a run record, its
	// covering proxy is entry pidx of plist in holder.
	holder *openRec
	plist  *[]*pack.MutNode
	pidx   int
	// editInsert: the new subtree and its node ID.
	sub   *pack.MutNode
	newID nodeid.ID
}

// locate resolves the record and sibling list holding node id. With
// structural set (the edit adds or removes an entry of that list) a run
// record's covering proxy is resolved too.
func (p *editPlan) locate(id nodeid.ID, structural bool) error {
	doc := p.req.doc
	var err error
	if p.tgt, err = p.r.openRec(id); err != nil {
		return err
	}
	ctx := p.tgt.rec.ContextID
	parent, idx, _, err := pack.FindMut(p.tgt.tops, ctx, id)
	if err != nil {
		return fmt.Errorf("%w: doc %d node %s", ErrNotFound, doc, id)
	}
	p.idx = idx
	if parent != nil {
		p.list = &parent.Children
		return nil
	}
	p.list = &p.tgt.tops
	if !structural || len(ctx) == 0 {
		return nil // the root record has no proxy
	}
	if p.holder, err = p.r.openRec(ctx); err != nil {
		return err
	}
	if p.plist, err = p.holder.children(ctx); err != nil {
		return err
	}
	first := p.tgt.tops[0].Rel
	for i, m := range *p.plist {
		if m.Kind == xml.Proxy && bytes.Equal(m.Rel, first) {
			p.pidx = i
			return nil
		}
	}
	return fmt.Errorf("%w: doc %d: no proxy under %s for the run at %s", pack.ErrCorrupt, doc, ctx, first)
}

// nextRel is the relative ID of the sibling after the located node, nil when
// it is the last child. By the proxy invariant a following proxy entry's Rel
// is that sibling's, so the answer is exact across records.
func (p *editPlan) nextRel() nodeid.Rel {
	if p.idx+1 < len(*p.list) {
		return (*p.list)[p.idx+1].Rel
	}
	if p.holder != nil && p.pidx+1 < len(*p.plist) {
		return (*p.plist)[p.pidx+1].Rel
	}
	return nil
}

// prevEntry is the entry before the located node — possibly a proxy, whose
// run then ends with the preceding sibling — or nil for a first child.
func (p *editPlan) prevEntry() *pack.MutNode {
	if p.idx > 0 {
		return (*p.list)[p.idx-1]
	}
	if p.holder != nil && p.pidx > 0 {
		return (*p.plist)[p.pidx-1]
	}
	return nil
}

// planEdit is the pipeline's read-only stage. Caller holds writeMu.
func (c *Collection) planEdit(req editReq) (*editPlan, error) {
	r, err := c.reader(req.doc)
	if err != nil {
		return nil, err
	}
	p := &editPlan{req: req, r: r}
	switch req.kind {
	case editUpdateText:
		if err = p.locate(req.id, false); err != nil {
			return nil, err
		}
		if k := (*p.list)[p.idx].Kind; k != xml.Text && k != xml.Attribute {
			return nil, fmt.Errorf("core: UpdateText target %s is a %v", req.id, k)
		}
	case editDelete:
		if len(req.id) == 0 || nodeid.Level(req.id) == 1 {
			return nil, errors.New("core: cannot delete the document root; use Delete")
		}
		if p.parentID, err = nodeid.Parent(req.id); err != nil {
			return nil, err
		}
		err = p.locate(req.id, true)
	case editInsert:
		err = p.planInsert()
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// planInsert sites a new subtree at (anchor, pos): the list it joins and a
// relative ID strictly between its neighbours', wherever those are stored.
func (p *editPlan) planInsert() error {
	anchor := p.req.id
	var lo, hi nodeid.Rel
	var err error
	switch p.req.pos {
	case AsLastChild:
		p.parentID = anchor
		if p.tgt, err = p.r.openRec(anchor); err != nil {
			return err
		}
		if p.list, err = p.tgt.children(anchor); err != nil {
			return err
		}
		if n := len(*p.list); n > 0 {
			last := (*p.list)[n-1]
			if last.Kind == xml.Proxy {
				// The last children live in a run record: append to it.
				p.holder, p.plist, p.pidx = p.tgt, p.list, n-1
				if p.tgt, err = p.r.openRun(anchor, last); err != nil {
					return err
				}
				p.list = &p.tgt.tops
				last = p.tgt.tops[len(p.tgt.tops)-1]
			}
			lo = last.Rel
		}
	case BeforeNode, AfterNode:
		if p.parentID, err = nodeid.Parent(anchor); err != nil {
			return err
		}
		if len(p.parentID) == 0 {
			return errors.New("core: cannot insert siblings of the document root")
		}
		if err = p.locate(anchor, true); err != nil {
			return err
		}
		lo, hi = (*p.list)[p.idx].Rel, p.nextRel()
		if p.req.pos == BeforeNode {
			hi, lo = lo, nil
			if prev := p.prevEntry(); prev != nil {
				if prev.Kind == xml.Proxy {
					run, err := p.r.openRun(p.parentID, prev)
					if err != nil {
						return err
					}
					prev = run.tops[len(run.tops)-1]
				}
				lo = prev.Rel
			}
		}
	default:
		return fmt.Errorf("core: unknown insert position %d", p.req.pos)
	}
	newRel, err := nodeid.Between(lo, hi)
	if err != nil {
		return err
	}
	if p.sub, err = pack.BuildMutFromTokens(p.req.data, newRel); err != nil {
		return err
	}
	p.newID = nodeid.Append(p.parentID, newRel)
	return nil
}

// edit runs one edit through the pipeline. logUndo, when set (a Txn's write;
// compensation passes nil), receives the edit's logical undo record after
// planning and before the first page effect.
func (c *Collection) edit(req editReq, logUndo func(logicalOp) error) (nodeid.ID, error) {
	if req.kind == editInsert && !req.tokenized {
		// Like ingest's stage, parsing needs no lock.
		stream, err := xmlparse.Parse(req.data, c.db.cat, xmlparse.Options{})
		if err != nil {
			return nil, err
		}
		req.data, req.tokenized = stream, true
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	p, err := c.planEdit(req)
	if err != nil {
		return nil, err
	}
	if logUndo != nil {
		op, err := c.undoRecord(p)
		if err != nil {
			return nil, err
		}
		if err := logUndo(op); err != nil {
			return nil, err
		}
	}
	if err := c.applyEdit(p); err != nil {
		return nil, err
	}
	return p.newID, nil
}

// undoRecord derives a planned edit's logical undo record. The targeted
// inverse of a delete — the subtree and where it goes back — is captured
// only when there is no document snapshot, which compensation prefers.
func (c *Collection) undoRecord(p *editPlan) (logicalOp, error) {
	op := logicalOp{Col: c.Name(), Doc: p.req.doc, Node: p.req.id.String()}
	var err error
	if op.Stream, err = c.undoSnapshot(p.req.doc); err != nil {
		return op, err
	}
	switch p.req.kind {
	case editUpdateText:
		op.Kind, op.Data = "update-text", (*p.list)[p.idx].Value
	case editInsert:
		op.Kind, op.Node = "insert-frag", p.newID.String()
	case editDelete:
		op.Kind = "delete-subtree"
		if op.Stream != nil {
			break
		}
		if op.Data, err = p.r.subtreeStream(p.tgt.rec, p.req.id); err != nil {
			return op, err
		}
		op.Anchor, op.Pos = p.parentID.String(), AsLastChild
		if next := p.nextRel(); next != nil {
			op.Anchor, op.Pos = nodeid.Append(p.parentID, next).String(), BeforeNode
		}
	}
	return op, nil
}

// subtreeStream re-encodes the stored subtree at id, which rec holds, as a
// token stream. Unlike XML text it represents any node kind, a lone text or
// attribute node included.
func (r docReader) subtreeStream(rec *pack.Record, id nodeid.ID) ([]byte, error) {
	n, found, err := rec.Find(id, nil)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: doc %d node %s", ErrNotFound, r.doc, id)
	}
	w := tokens.NewWriter(256)
	if err := pack.WalkSubtree(rec, nil, &n, r.borrow, visitorFor(&vsax.TokenSink{W: w})); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// applyEdit is the pipeline's mutating stage: the planned change to the
// decoded trees, written through the sink, inside the one value-index
// maintenance bracket.
func (c *Collection) applyEdit(p *editPlan) error {
	sink := c.newSink(p.r)
	before, err := c.captureValueKeys(p.r)
	if err != nil {
		return err
	}
	switch p.req.kind {
	case editUpdateText:
		(*p.list)[p.idx].Value = append([]byte(nil), p.req.data...)
	case editInsert:
		if err := p.widen(sink); err != nil {
			return err
		}
		*p.list = insertOrdered(*p.list, p.sub)
	case editDelete:
		if err := sink.dropInside(p.req.id, p.tgt.rid); err != nil {
			return err
		}
		*p.list = append((*p.list)[:p.idx], (*p.list)[p.idx+1:]...)
	}
	tops := p.tgt.tops
	if len(tops) == 0 {
		err = sink.drop(p.tgt)
	} else {
		err = sink.rewrite(p.tgt)
	}
	if err != nil {
		return err
	}
	if p.holder != nil {
		// The run's top level changed: restore the proxy invariant.
		if len(tops) == 0 {
			*p.plist = append((*p.plist)[:p.pidx], (*p.plist)[p.pidx+1:]...)
		} else {
			px := (*p.plist)[p.pidx]
			px.Rel, px.ProxyCount = tops[0].Rel, len(tops)
		}
		if err := sink.rewrite(p.holder); err != nil {
			return err
		}
	}
	if err := sink.commit(); err != nil {
		return err
	}
	return c.reconcileValueKeys(p.req.doc, before)
}

// widen adds the inserted subtree's element names to the root record's
// signature (pack.Record.Sig) before the edit's first record effect: when
// the edit rewrites the root record itself, as part of that rewrite;
// otherwise as a rewrite of the root record of its own, first. Any prefix of
// the edit's page effects that holds a new element therefore holds the
// wider signature too, and a reader never sees an element its document's
// signature misses.
func (p *editPlan) widen(sink recordSink) error {
	var bits uint64
	var add func(m *pack.MutNode)
	add = func(m *pack.MutNode) {
		if m.Kind == xml.Element {
			bits |= xml.SigBit(m.Name.Local)
			for _, c := range m.Children {
				add(c)
			}
		}
	}
	add(p.sub)
	if bits == 0 {
		return nil
	}
	// When the edit rewrites the root record, as its target or as the
	// holder of the target's proxy, that rewrite must carry the widened
	// header too.
	root := p.tgt
	if len(root.rec.ContextID) != 0 {
		root = p.holder
	}
	if root == nil || len(root.rec.ContextID) != 0 {
		// The edit leaves the root record alone: read its signature
		// before decoding it for a rewrite.
		rec, release, err := p.r.borrow(nodeid.Root)
		if err != nil {
			return err
		}
		covered := bits&^rec.Sig == 0
		release()
		if covered {
			return nil
		}
		if root, err = p.r.openRec(nodeid.Root); err != nil {
			return err
		}
	}
	if bits&^root.rec.Sig == 0 {
		return nil
	}
	root.rec.Sig |= bits
	if root == p.tgt {
		return nil
	}
	return sink.rewrite(root)
}

// insertOrdered places sub in list, keeping sibling order by relative ID.
func insertOrdered(list []*pack.MutNode, sub *pack.MutNode) []*pack.MutNode {
	at := len(list)
	for i, m := range list {
		if bytes.Compare(m.Rel, sub.Rel) > 0 {
			at = i
			break
		}
	}
	list = append(list, nil)
	copy(list[at+1:], list[at:])
	list[at] = sub
	return list
}

// recordSink receives an edit's record effects: the one fork between plain
// and versioned collections.
type recordSink interface {
	// rewrite stores r's edited subtrees in place of its stored content. An
	// edit may rewrite one record twice: the root record widened first, then
	// with its own edit.
	rewrite(r *openRec) error
	// drop removes r, whose last subtree the edit deleted.
	drop(r *openRec) error
	// dropInside removes every record, keep excepted, that lies wholly
	// inside the subtree at id.
	dropInside(id nodeid.ID, keep heap.RID) error
	// commit makes the edit the document's current state.
	commit() error
}

func (c *Collection) newSink(r docReader) recordSink {
	if c.meta.Versioned {
		return &verEdit{c: c, doc: r.doc, cur: r.ver, gone: map[heap.RID]bool{}}
	}
	return plainSink{c, r.doc}
}

// plainSink edits records in place.
type plainSink struct {
	c   *Collection
	doc xml.DocID
}

func (s plainSink) rewrite(r *openRec) error {
	return s.c.rewriteRecord(s.doc, r.rid, r.rec, r.tops)
}

func (s plainSink) drop(r *openRec) error {
	uppers, _, err := r.rec.Intervals()
	if err != nil {
		return err
	}
	if err := s.c.deleteUppers(s.doc, uppers); err != nil {
		return err
	}
	return s.c.xmlTbl.Delete(r.rid)
}

func (s plainSink) dropInside(id nodeid.ID, keep heap.RID) error {
	c := s.c
	var uppers []nodeid.ID
	var rids []heap.RID // distinct, in index order: page effects must replay deterministically
	seen := map[heap.RID]bool{}
	err := c.nodeIx.Tree().Scan(nodeindex.Key(s.doc, id), nil, func(e btree.Entry) bool {
		d, upper, err := nodeindex.SplitKey(e.Key)
		if err != nil || d != s.doc || !nodeid.IsAncestorOrSelf(id, upper) {
			return false
		}
		if rid := heap.RIDFromBytes(e.Value); rid != keep {
			uppers = append(uppers, nodeid.Clone(upper))
			if !seen[rid] {
				seen[rid] = true
				rids = append(rids, rid)
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	for _, rid := range rids {
		if err := c.xmlTbl.Delete(rid); err != nil {
			return err
		}
	}
	return c.deleteUppers(s.doc, uppers)
}

func (plainSink) commit() error { return nil }

// encodeRecord re-encodes edited subtrees under rec's header, returning the
// XML-table row and the new record's interval upper endpoints.
func encodeRecord(doc xml.DocID, rec *pack.Record, tops []*pack.MutNode) ([]byte, []nodeid.ID, error) {
	payload := rec.Encode(tops)
	newRec, err := pack.Decode(payload)
	if err != nil {
		return nil, nil, err
	}
	uppers, minID, err := newRec.Intervals()
	if err != nil {
		return nil, nil, err
	}
	return xmlRow(doc, minID, payload), uppers, nil
}

// rewriteRecord re-encodes an edited record, updates its heap row, and
// refreshes its NodeID-index interval entries: the new ones first, then the
// old ones that are gone, so a reader that takes no lock always finds the
// record through its entries.
func (c *Collection) rewriteRecord(doc xml.DocID, rid heap.RID, rec *pack.Record, tops []*pack.MutNode) error {
	oldUppers, _, err := rec.Intervals()
	if err != nil {
		return err
	}
	row, newUppers, err := encodeRecord(doc, rec, tops)
	if err != nil {
		return err
	}
	if err := c.xmlTbl.Update(rid, row); err != nil {
		return err
	}
	for _, u := range newUppers {
		if err := c.nodeIx.Put(doc, u, rid); err != nil {
			return err
		}
	}
	stale := slices.DeleteFunc(oldUppers, func(u nodeid.ID) bool {
		return slices.ContainsFunc(newUppers, func(n nodeid.ID) bool { return nodeid.Equal(n, u) })
	})
	return c.deleteUppers(doc, stale)
}

// deleteUppers removes NodeID-index interval entries, tolerating ones already
// gone.
func (c *Collection) deleteUppers(doc xml.DocID, uppers []nodeid.ID) error {
	for _, u := range uppers {
		if err := c.nodeIx.Delete(doc, u); err != nil && !errors.Is(err, btree.ErrNotFound) {
			return err
		}
	}
	return nil
}

// valueKeySnapshot is one index's (value, node) key set for a document.
type valueKeySnapshot struct {
	ov      *openValueIndex
	matches []quickxscan.Match
}

// captureValueKeys records every value index's keys for the document before
// an update.
func (c *Collection) captureValueKeys(r docReader) ([]valueKeySnapshot, error) {
	var out []valueKeySnapshot
	for _, ov := range c.valIxs {
		ms, err := r.eval(ov.keygen)
		if err != nil {
			return nil, err
		}
		out = append(out, valueKeySnapshot{ov: ov, matches: ms})
	}
	return out, nil
}

// reconcileValueKeys diffs each index's keys after an update against the
// snapshot, applying only the changes.
func (c *Collection) reconcileValueKeys(doc xml.DocID, before []valueKeySnapshot) error {
	if len(before) == 0 {
		return nil
	}
	r, err := c.reader(doc) // the version the edit just installed
	if err != nil {
		return err
	}
	for _, snap := range before {
		after, err := r.eval(snap.ov.keygen)
		if err != nil {
			return err
		}
		if err := c.noteMatches(snap.ov, len(after)); err != nil {
			return err
		}
		// Apply the diff by walking the eval-ordered slices (the maps are
		// membership sets only): index mutations must happen in a
		// history-determined order so fault schedules replay exactly.
		key := func(m quickxscan.Match) string { return string(m.ID) + "\x00" + string(m.Value) }
		oldSet := map[string]bool{}
		for _, m := range snap.matches {
			oldSet[key(m)] = true
		}
		newSet := map[string]bool{}
		for _, m := range after {
			newSet[key(m)] = true
		}
		for _, m := range snap.matches {
			if newSet[key(m)] {
				continue
			}
			err := snap.ov.ix.Delete(m.Value, doc, m.ID)
			if err != nil && !errors.Is(err, valueindex.ErrNotIndexable) && !errors.Is(err, btree.ErrNotFound) {
				return err
			}
		}
		fresh := after[:0]
		for _, m := range after {
			if !oldSet[key(m)] {
				fresh = append(fresh, m)
			}
		}
		if err := r.putValueKeys(snap.ov.ix, fresh); err != nil {
			return err
		}
	}
	return nil
}

// putValueKeys is the one value-key put loop: each key — derived from the
// reader's document for ix — goes in under the RID of the record that holds
// its node at the reader's version.
func (r docReader) putValueKeys(ix *valueindex.Index, keys []quickxscan.Match) error {
	for _, m := range keys {
		rid, err := r.lookup(m.ID)
		if err != nil {
			return err
		}
		if err := ix.Put(m.Value, r.doc, m.ID, rid); err != nil && !errors.Is(err, valueindex.ErrNotIndexable) {
			return err
		}
	}
	return nil
}
