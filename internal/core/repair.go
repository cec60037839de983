package core

// Self-healing repair. Everything except the catalog and the heap data
// itself is a derivation: the DocID index, NodeID index, and value indexes
// can all be rebuilt from a heap scan, base rows can be re-derived from the
// NodeID index, and checksum sidecars can be re-derived from the data they
// cover. Repair exploits that: it attributes each damaged page to the
// structure that owns it, rebuilds rebuildable structures in place (the
// tree/table objects keep their durable identity — meta page, first page —
// so concurrent readers never see a stale handle), and salvages documents
// whose heap records were lost from whatever the NodeID index still reaches,
// flagging them lossy rather than dropping them.
//
// Repair is idempotent and checkpointed between collections: a crash
// mid-repair loses nothing but progress, because the work list (the damaged
// page set and the quarantine registry) is re-derived from storage on the
// next pass, not persisted.
//
// Not repairable, by design: catalog pages (the root of trust — repair
// refuses and asks for a backup restore) and the NodeID index of a
// *versioned* collection (version numbers exist only in the index keys, not
// in the heap rows, so a heap scan cannot reconstruct the version mapping).

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"rx/internal/btree"
	"rx/internal/heap"
	"rx/internal/pack"
	"rx/internal/pagestore"
	"rx/internal/xml"
	"rx/internal/xmlparse"
)

// RepairedDoc records one document repair restored.
type RepairedDoc struct {
	Col string
	Doc xml.DocID
	// Lossy is set when salvage could not recover the whole document:
	// LostSubtrees subtrees (or the entire content, when the root record was
	// lost) were replaced by nothing.
	Lossy        bool
	LostSubtrees int
}

// RepairReport summarizes a Repair run.
type RepairReport struct {
	Passes            int
	SidecarsRederived bool
	PagesReformatted  []pagestore.PageID
	DocsRepaired      []RepairedDoc
	IndexesRebuilt    []string
	// Remaining lists documents still quarantined after repair (damage repair
	// cannot undo, e.g. a versioned collection's NodeID index).
	Remaining []QuarantineEntry
	// Clean is set when the final verification pass found no damage.
	Clean bool
}

// maxRepairPasses bounds the heal-verify loop: each pass either makes
// progress (reformats pages, rebuilds structures, restores documents) or
// the loop stops.
const maxRepairPasses = 3

// Repair heals the database in place: re-derives checksum sidecars when the
// damage pattern implicates them, rebuilds damaged secondary structures from
// the heap, reformats and relinks damaged heap pages, and restores affected
// documents from salvage. throttle (optional) is called once per page read
// during verification scans, bounding repair's read rate like the
// scrubber's. Safe to run concurrently with readers; writers are held out
// of a collection only while its structures are being rebuilt.
func (db *DB) Repair(throttle func()) (*RepairReport, error) {
	rep := &RepairReport{}
	for pass := 1; pass <= maxRepairPasses; pass++ {
		rep.Passes = pass
		_, errs, err := db.ScanPages(throttle)
		if err != nil {
			return rep, err
		}
		errs, err = db.maybeRederiveSidecars(rep, errs, throttle)
		if err != nil {
			return rep, err
		}
		if len(errs) == 0 && len(db.Quarantined()) == 0 {
			rep.Clean = true
			break
		}
		progress, err := db.healPass(rep, errs, throttle)
		// Checkpoint regardless of error: partial repairs are durable and a
		// re-run resumes from the re-derived damage set.
		if cerr := db.Checkpoint(); err == nil {
			err = cerr
		}
		if err != nil {
			return rep, err
		}
		if !progress {
			break
		}
	}
	rep.Remaining = db.Quarantined()
	return rep, nil
}

// maybeRederiveSidecars applies the lost-sidecar heuristic: a dense cluster
// of checksum failures within a single sidecar group (8+ failures covering
// at least half the group's pages) implicates the sidecar page itself, not
// dozens of independently damaged data pages. Re-deriving the sidecars from
// the data blesses the current images; the structural scrub that follows
// re-detects any page whose *contents* are actually damaged.
func (db *DB) maybeRederiveSidecars(rep *RepairReport, errs []PageError, throttle func()) ([]PageError, error) {
	cs, ok := db.store.(*pagestore.ChecksumStore)
	if !ok || len(errs) == 0 {
		return errs, nil
	}
	failPer := map[pagestore.PageID]int{}
	for _, pe := range errs {
		failPer[pagestore.SidecarPage(pe.Page)]++
	}
	allocPer := map[pagestore.PageID]int{}
	for p := pagestore.PageID(0); p < db.store.NumPages(); p++ {
		allocPer[pagestore.SidecarPage(p)]++
	}
	suspect := false
	for g, n := range failPer {
		if n >= 8 && 2*n >= allocPer[g] {
			suspect = true
			break
		}
	}
	if !suspect {
		return errs, nil
	}
	if err := cs.Rederive(); err != nil {
		return errs, err
	}
	rep.SidecarsRederived = true
	// A heap table opened over the failing pages stopped its chain walk at
	// the first of them (heap.OpenTolerant): its last page and live counts
	// cover a prefix. Now that the pages verify, walk the chains again.
	db.mu.Lock()
	cols := make([]*Collection, 0, len(db.cols))
	for _, c := range db.cols {
		cols = append(cols, c)
	}
	db.mu.Unlock()
	for _, c := range cols {
		c.writeMu.Lock()
		err := c.base.Reattach()
		if err == nil {
			err = c.xmlTbl.Reattach()
		}
		c.writeMu.Unlock()
		if err != nil {
			return errs, err
		}
	}
	_, errs, err := db.ScanPages(throttle)
	return errs, err
}

// healPass runs one heal iteration over the given damage set. Returns
// whether any repair action was taken.
func (db *DB) healPass(rep *RepairReport, errs []PageError, throttle func()) (bool, error) {
	bad := map[pagestore.PageID]bool{}
	for _, pe := range errs {
		bad[pe.Page] = true
	}
	owned := map[pagestore.PageID]bool{}
	for _, p := range db.cat.Pages() {
		owned[p] = true
		if bad[p] {
			return false, fmt.Errorf("core: repair: catalog page %d is damaged; the catalog is not auto-repairable, restore from backup", p)
		}
	}
	progress := false
	openFailed := false
	for _, name := range db.Collections() {
		c, err := db.Collection(name)
		if err != nil {
			// Unopenable collection (e.g. damaged index meta page): its pages
			// could not be attributed, so the orphan sweep below must not run —
			// it would reformat pages that are really owned.
			openFailed = true
			continue
		}
		p, err := db.healCollection(c, bad, owned, rep, throttle)
		progress = progress || p
		if err != nil {
			return progress, err
		}
	}
	if openFailed {
		return progress, nil
	}
	// Damaged pages no structure owns (abandoned by an earlier rebuild, or
	// free space): reformat to zeros so they verify again. The written bit in
	// the sidecar is refreshed on write-back.
	for _, pe := range errs {
		if owned[pe.Page] {
			continue
		}
		f, err := db.pool.FetchZeroed(pe.Page)
		if err != nil {
			return progress, err
		}
		db.pool.Unpin(f, false)
		rep.PagesReformatted = append(rep.PagesReformatted, pe.Page)
		progress = true
	}
	return progress, nil
}

// healCollection repairs one collection against the damage set, in order:
// damage assessment (read-only, tolerant) → heap reformat+relink → index
// rebuilds (writers held out) → document salvage+restore (writers admitted;
// restore locks per document). Adds every page the collection owns to owned.
func (db *DB) healCollection(c *Collection, bad, owned map[pagestore.PageID]bool, rep *RepairReport, throttle func()) (bool, error) {
	name := c.meta.Name
	sets := c.structurePages()
	inter := func(m map[pagestore.PageID]bool) []pagestore.PageID {
		var out []pagestore.PageID
		for p := range m {
			owned[p] = true
			if bad[p] {
				out = append(out, p)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	damagedBase := inter(sets.base)
	damagedXML := inter(sets.xmlT)
	damagedDocIx := inter(sets.docIx)
	damagedNodeIx := inter(sets.nodeIx)
	damagedVal := map[string][]pagestore.PageID{}
	for _, ov := range c.indexSnapshot() {
		if d := inter(sets.valIx[ov.meta.Name]); len(d) > 0 {
			damagedVal[ov.meta.Name] = d
		}
	}

	if c.meta.Versioned && len(damagedNodeIx) > 0 {
		// The version mapping lives only in the index keys; a heap scan sees
		// version-less rows. Quarantine the whole collection rather than
		// fabricate history.
		for _, doc := range c.scrubDocList() {
			db.Quarantine(name, doc, "versioned NodeID index damaged: not rebuildable, restore from backup", damagedNodeIx[0])
		}
		return false, nil
	}

	// Damage assessment before any mutation: checkDoc over every document
	// the indexes still list and every one the registry holds, each under
	// its S lock (a document a writer holds keeps its registry state until
	// the next pass). A document found damaged is restored below; a
	// quarantined one deleted since is only cleared. A NodeID-index fault
	// rebuilds the index first, so the restore walks the stored document —
	// except on a versioned collection, whose document stays quarantined.
	affected := map[xml.DocID]bool{}
	docs := c.scrubDocList()
	for _, qe := range db.Quarantined() {
		if qe.Col == name {
			affected[qe.Doc] = true
			docs = append(docs, qe.Doc)
		}
	}
	slices.Sort(docs)
	docs = slices.Compact(docs)
	rebuildNodeIx := len(damagedNodeIx) > 0
	lk := db.locks.Begin()
	for _, doc := range docs {
		if !shareDoc(lk, name, doc) {
			lk.ReleaseAll()
			continue
		}
		switch f := c.checkDoc(doc, bad); {
		case f.reason == "":
		case c.gone(doc):
			db.ClearQuarantine(name, doc)
			delete(affected, doc)
		case f.nodeIx && c.meta.Versioned:
			db.Quarantine(name, doc, f.reason, f.page)
			delete(affected, doc)
		default:
			affected[doc] = true
			rebuildNodeIx = rebuildNodeIx || f.nodeIx
		}
		lk.ReleaseAll()
	}

	progress := false
	reformat := func(pages []pagestore.PageID) error {
		for _, p := range pages {
			f, err := db.pool.FetchZeroed(p)
			if err != nil {
				return err
			}
			err = db.pool.Modify(f, func(d []byte) error {
				heap.InitPageImage(d)
				return nil
			})
			db.pool.Unpin(f, false)
			if err != nil {
				return err
			}
			rep.PagesReformatted = append(rep.PagesReformatted, p)
		}
		return nil
	}
	relink := func(t *heap.Table, members map[pagestore.PageID]bool) error {
		first := t.FirstPage()
		pages := []pagestore.PageID{first}
		var rest []pagestore.PageID
		for p := range members {
			if p != first {
				rest = append(rest, p)
			}
		}
		sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
		return t.Relink(append(pages, rest...))
	}

	c.writeMu.Lock()
	healErr := func() error {
		// Heap surgery: reformat the unreadable pages, then rewrite the page
		// chain over the full membership (reformatted pages become empty
		// members; orphaned tails severed by a damaged link are re-attached
		// because their pages are referenced by index RIDs).
		if len(damagedXML) > 0 {
			if err := reformat(damagedXML); err != nil {
				return err
			}
			if err := relink(c.xmlTbl, sets.xmlT); err != nil {
				return err
			}
			progress = true
		}
		if len(damagedBase) > 0 {
			if err := reformat(damagedBase); err != nil {
				return err
			}
			if err := relink(c.base, sets.base); err != nil {
				return err
			}
			progress = true
		}

		// Index rebuilds. The NodeID index first: the others derive from it.
		if rebuildNodeIx {
			if err := c.rebuildNodeIndex(throttle); err != nil {
				return err
			}
			if err := zeroPages(db, damagedNodeIx, rep); err != nil {
				return err
			}
			rep.IndexesRebuilt = append(rep.IndexesRebuilt, name+"/nodeid-index")
			atomic.AddUint64(&db.stats.indexesRebuilt, 1)
			progress = true
		}
		if len(damagedDocIx) > 0 || len(damagedBase) > 0 {
			if err := c.rebuildBaseAndDocIndex(); err != nil {
				return err
			}
			if err := zeroPages(db, damagedDocIx, rep); err != nil {
				return err
			}
			rep.IndexesRebuilt = append(rep.IndexesRebuilt, name+"/docid-index")
			atomic.AddUint64(&db.stats.indexesRebuilt, 1)
			progress = true
		}
		for _, ov := range c.indexSnapshot() {
			dpages, ok := damagedVal[ov.meta.Name]
			if !ok {
				continue
			}
			if err := db.rebuildValueIndex(c, ov, rep, throttle); err != nil {
				return err
			}
			if err := zeroPages(db, dpages, rep); err != nil {
				return err
			}
			progress = true
		}
		return nil
	}()
	c.writeMu.Unlock()
	if healErr != nil {
		return progress, healErr
	}

	// Document salvage and restore. At this point the structures are
	// consistent; what is lost is lost. Each affected document is re-read
	// through the (rebuilt) NodeID index — proxies to records that lived on
	// reformatted pages come back as misses and their subtrees are skipped —
	// and rewritten wholesale. A document whose pages turned out fine (e.g.
	// quarantined before a sidecar re-derivation) is restored losslessly.
	order := make([]xml.DocID, 0, len(affected))
	for doc := range affected {
		order = append(order, doc)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	lossy := false
	for _, doc := range order {
		if throttle != nil {
			throttle()
		}
		// Subtrees whose records are unreachable are skipped and counted; 0
		// lost means a complete, lossless capture.
		lost := 0
		stream, err := c.docStream(doc, &lost)
		if err != nil {
			// Root record or a decodable prefix is gone: keep the document's
			// identity alive with a placeholder so it is never silently
			// dropped.
			stream, err = placeholderStream(c)
			if err != nil {
				return progress, err
			}
			lost = -1
		}
		if err := c.restoreDoc(doc, stream); err != nil {
			// Leave it quarantined; the registry keeps the original reason.
			continue
		}
		db.ClearQuarantine(name, doc)
		atomic.AddUint64(&db.stats.docsRepaired, 1)
		rd := RepairedDoc{Col: name, Doc: doc}
		if lost != 0 {
			n := lost
			if n < 0 {
				n = 1
			}
			db.markLossy(name, doc, n)
			rd.Lossy, rd.LostSubtrees = true, n
			lossy = true
		}
		rep.DocsRepaired = append(rep.DocsRepaired, rd)
		progress = true
	}
	if !lossy {
		return progress, nil
	}
	// A lossy stream cannot regenerate the keys of what it lost, and the
	// damaged tree no longer walks, so restoreDoc's removal may have left
	// value keys of the lost content behind: rebuild the indexes once.
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	for _, ov := range c.indexSnapshot() {
		if err := db.rebuildValueIndex(c, ov, rep, throttle); err != nil {
			return progress, err
		}
	}
	return progress, nil
}

// zeroPages reformats abandoned index pages to zeros so they verify again.
func zeroPages(db *DB, pages []pagestore.PageID, rep *RepairReport) error {
	for _, p := range pages {
		f, err := db.pool.FetchZeroed(p)
		if err != nil {
			return err
		}
		db.pool.Unpin(f, false)
		rep.PagesReformatted = append(rep.PagesReformatted, p)
	}
	return nil
}

// rebuildNodeIndex rebuilds an unversioned NodeID index in place from a
// full XML-table scan: every row re-announces its intervals. Caller holds
// writeMu.
func (c *Collection) rebuildNodeIndex(throttle func()) error {
	if err := c.nodeIx.Tree().Reset(); err != nil {
		return err
	}
	return c.xmlTbl.Scan(func(rid heap.RID, row []byte) error {
		if throttle != nil {
			throttle()
		}
		doc, _, payload, err := splitXMLRow(row)
		if err != nil {
			return nil // a garbled row indexes nothing
		}
		rec, err := pack.Decode(payload)
		if err != nil {
			return nil
		}
		intervals, _, err := rec.Intervals()
		if err != nil {
			return nil
		}
		for _, upper := range intervals {
			if err := c.nodeIx.Put(doc, upper, rid); err != nil {
				return err
			}
		}
		return nil
	})
}

// rebuildBaseAndDocIndex re-derives base rows and the DocID index from the
// NodeID index: the document set is whatever the NodeID index knows, base
// rows that survived keep their version, missing ones are re-inserted (a
// versioned document's current version is recovered from its newest index
// key). Caller holds writeMu.
func (c *Collection) rebuildBaseAndDocIndex() error {
	type baseInfo struct {
		rid heap.RID
		ver uint64
	}
	have := map[xml.DocID]baseInfo{}
	_ = c.base.Scan(func(rid heap.RID, row []byte) error {
		if len(row) < 8 {
			return nil
		}
		doc := xml.DocID(binary.BigEndian.Uint64(row))
		ver := uint64(1)
		if c.meta.Versioned && len(row) >= 16 {
			ver = binary.BigEndian.Uint64(row[8:16])
		}
		have[doc] = baseInfo{rid: rid, ver: ver}
		return nil
	})
	if err := c.docIx.Reset(); err != nil {
		return err
	}
	docs, err := c.nodeIxDocs()
	if err != nil {
		return err
	}
	for _, doc := range docs {
		bi, ok := have[doc]
		if !ok {
			ver := uint64(1)
			if c.meta.Versioned {
				ver = c.maxVersionFromIndex(doc)
			}
			rid, err := c.base.Insert(c.baseRow(doc, ver))
			if err != nil {
				return err
			}
			bi = baseInfo{rid: rid, ver: ver}
		}
		var d [8]byte
		binary.BigEndian.PutUint64(d[:], uint64(doc))
		if err := c.docIx.Put(d[:], bi.rid.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// rebuildValueIndex rebuilds one value index in place by re-evaluating its
// path over every document the NodeID index knows, and reports it. Caller
// holds writeMu.
func (db *DB) rebuildValueIndex(c *Collection, ov *openValueIndex, rep *RepairReport, throttle func()) error {
	if err := ov.ix.Tree().Reset(); err != nil {
		return err
	}
	docs, err := c.nodeIxDocs()
	if err != nil {
		return err
	}
	note := func(matches int) error { return c.noteMatches(ov, matches) }
	if err := c.fillValueIndex(ov.ix, ov.keygen, docs, note, throttle); err != nil {
		return err
	}
	rep.IndexesRebuilt = append(rep.IndexesRebuilt, c.meta.Name+"/value-index("+ov.meta.Name+")")
	atomic.AddUint64(&db.stats.indexesRebuilt, 1)
	return nil
}

// placeholderStream builds the stand-in document stored for a document
// whose root record was lost.
func placeholderStream(c *Collection) ([]byte, error) {
	return xmlparse.Parse([]byte("<lost-document/>"), c.db.cat, xmlparse.Options{})
}

// nodeIxDocs enumerates documents straight from the NodeID index keys (first
// 8 bytes of both plain and versioned keys are the DocID), in order.
func (c *Collection) nodeIxDocs() ([]xml.DocID, error) {
	var out []xml.DocID
	err := c.nodeIx.Tree().Scan(nil, nil, func(e btree.Entry) bool {
		if len(e.Key) >= 8 {
			if d := xml.DocID(binary.BigEndian.Uint64(e.Key)); len(out) == 0 || out[len(out)-1] != d {
				out = append(out, d)
			}
		}
		return true
	})
	return out, err
}

// maxVersionFromIndex recovers a versioned document's newest version from
// its first (highest-version; versions sort descending) NodeID index key.
func (c *Collection) maxVersionFromIndex(doc xml.DocID) uint64 {
	var from [8]byte
	binary.BigEndian.PutUint64(from[:], uint64(doc))
	ver := uint64(1)
	_ = c.nodeIx.Tree().Ceiling(from[:], func(k, _ []byte) {
		if len(k) >= 16 && binary.BigEndian.Uint64(k[:8]) == uint64(doc) {
			ver = ^binary.BigEndian.Uint64(k[8:16])
		}
	})
	return ver
}
