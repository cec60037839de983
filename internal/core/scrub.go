package core

// The online integrity scrubber: a background-safe pass that reads every
// page of the store (catching checksum failures and I/O errors), then runs
// checkDoc — the one per-document consistency check, check.go — over every
// document, and quarantines exactly the documents it finds damaged,
// physically or logically. Structural damage (an index whose own pages
// fail) is reported per structure so repair knows what to rebuild.
//
// A pass holds no long-lived locks: it reads through the same store/pool
// paths queries use, so it runs concurrently with readers and writers. Each
// document is checked under its S lock, taken without waiting and released
// right after; a document a writer holds is left for the next pass. The
// caller-supplied throttle hook is invoked once per page read and once per
// document checked, which is where a rate limiter plugs in.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"rx/internal/btree"
	"rx/internal/heap"
	"rx/internal/lock"
	"rx/internal/nodeindex"
	"rx/internal/pagestore"
	"rx/internal/xml"
)

// PageError records one page that failed verification during a scan.
type PageError struct {
	Page pagestore.PageID
	Err  error
}

// StructureRef names an on-disk structure the scrubber found damaged.
type StructureRef struct {
	Col  string // collection name ("" for the catalog)
	Kind string // "catalog", "base", "xml", "docid-index", "nodeid-index", "value-index", "unopenable"
	Name string // value-index name, otherwise ""
}

func (s StructureRef) String() string {
	switch {
	case s.Kind == "catalog":
		return "catalog"
	case s.Name != "":
		return fmt.Sprintf("%s/%s(%s)", s.Col, s.Kind, s.Name)
	default:
		return fmt.Sprintf("%s/%s", s.Col, s.Kind)
	}
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	PagesScanned      int
	PageErrors        []PageError
	NewQuarantined    []QuarantineEntry
	CorruptStructures []StructureRef
	CatalogDamaged    bool
}

// Clean reports whether the pass found nothing wrong.
func (r *ScrubReport) Clean() bool {
	return len(r.PageErrors) == 0 && len(r.NewQuarantined) == 0 &&
		len(r.CorruptStructures) == 0
}

// ScanPages flushes dirty pages and reads back every page of the store,
// collecting every failure (the scrubber needs the full damage picture;
// VerifyPages reports the first). throttle, if
// non-nil, is called before each page read; the scrubber's rate limiter
// sleeps there.
func (db *DB) ScanPages(throttle func()) (scanned int, errs []PageError, err error) {
	if err := db.pool.FlushAll(); err != nil {
		return 0, nil, err
	}
	buf := make([]byte, pagestore.PageSize)
	n := db.store.NumPages()
	for id := pagestore.PageID(0); id < n; id++ {
		if throttle != nil {
			throttle()
		}
		if rerr := db.store.ReadPage(id, buf); rerr != nil {
			errs = append(errs, PageError{Page: id, Err: rerr})
		}
		scanned++
	}
	return scanned, errs, nil
}

// ScrubPass runs one full integrity pass: physical page scan, then a
// structural cross-check of every collection. Damaged documents are
// quarantined; damaged structures are reported for repair. The pass itself
// never mutates data.
func (db *DB) ScrubPass(throttle func()) (*ScrubReport, error) {
	rep := &ScrubReport{}
	scanned, errs, err := db.ScanPages(throttle)
	if err != nil {
		return nil, err
	}
	rep.PagesScanned = scanned
	rep.PageErrors = errs
	atomic.AddUint64(&db.stats.pagesVerified, uint64(scanned))
	atomic.AddUint64(&db.stats.corruptions, uint64(len(errs)))

	bad := map[pagestore.PageID]bool{}
	for _, pe := range errs {
		bad[pe.Page] = true
	}
	for _, p := range db.cat.Pages() {
		if bad[p] {
			rep.CatalogDamaged = true
			rep.CorruptStructures = append(rep.CorruptStructures, StructureRef{Kind: "catalog"})
			break
		}
	}
	for _, name := range db.Collections() {
		c, err := db.Collection(name)
		if err != nil {
			rep.CorruptStructures = append(rep.CorruptStructures,
				StructureRef{Col: name, Kind: "unopenable"})
			continue
		}
		db.scrubCollection(c, bad, rep, throttle)
	}
	atomic.AddUint64(&db.stats.scrubPasses, 1)
	return rep, nil
}

// ScrubOptions configure a Scrubber.
type ScrubOptions struct {
	// Rate bounds a pass to about this many page/record reads per second;
	// 0 means unthrottled.
	Rate int
}

// Scrubber runs one-shot scrub and repair passes under a rate limit. The
// periodic scrub is a duty of the maintenance loop (Options.ScrubInterval).
type Scrubber struct {
	db   *DB
	opts ScrubOptions
}

// NewScrubber builds a scrubber over db.
func NewScrubber(db *DB, opts ScrubOptions) *Scrubber {
	return &Scrubber{db: db, opts: opts}
}

// throttle returns a fresh rate-limit hook for one pass (nil when
// unthrottled).
func (s *Scrubber) throttle() func() {
	if l := newLimiter(s.opts.Rate); l != nil {
		return l.wait
	}
	return nil
}

// RunPass runs one scrub pass synchronously under the rate limit.
func (s *Scrubber) RunPass() (*ScrubReport, error) {
	return s.db.ScrubPass(s.throttle())
}

// ScanPages runs DB.ScanPages under the rate limit.
func (s *Scrubber) ScanPages() (int, []PageError, error) {
	return s.db.ScanPages(s.throttle())
}

// Repair runs DB.Repair under the rate limit.
func (s *Scrubber) Repair() (*RepairReport, error) {
	return s.db.Repair(s.throttle())
}

// scrubCollection attributes page damage to the collection's structures and
// runs checkDoc over every document.
func (db *DB) scrubCollection(c *Collection, bad map[pagestore.PageID]bool, rep *ScrubReport, throttle func()) {
	name := c.meta.Name
	// A page that still fails is in rep.PageErrors already.
	c.writeMu.Lock()
	_ = c.rewalkHeaps()
	c.writeMu.Unlock()
	sets := c.structurePages()
	addRef := func(kind, ixName string, pages map[pagestore.PageID]bool) bool {
		for p := range pages {
			if bad[p] {
				rep.CorruptStructures = append(rep.CorruptStructures,
					StructureRef{Col: name, Kind: kind, Name: ixName})
				return true
			}
		}
		return false
	}
	addRef("base", "", sets.base)
	addRef("xml", "", sets.xmlT)
	addRef("docid-index", "", sets.docIx)
	addRef("nodeid-index", "", sets.nodeIx)
	for _, ov := range c.indexSnapshot() {
		if !addRef("value-index", ov.meta.Name, sets.valIx[ov.meta.Name]) {
			// Pages clean — still walk the index so logical damage (a
			// scribbled-but-checksummed page) is caught.
			if err := ov.ix.Tree().Scan(nil, nil, func(e btree.Entry) bool { return true }); err != nil {
				rep.CorruptStructures = append(rep.CorruptStructures,
					StructureRef{Col: name, Kind: "value-index", Name: ov.meta.Name})
			}
		}
	}

	lk := db.locks.Begin()
	for _, doc := range c.scrubDocList() {
		if throttle != nil {
			throttle()
		}
		if _, ok := db.quarantined(name, doc); ok {
			continue
		}
		if !shareDoc(lk, name, doc) {
			lk.ReleaseAll()
			continue
		}
		if f := c.checkDoc(doc, bad); f.reason != "" && !c.gone(doc) && db.Quarantine(name, doc, f.reason, f.page) {
			e, _ := db.quarantined(name, doc)
			rep.NewQuarantined = append(rep.NewQuarantined, e)
		}
		lk.ReleaseAll()
	}
}

// shareDoc takes doc's S lock, and the collection's IS lock, for lk without
// waiting: it reports false when a writer holds either.
func shareDoc(lk *lock.Txn, col string, doc xml.DocID) bool {
	return lk.TryLock(lock.CollectionRes(col), lock.IS) && lk.TryLock(lock.DocRes(col, doc), lock.S)
}

// gone reports whether doc is in neither the DocID nor the NodeID index:
// deleted after a pass listed it, it has nothing left to judge.
func (c *Collection) gone(doc xml.DocID) bool {
	var d [8]byte
	binary.BigEndian.PutUint64(d[:], uint64(doc))
	if _, err := c.docIx.Get(d[:]); !errors.Is(err, btree.ErrNotFound) {
		return false
	}
	_, err := c.nodeIx.RootRID(doc)
	return errors.Is(err, nodeindex.ErrNotFound)
}

// colPageSets is the page-ownership map of one collection's structures,
// computed tolerantly: unreadable pages are included (they are exactly the
// interesting ones), broken walks contribute what they reached.
type colPageSets struct {
	base   map[pagestore.PageID]bool
	xmlT   map[pagestore.PageID]bool
	docIx  map[pagestore.PageID]bool
	nodeIx map[pagestore.PageID]bool
	valIx  map[string]map[pagestore.PageID]bool // by index name
}

// structurePages computes which pages each of the collection's structures
// owns. Heap membership is the chain walk union every page referenced by
// the structure's index values (RIDs survive in the indexes even when the
// chain is severed) union forwarding-stub targets.
func (c *Collection) structurePages() colPageSets {
	limit := c.db.store.NumPages()
	mk := func() map[pagestore.PageID]bool { return map[pagestore.PageID]bool{} }
	add := func(m map[pagestore.PageID]bool, pages []pagestore.PageID) {
		for _, p := range pages {
			if p != pagestore.InvalidPage && p < limit {
				m[p] = true
			}
		}
	}
	s := colPageSets{base: mk(), xmlT: mk(), docIx: mk(), nodeIx: mk(),
		valIx: map[string]map[pagestore.PageID]bool{}}

	pgs, _ := c.docIx.Pages()
	add(s.docIx, pgs)
	pgs, _ = c.nodeIx.Tree().Pages()
	add(s.nodeIx, pgs)
	for _, ov := range c.indexSnapshot() {
		m := mk()
		pgs, _ = ov.ix.Tree().Pages()
		add(m, pgs)
		s.valIx[ov.meta.Name] = m
	}

	// Base heap: chain walk plus DocID-index value RIDs.
	pgs, _ = c.base.ChainPages()
	add(s.base, pgs)
	_ = c.docIx.Scan(nil, nil, func(e btree.Entry) bool {
		add(s.base, []pagestore.PageID{heap.RIDFromBytes(e.Value).Page})
		return true
	})

	// XML heap: chain walk plus NodeID-index value RIDs plus stub targets.
	pgs, _ = c.xmlTbl.ChainPages()
	add(s.xmlT, pgs)
	_ = c.nodeIx.Tree().Scan(nil, nil, func(e btree.Entry) bool {
		add(s.xmlT, []pagestore.PageID{heap.RIDFromBytes(e.Value).Page})
		return true
	})
	if targets, err := c.xmlTbl.ForwardTargets(); err == nil || len(targets) > 0 {
		for _, rid := range targets {
			add(s.xmlT, []pagestore.PageID{rid.Page})
		}
	}
	return s
}

// scrubDocList enumerates the collection's documents from both the DocID
// index and the NodeID index (tolerantly — either may be damaged), sorted.
func (c *Collection) scrubDocList() []xml.DocID {
	set := map[xml.DocID]bool{}
	_ = c.docIx.Scan(nil, nil, func(e btree.Entry) bool {
		if len(e.Key) == 8 {
			set[xml.DocID(binary.BigEndian.Uint64(e.Key))] = true
		}
		return true
	})
	_ = c.nodeIx.Tree().Scan(nil, nil, func(e btree.Entry) bool {
		if len(e.Key) >= 8 {
			set[xml.DocID(binary.BigEndian.Uint64(e.Key))] = true
		}
		return true
	})
	out := make([]xml.DocID, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
