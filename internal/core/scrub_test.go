package core

// Scrub → quarantine → repair end-to-end tests. Each corruption class is
// injected into the physical store underneath a checksummed stack, then the
// subsystem must walk the whole arc: the scrubber detects and quarantines
// exactly the damaged documents, degraded queries keep serving the healthy
// ones, repair restores the collection to a clean VerifyPages +
// CheckConsistency, and anything lost is flagged lossy — never silently
// dropped.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"rx/internal/heap"
	"rx/internal/nodeid"
	"rx/internal/pack"
	"rx/internal/pagestore"
	"rx/internal/xml"
)

// scrubDocXML builds a multi-page document whose serialization round-trips
// byte-identically (elements and text only).
func scrubDocXML(i int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<doc><k>k%d</k>", i)
	pad := strings.Repeat(fmt.Sprintf("x%d", i), 40)
	for j := 0; j < 120; j++ {
		fmt.Fprintf(&b, "<item>%03d-%s</item>", j, pad)
	}
	b.WriteString("</doc>")
	return b.String()
}

// scrubTestDB builds a checksummed in-memory database with ndocs multi-page
// documents and one value index, flushed so the on-disk image is current.
func scrubTestDB(t testing.TB, ndocs int) (*DB, *Collection, *pagestore.MemStore, []xml.DocID, []string) {
	t.Helper()
	mem := pagestore.NewMemStore()
	db, err := Open(pagestore.NewChecksumStore(mem), Options{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	col, err := db.CreateCollection("c", CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.CreateValueIndex("kix", "/doc/k", xml.TString); err != nil {
		t.Fatal(err)
	}
	var ids []xml.DocID
	var contents []string
	for i := 0; i < ndocs; i++ {
		src := scrubDocXML(i)
		id := mustInsert(t, col, []byte(src))
		ids = append(ids, id)
		contents = append(contents, src)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	return db, col, mem, ids, contents
}

// corruptPhysical damages the physical image of a logical page behind the
// checksum layer's back, the way a failing disk would.
func corruptPhysical(t *testing.T, mem *pagestore.MemStore, logical pagestore.PageID, mode string) {
	t.Helper()
	phys := pagestore.PhysicalPage(logical)
	buf := make([]byte, pagestore.PageSize)
	if err := mem.ReadPage(phys, buf); err != nil {
		t.Fatal(err)
	}
	switch mode {
	case "bitflip":
		buf[137] ^= 0x10
	case "torn":
		for i := pagestore.PageSize / 2; i < pagestore.PageSize; i++ {
			buf[i] = byte(i*7 + 3)
		}
	case "zero":
		for i := range buf {
			buf[i] = 0
		}
	default:
		t.Fatalf("unknown corruption mode %q", mode)
	}
	if err := mem.WritePage(phys, buf); err != nil {
		t.Fatal(err)
	}
}

// docRIDs lists the distinct record RIDs of doc's NodeID-index entries, in
// first-appearance order.
func docRIDs(t *testing.T, c *Collection, doc xml.DocID) []heap.RID {
	t.Helper()
	var rids []heap.RID
	seen := map[heap.RID]bool{}
	r, err := c.reader(doc)
	if err == nil {
		err = r.entries(func(_ nodeid.ID, rid heap.RID) bool {
			if !seen[rid] {
				seen[rid] = true
				rids = append(rids, rid)
			}
			return true
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	return rids
}

// exclusiveRecordPage finds a heap page holding records of victim and of no
// other document (so quarantine attribution is exact), excluding avoid.
func exclusiveRecordPage(t *testing.T, c *Collection, victim xml.DocID, avoid map[pagestore.PageID]bool) pagestore.PageID {
	t.Helper()
	others := map[pagestore.PageID]bool{}
	for _, doc := range c.scrubDocList() {
		if doc == victim {
			continue
		}
		for _, rid := range docRIDs(t, c, doc) {
			others[rid.Page] = true
		}
	}
	for _, rid := range docRIDs(t, c, victim) {
		if !others[rid.Page] && !avoid[rid.Page] {
			return rid.Page
		}
	}
	t.Fatal("no heap page is exclusive to the victim document")
	return pagestore.InvalidPage
}

// corruptLogical damages the victim's stored structures through the engine,
// so every checksum stays valid: only a check of what the records say can
// tell.
func corruptLogical(t *testing.T, c *Collection, victim xml.DocID, mode string) {
	t.Helper()
	r, err := c.reader(victim)
	if err != nil {
		t.Fatal(err)
	}
	root, err := r.openRec(nodeid.Root)
	if err != nil {
		t.Fatal(err)
	}
	switch mode {
	case "signature":
		// The root signature loses a bit of an element the document holds.
		item, err := c.db.cat.Intern("item")
		if err != nil || root.rec.Sig&xml.SigBit(item) == 0 {
			t.Fatal("the root signature has no <item> bit to clear")
		}
		root.rec.Sig &^= xml.SigBit(item)
	case "proxy-count":
		// A proxy claims one subtree more than its run holds.
		var bump func(list []*pack.MutNode) bool
		bump = func(list []*pack.MutNode) bool {
			for _, m := range list {
				if m.Kind == xml.Proxy {
					m.ProxyCount++
					return true
				}
				if bump(m.Children) {
					return true
				}
			}
			return false
		}
		if !bump(root.tops) {
			t.Fatal("the root record holds no proxy")
		}
	case "dropped-entry":
		// The root record's first interval loses its NodeID-index entry.
		uppers, _, err := root.rec.Intervals()
		if err != nil {
			t.Fatal(err)
		}
		if len(uppers) != 2 {
			t.Fatalf("the root record has %d intervals, want 2", len(uppers))
		}
		if err := c.nodeIx.Delete(victim, uppers[0]); err != nil {
			t.Fatal(err)
		}
		return
	default:
		t.Fatalf("unknown corruption mode %q", mode)
	}
	if err := c.rewriteRecord(victim, root.rid, root.rec, root.tops); err != nil {
		t.Fatal(err)
	}
}

// TestScrubQuarantineRepairCorruptionClasses walks every corruption class
// through scrub, degraded reads and repair. The physical classes damage a
// page the victim owns alone: the scrub sees page errors, and repair loses
// that page's records. The logical classes keep every checksum valid: only
// the consistency check finds them, and repair restores the document
// exactly.
func TestScrubQuarantineRepairCorruptionClasses(t *testing.T) {
	for _, tc := range []struct {
		mode       string
		pageErrors bool // the scrub's page scan fails pages
		lossy      bool // repair loses content and flags the victim
	}{
		{"bitflip", true, true},
		{"torn", true, true},
		{"zero", true, true},
		{"signature", false, false},
		{"proxy-count", false, false},
		{"dropped-entry", false, false},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			db, col, mem, ids, contents := scrubTestDB(t, 6)
			defer db.Close()
			victim := ids[2]
			if tc.pageErrors {
				rootRID, err := col.nodeIx.RootRID(victim)
				if err != nil {
					t.Fatal(err)
				}
				page := exclusiveRecordPage(t, col, victim,
					map[pagestore.PageID]bool{rootRID.Page: true})
				corruptPhysical(t, mem, page, tc.mode)
			} else {
				corruptLogical(t, col, victim, tc.mode)
			}

			// Scrub detects and quarantines exactly the victim.
			rep, err := db.ScrubPass(nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(rep.PageErrors) > 0; got != tc.pageErrors {
				t.Fatalf("scrub found page errors: %v, want %v (%v)", got, tc.pageErrors, rep.PageErrors)
			}
			if _, ok := db.quarantined("c", victim); !ok {
				t.Fatal("victim document not quarantined")
			}
			if got := db.Quarantined(); len(got) != 1 {
				t.Fatalf("quarantined %d documents, want exactly the victim: %v", len(got), got)
			}

			// Degraded queries skip the victim and serve the rest.
			cur, err := col.Cursor("/doc/k", QueryOptions{Degraded: true, Parallelism: 4, NeedValues: true})
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for cur.Next() {
				if cur.Result().Doc == victim {
					t.Error("degraded query returned a quarantined document")
				}
				n++
			}
			if err := cur.Err(); err != nil {
				t.Fatalf("degraded query: %v", err)
			}
			if n != len(ids)-1 {
				t.Fatalf("degraded query returned %d results, want %d", n, len(ids)-1)
			}
			if cur.Skipped() != 1 {
				t.Fatalf("Skipped() = %d, want 1", cur.Skipped())
			}
			cur.Close()

			// Non-degraded queries surface the typed error instead.
			cur2, err := col.Cursor("/doc/k", QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for cur2.Next() {
			}
			var qe ErrQuarantined
			if !errors.As(cur2.Err(), &qe) || qe.Doc != victim || qe.Col != "c" {
				t.Fatalf("non-degraded query error = %v, want ErrQuarantined for doc %d", cur2.Err(), victim)
			}
			cur2.Close()

			// Unaffected documents read back exactly.
			var buf bytes.Buffer
			if err := col.Serialize(ids[0], &buf); err != nil {
				t.Fatalf("healthy doc unreadable: %v", err)
			}
			if buf.String() != contents[0] {
				t.Fatal("healthy doc content changed")
			}

			// Repair: clean pages, consistent structures, empty registry.
			rrep, err := db.Repair(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !rrep.Clean {
				t.Fatalf("repair did not converge: %+v", rrep)
			}
			if err := db.VerifyPages(); err != nil {
				t.Fatalf("VerifyPages after repair: %v", err)
			}
			if err := col.CheckConsistency(); err != nil {
				t.Fatalf("CheckConsistency after repair: %v", err)
			}
			if q := db.Quarantined(); len(q) != 0 {
				t.Fatalf("registry not empty after repair: %v", q)
			}

			// The victim survives: lossy when records were lost, never
			// dropped; exact when they were not.
			buf.Reset()
			if err := col.Serialize(victim, &buf); err != nil {
				t.Fatalf("repaired doc unreadable: %v", err)
			}
			lossy := db.LossyDocs()
			found := false
			for _, l := range lossy {
				if l.Doc == victim {
					found = true
				}
			}
			if found != tc.lossy {
				t.Fatalf("victim flagged lossy: %v, want %v (%v)", found, tc.lossy, lossy)
			}
			if !tc.lossy && buf.String() != contents[2] {
				t.Fatalf("repaired victim differs from the original (%d bytes, want %d)", buf.Len(), len(contents[2]))
			}

			// Counters moved.
			s := db.Stats()
			if s.ScrubPasses == 0 || s.PagesVerified == 0 || s.DocsQuarantined == 0 || s.DocsRepaired == 0 ||
				(s.CorruptionsFound > 0) != tc.pageErrors || (s.DocsLossy > 0) != tc.lossy {
				t.Fatalf("stats counters: %+v", s)
			}
			if s.QuarantinedNow != 0 {
				t.Fatalf("QuarantinedNow = %d after repair", s.QuarantinedNow)
			}

			// A fresh scrub pass agrees the store is clean.
			rep2, err := db.ScrubPass(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !rep2.Clean() {
				t.Fatalf("post-repair scrub not clean: %+v", rep2)
			}
		})
	}
}

// TestScrubSkipsDocDeletedMidPass: a document deleted after the pass listed
// it is in neither index once the pass takes its lock. The pass skips it —
// it is not damage — and repair has nothing to bring back; nor does it for
// a quarantined document deleted before the repair.
func TestScrubSkipsDocDeletedMidPass(t *testing.T) {
	db, col, _, ids, _ := scrubTestDB(t, 4)
	defer db.Close()
	victim, quarantined := ids[1], ids[3]
	firstDoc := int(db.store.NumPages()) + 1 // the page scan calls the hook once per page
	calls := 0
	rep, err := db.ScrubPass(func() {
		if calls++; calls == firstDoc {
			if err := db.RunTxn(func(tx *Txn) error { return tx.Delete(col, victim) }); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if col.Has(victim) {
		t.Fatalf("the hook never deleted the victim (%d calls)", calls)
	}
	if len(rep.NewQuarantined) != 0 || len(db.Quarantined()) != 0 {
		t.Fatalf("a document deleted mid-pass was quarantined: %v", db.Quarantined())
	}
	db.Quarantine("c", quarantined, "test", pagestore.InvalidPage)
	if err := db.RunTxn(func(tx *Txn) error { return tx.Delete(col, quarantined) }); err != nil {
		t.Fatal(err)
	}
	rrep, err := db.Repair(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rrep.Remaining) != 0 {
		t.Fatalf("still quarantined after repair: %v", rrep.Remaining)
	}
	for _, doc := range []xml.DocID{victim, quarantined} {
		if col.Has(doc) {
			t.Fatalf("repair brought deleted doc %d back", doc)
		}
		var buf bytes.Buffer
		if err := col.Serialize(doc, &buf); err == nil {
			t.Fatalf("deleted doc %d serializes: %q", doc, buf.String())
		}
	}
}

func TestRepairRootLossKeepsPlaceholder(t *testing.T) {
	db, col, mem, ids, _ := scrubTestDB(t, 6)
	defer db.Close()
	victim := ids[3]
	rootRID, err := col.nodeIx.RootRID(victim)
	if err != nil {
		t.Fatal(err)
	}
	corruptPhysical(t, mem, rootRID.Page, "zero")

	if _, err := db.ScrubPass(nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.quarantined("c", victim); !ok {
		t.Fatal("victim not quarantined after root-page loss")
	}
	rep, err := db.Repair(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("repair did not converge: %+v", rep)
	}
	var buf bytes.Buffer
	if err := col.Serialize(victim, &buf); err != nil {
		t.Fatalf("victim dropped instead of salvaged: %v", err)
	}
	if !strings.Contains(buf.String(), "lost-document") {
		t.Fatalf("root-lost doc serialized as %q, want placeholder", buf.String())
	}
	foundLossy := false
	for _, l := range db.LossyDocs() {
		if l.Doc == victim {
			foundLossy = true
		}
	}
	if !foundLossy {
		t.Fatal("root-lost doc not flagged lossy")
	}
	if err := col.CheckConsistency(); err != nil {
		t.Fatalf("CheckConsistency: %v", err)
	}
	if err := db.VerifyPages(); err != nil {
		t.Fatalf("VerifyPages: %v", err)
	}
}

// pickTreePage returns a non-meta page of the tree to damage.
func pickTreePage(t *testing.T, pages []pagestore.PageID, meta pagestore.PageID) pagestore.PageID {
	t.Helper()
	for _, p := range pages {
		if p != meta {
			return p
		}
	}
	t.Fatal("tree has no non-meta page")
	return pagestore.InvalidPage
}

func TestRepairRebuildsNodeIndex(t *testing.T) {
	db, col, mem, ids, contents := scrubTestDB(t, 4)
	defer db.Close()
	pages, err := col.nodeIx.Tree().Pages()
	if err != nil {
		t.Fatal(err)
	}
	corruptPhysical(t, mem, pickTreePage(t, pages, col.nodeIx.MetaPage()), "torn")

	rep, err := db.ScrubPass(nil)
	if err != nil {
		t.Fatal(err)
	}
	flagged := false
	for _, sr := range rep.CorruptStructures {
		if sr.Kind == "nodeid-index" {
			flagged = true
		}
	}
	if !flagged {
		t.Fatalf("nodeid-index damage not attributed: %+v", rep.CorruptStructures)
	}

	rrep, err := db.Repair(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rrep.Clean {
		t.Fatalf("repair did not converge: %+v", rrep)
	}
	rebuilt := false
	for _, ix := range rrep.IndexesRebuilt {
		if strings.Contains(ix, "nodeid-index") {
			rebuilt = true
		}
	}
	if !rebuilt {
		t.Fatalf("NodeID index not rebuilt: %v", rrep.IndexesRebuilt)
	}
	// The heap was intact, so every document must come back byte-identical
	// and nothing may be lossy.
	for i, id := range ids {
		var buf bytes.Buffer
		if err := col.Serialize(id, &buf); err != nil {
			t.Fatalf("doc %d after index rebuild: %v", id, err)
		}
		if buf.String() != contents[i] {
			t.Fatalf("doc %d content changed after index rebuild", id)
		}
	}
	if l := db.LossyDocs(); len(l) != 0 {
		t.Fatalf("lossless rebuild flagged lossy docs: %v", l)
	}
	if err := col.CheckConsistency(); err != nil {
		t.Fatalf("CheckConsistency: %v", err)
	}
	if err := db.VerifyPages(); err != nil {
		t.Fatalf("VerifyPages: %v", err)
	}
}

func TestRepairRebuildsDocIndexAndBase(t *testing.T) {
	db, col, mem, ids, contents := scrubTestDB(t, 4)
	defer db.Close()
	pages, err := col.docIx.Pages()
	if err != nil {
		t.Fatal(err)
	}
	corruptPhysical(t, mem, pickTreePage(t, pages, col.docIx.MetaPage()), "zero")

	rep, err := db.ScrubPass(nil)
	if err != nil {
		t.Fatal(err)
	}
	flagged := false
	for _, sr := range rep.CorruptStructures {
		if sr.Kind == "docid-index" {
			flagged = true
		}
	}
	if !flagged {
		t.Fatalf("docid-index damage not attributed: %+v", rep.CorruptStructures)
	}
	rrep, err := db.Repair(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rrep.Clean {
		t.Fatalf("repair did not converge: %+v", rrep)
	}
	got, err := col.DocIDs()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(ids) {
		t.Fatalf("DocIDs after rebuild = %v, want %v", got, ids)
	}
	for i, id := range ids {
		var buf bytes.Buffer
		if err := col.Serialize(id, &buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != contents[i] {
			t.Fatalf("doc %d content changed", id)
		}
	}
	if err := col.CheckConsistency(); err != nil {
		t.Fatalf("CheckConsistency: %v", err)
	}
	if err := db.VerifyPages(); err != nil {
		t.Fatalf("VerifyPages: %v", err)
	}
}

func TestRepairRebuildsValueIndex(t *testing.T) {
	db, col, mem, _, _ := scrubTestDB(t, 4)
	defer db.Close()
	ov := col.indexSnapshot()[0]
	pages, err := ov.ix.Tree().Pages()
	if err != nil {
		t.Fatal(err)
	}
	corruptPhysical(t, mem, pickTreePage(t, pages, ov.ix.MetaPage()), "bitflip")

	rep, err := db.ScrubPass(nil)
	if err != nil {
		t.Fatal(err)
	}
	flagged := false
	for _, sr := range rep.CorruptStructures {
		if sr.Kind == "value-index" && sr.Name == "kix" {
			flagged = true
		}
	}
	if !flagged {
		t.Fatalf("value-index damage not attributed: %+v", rep.CorruptStructures)
	}
	rrep, err := db.Repair(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rrep.Clean {
		t.Fatalf("repair did not converge: %+v", rrep)
	}
	// CheckConsistency re-derives every value key and compares against the
	// rebuilt index — the strongest possible check of the rebuild.
	if err := col.CheckConsistency(); err != nil {
		t.Fatalf("CheckConsistency: %v", err)
	}
	if err := db.VerifyPages(); err != nil {
		t.Fatalf("VerifyPages: %v", err)
	}
}

// TestSidecarLossRepairRederives exercises the lost-sidecar recovery flow: a
// scribbled sidecar page fails a dense cluster of data pages, the database
// still opens (tolerant heap opens), and Repair's cluster heuristic
// re-derives the sidecar from the data instead of treating dozens of pages
// as independently damaged.
func TestSidecarLossRepairRederives(t *testing.T) {
	db, col, mem, ids, contents := scrubTestDB(t, 8)

	// Collect the heap record pages — pure data, not needed to open the
	// database — while it is still open.
	recPages := map[pagestore.PageID]bool{}
	for _, doc := range col.scrubDocList() {
		for _, rid := range docRIDs(t, col, doc) {
			if pagestore.SidecarPage(rid.Page) == pagestore.SidecarPage(0) {
				recPages[rid.Page] = true
			}
		}
	}
	// The cluster heuristic needs a dense failure set: 8+ pages covering at
	// least half the sidecar group.
	if len(recPages) < 8 || 2*len(recPages) < int(db.store.NumPages()) {
		t.Fatalf("workload too small for the cluster heuristic: %d record pages of %d total",
			len(recPages), db.store.NumPages())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Scribble those pages' CRC entries in the first sidecar — a partially
	// lost sidecar page. Catalog and structure-root entries stay verifiable
	// so the database still opens; the dense data-page cluster fails.
	buf := make([]byte, pagestore.PageSize)
	if err := mem.ReadPage(pagestore.SidecarPage(0), buf); err != nil {
		t.Fatal(err)
	}
	for p := range recPages {
		buf[4*int(p)] ^= 0xA5 // group 0: CRC slot index == logical page ID
	}
	if err := mem.WritePage(pagestore.SidecarPage(0), buf); err != nil {
		t.Fatal(err)
	}

	// Heap opens are tolerant, so the database still opens — the damage
	// demotes documents, not the whole store.
	db3, err := Open(pagestore.NewChecksumStore(mem), Options{PoolPages: 256})
	if err != nil {
		t.Fatalf("reopen over a lost sidecar: %v", err)
	}
	defer db3.Close()
	col3, err := db3.Collection("c")
	if err != nil {
		t.Fatal(err)
	}
	srep, err := db3.ScrubPass(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(srep.PageErrors) < 8 {
		t.Fatalf("expected a dense failure cluster, got %d page errors", len(srep.PageErrors))
	}

	// Repair's cluster heuristic implicates the sidecar, re-derives it, and
	// restores the quarantined documents.
	rrep, err := db3.Repair(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rrep.SidecarsRederived {
		t.Fatalf("sidecar cluster not re-derived: %+v", rrep)
	}
	if !rrep.Clean {
		t.Fatalf("repair did not converge: %+v", rrep)
	}
	rep, err := db3.ScrubPass(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("scrub after re-derivation not clean: %+v", rep)
	}
	// The data was never damaged — every document must be intact and
	// nothing lossy.
	for i, id := range ids {
		var out bytes.Buffer
		if err := col3.Serialize(id, &out); err != nil {
			t.Fatalf("doc %d after sidecar re-derivation: %v", id, err)
		}
		if out.String() != contents[i] {
			t.Fatalf("doc %d content changed after sidecar re-derivation", id)
		}
	}
	if l := db3.LossyDocs(); len(l) != 0 {
		t.Fatalf("sidecar-only damage flagged lossy docs: %v", l)
	}
	if err := col3.CheckConsistency(); err != nil {
		t.Fatalf("CheckConsistency: %v", err)
	}
	if err := db3.VerifyPages(); err != nil {
		t.Fatalf("VerifyPages: %v", err)
	}
	_ = col
}

// TestRederiveSidecarClusterHeuristic unit-tests the in-engine lost-sidecar
// heuristic: a dense checksum-failure cluster within one sidecar group
// implicates the sidecar page and triggers re-derivation; sparse failures
// (genuinely damaged data pages) must not bless the data.
func TestRederiveSidecarClusterHeuristic(t *testing.T) {
	db, _, _, _, _ := scrubTestDB(t, 4)
	defer db.Close()
	var errs []PageError
	for p := pagestore.PageID(1); p < db.store.NumPages(); p++ {
		errs = append(errs, PageError{Page: p, Err: pagestore.ErrPageChecksum{PageID: p}})
	}
	if len(errs) < 8 {
		t.Fatalf("workload too small: %d pages", len(errs))
	}

	// Sparse failures: no re-derivation, error set passed through.
	repSparse := &RepairReport{}
	out, err := db.maybeRederiveSidecars(repSparse, errs[:3], nil)
	if err != nil {
		t.Fatal(err)
	}
	if repSparse.SidecarsRederived {
		t.Fatal("3 sparse failures blessed the sidecar group")
	}
	if len(out) != 3 {
		t.Fatalf("sparse error set rewritten: %d errors", len(out))
	}

	// Dense cluster: re-derive and rescan; the data is actually fine, so
	// the rescan comes back clean.
	repDense := &RepairReport{}
	out, err = db.maybeRederiveSidecars(repDense, errs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !repDense.SidecarsRederived {
		t.Fatal("dense failure cluster did not trigger sidecar re-derivation")
	}
	if len(out) != 0 {
		t.Fatalf("rescan after re-derivation still failing: %v", out)
	}
}

// BenchmarkCheckDoc times the one per-document check — the scrubber's,
// CheckConsistency's and repair's — over a 100-document collection of
// multi-record documents (about 11.6 KB and 4 records each).
func BenchmarkCheckDoc(b *testing.B) {
	db, col, _, ids, _ := scrubTestDB(b, 100)
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := col.checkDoc(ids[i%len(ids)], nil); f.reason != "" {
			b.Fatal(f.reason)
		}
	}
}

// BenchmarkScrubPass times an unthrottled scrub pass over 400 such
// documents: the page scan, then checkDoc under each document's S lock.
func BenchmarkScrubPass(b *testing.B) {
	db, _, _, _, _ := scrubTestDB(b, 400)
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := db.ScrubPass(nil)
		if err != nil || !rep.Clean() {
			b.Fatalf("scrub pass: %+v, %v", rep, err)
		}
	}
}
