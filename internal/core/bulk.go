package core

// Document ingest: the one insert pipeline of §3.2 / Figure 4. Every entry
// point — Txn.InsertBatch and, through it, Txn.Insert and the session layer;
// compensation's restoreDoc — runs the same two stages:
//
//   - tokenize: parse (or schema-validate) every document into a buffered
//     token stream on one pooled parse arena, before anything mutates, so a
//     bad document rejects the call without burning a DocID;
//   - ingestLocked: four passes under writeMu — (1) shred each stream to
//     packed heap records, accumulating the NodeID-index entries they
//     produce; (2) insert those entries in key order; (3) base rows and the
//     DocID index; (4) per value index, one streaming key-generation pass per
//     document, each match's RID taken from pass 1's sorted intervals (no
//     NodeID-index probe), keys sorted, inserted in order. Every pass hands
//     its sorted run to btree's PutSorted, which writes a leaf at a time: one
//     descent, one page diff and one WAL record per leaf visit, not per key,
//     whether the call carries one document or ten thousand.
//
// Atomicity is the transaction's, not the pipeline's: Txn.InsertBatch logs
// each document's logical undo record before ingestLocked touches a page, so
// a crash mid-ingest makes the transaction a loser that recovery removes, and
// an in-process error is undone by Txn.Rollback the same way. One commit —
// one device sync — covers the whole call.

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"rx/internal/arena"
	"rx/internal/btree"
	"rx/internal/heap"
	"rx/internal/memgov"
	"rx/internal/nodeid"
	"rx/internal/nodeindex"
	"rx/internal/pack"
	"rx/internal/quickxscan"
	"rx/internal/valueindex"
	"rx/internal/xml"
	"rx/internal/xmlparse"
	"rx/internal/xmlschema"
)

// BatchOptions configures InsertBatch.
type BatchOptions struct {
	// Schema, when non-empty, validates every document against the named
	// registered schema (storing typed token streams) instead of plain
	// parsing.
	Schema string
	// Mem, when non-nil, charges the batch's staging memory (parse arena,
	// ingest arena) against a budget; a breach fails the batch with
	// rxerr.ErrOverBudget before any page effects (parse) or after some
	// (ingest), which the transaction's rollback then removes.
	Mem *memgov.Budget
}

// parseArenas recycles parse arenas across ingest calls so the steady state
// allocates no fresh chunks. Parsing runs outside writeMu, so these cannot
// share the writeMu-guarded ingest arena; a Pool keeps them safe under
// concurrent inserts.
var parseArenas = sync.Pool{New: func() any { return arena.New() }}

// tokenized is tokenize's result: the token streams plus the staging they
// live on, held until release.
type tokenized struct {
	streams [][]byte
	pa      *arena.Arena
	mem     *memgov.Budget
	charged int64
}

// release recycles the parse arena (invalidating the streams) and returns
// its budget charge.
func (tk *tokenized) release() {
	tk.pa.Reset()
	parseArenas.Put(tk.pa)
	tk.mem.Release(tk.charged)
}

// tokenize turns documents into buffered token streams — Figure 4's single
// parse-or-validate fork. All streams live on one pooled parse arena until
// release (ingest re-scans them for value-index keys), then the lot resets at
// once. The arena's chunks are the call's first real staging allocation,
// charged against opts.Mem as they grow: a document set too big for the
// budget dies here, before any DocID is burned or page touched. On error
// everything is already released.
func (c *Collection) tokenize(docs [][]byte, opts BatchOptions) (tokenized, error) {
	var sch *xmlschema.Schema
	if opts.Schema != "" {
		var err error
		if sch, err = c.db.compiledSchema(opts.Schema); err != nil {
			return tokenized{}, err
		}
	}
	tk := tokenized{
		streams: make([][]byte, len(docs)),
		pa:      parseArenas.Get().(*arena.Arena),
		mem:     opts.Mem,
	}
	for i, doc := range docs {
		var err error
		if sch != nil {
			tk.streams[i], err = xmlschema.Validate(doc, sch, c.db.cat)
		} else {
			tk.streams[i], err = xmlparse.Parse(doc, c.db.cat, xmlparse.Options{Arena: tk.pa})
		}
		if err != nil {
			if len(docs) > 1 {
				err = fmt.Errorf("core: batch document %d: %w", i, err)
			}
		} else if grown := int64(tk.pa.Footprint()) - tk.charged; grown > 0 {
			if err = tk.mem.Reserve(grown); err == nil {
				tk.charged += grown
			}
		}
		if err != nil {
			tk.release()
			return tokenized{}, err
		}
	}
	return tk, nil
}

// nodeEntry is one deferred NodeID-index insertion.
type nodeEntry struct {
	doc   xml.DocID
	upper nodeid.ID
	rid   heap.RID
}

// docIntervals returns doc's entries of ns, which is sorted by (doc, upper).
func docIntervals(ns []nodeEntry, doc xml.DocID) []nodeEntry {
	byDoc := func(e nodeEntry, d xml.DocID) int { return cmp.Compare(e.doc, d) }
	lo, _ := slices.BinarySearchFunc(ns, doc, byDoc)
	hi, _ := slices.BinarySearchFunc(ns[lo:], doc+1, byDoc)
	return ns[lo : lo+hi]
}

// ingestLocked stores token streams under their pre-allocated DocIDs (ids
// ascend), charging ingest staging against mem (nil = ungoverned). Caller
// holds writeMu and owns atomicity: an error may leave the documents
// partially stored, for Txn.Rollback / recovery (removeDoc) to clear.
func (c *Collection) ingestLocked(ids []xml.DocID, streams [][]byte, mem *memgov.Budget) error {
	// Packing and key scratch for the whole call comes from the ingest arena,
	// reset once at the end: the interval endpoints accumulated in nodeScratch
	// (pass 1) and the index entries assembled in passes 2–4 stay valid until
	// then, by which time pages and index entries own their own copies. The
	// arena is the call's other staging ground beside the parse arena; its
	// growth is charged against the budget at the pass boundaries where it
	// grows.
	a := c.ingestArena()
	defer a.Reset()
	foot := int64(a.Footprint())
	var charged int64
	defer func() { mem.Release(charged) }()
	chargeIngest := func() error {
		if now := int64(a.Footprint()); now > foot {
			if err := mem.Reserve(now - foot); err != nil {
				return err
			}
			charged += now - foot
			foot = now
		}
		return nil
	}

	// Pass 1 — shred: heap records are inserted document by document (the
	// packer emits them bottom-up, §3.2), while the NodeID-index entries
	// they produce are only accumulated.
	c.nodeScratch = c.nodeScratch[:0]
	var docID xml.DocID
	var docBytes, totalBytes, maxBytes, records int64
	shred := func(rec pack.EncodedRecord) error {
		docBytes += int64(len(rec.Payload))
		records++
		rid, err := c.xmlTbl.Insert(xmlRow(docID, rec.MinNodeID, rec.Payload))
		if err != nil {
			return err
		}
		for _, upper := range rec.Intervals {
			c.nodeScratch = append(c.nodeScratch, nodeEntry{doc: docID, upper: upper, rid: rid})
		}
		return nil
	}
	for i, stream := range streams {
		docID, docBytes = ids[i], 0
		if err := pack.PackStreamArena(stream, c.packThreshold(), a, shred); err != nil {
			return err
		}
		totalBytes += docBytes
		maxBytes = max(maxBytes, docBytes)
	}
	if err := chargeIngest(); err != nil {
		return err
	}

	// Pass 2 — NodeID index, in key order: (DocID, NodeID) sorts exactly
	// like the tree's composite keys, so the run enters the B+tree a leaf at
	// a time. The sorted list also serves pass 4's RID lookups.
	slices.SortFunc(c.nodeScratch, func(x, y nodeEntry) int {
		if x.doc != y.doc {
			return cmp.Compare(x.doc, y.doc)
		}
		return bytes.Compare(x.upper, y.upper)
	})
	ents := c.entScratch[:0]
	defer func() { c.entScratch = ents[:0] }()
	for _, e := range c.nodeScratch {
		var key []byte
		if c.meta.Versioned {
			key = nodeindex.AppendVKey(a.Make(16+len(e.upper)), e.doc, 1, e.upper)
		} else {
			key = nodeindex.AppendKey(a.Make(8+len(e.upper)), e.doc, e.upper)
		}
		ents = append(ents, btree.Entry{Key: key, Value: e.rid.Append(a.Make(6))})
	}
	if err := c.nodeIx.Tree().PutSorted(ents); err != nil {
		return err
	}

	// Pass 3 — base rows (the implicit DocID column, plus the current version
	// for versioned collections), then the DocID index; IDs ascend, so its
	// entries are in key order already.
	ents = ents[:0]
	for _, id := range ids {
		baseRID, err := c.base.Insert(c.baseRow(id, 1))
		if err != nil {
			return err
		}
		key := binary.BigEndian.AppendUint64(a.Make(8), uint64(id))
		ents = append(ents, btree.Entry{Key: key, Value: baseRID.Append(a.Make(6))})
	}
	if err := c.docIx.PutSorted(ents); err != nil {
		return err
	}

	// Pass 4 — value indexes (§3.3): one streaming key-generation pass per
	// document per index, keys sorted, inserted a leaf at a time. A match's
	// RID comes from the document's slice of the sorted interval list — the
	// successor search a NodeID-index lookup would make (§3.4), without the
	// probe.
	var ixEntries map[string]int64
	for _, ov := range c.valIxs {
		ents = ents[:0]
		for i, stream := range streams {
			matches, err := quickxscan.EvalTokens(ov.keygen, stream)
			if err != nil {
				return err
			}
			// Before any of this index's puts below.
			if err := c.noteMatches(ov, len(matches)); err != nil {
				return err
			}
			ivs := docIntervals(c.nodeScratch, ids[i])
			for _, m := range matches {
				j, _ := slices.BinarySearchFunc(ivs, m.ID, func(e nodeEntry, id nodeid.ID) int {
					return bytes.Compare(e.upper, id)
				})
				if j == len(ivs) {
					return fmt.Errorf("%w: doc %d node %s", nodeindex.ErrNotFound, ids[i], m.ID)
				}
				enc, err := valueindex.EncodeTypedInto(a.Make(2*len(m.Value)+18), ov.ix.Type(), m.Value)
				if err != nil {
					if errors.Is(err, valueindex.ErrNotIndexable) {
						continue
					}
					return err
				}
				key := valueindex.AppendEntryKey(a.Make(len(enc)+8+len(m.ID)), enc, ids[i], m.ID)
				ents = append(ents, btree.Entry{Key: key, Value: ivs[j].rid.Append(a.Make(6))})
			}
		}
		slices.SortFunc(ents, func(x, y btree.Entry) int { return bytes.Compare(x.Key, y.Key) })
		if err := ov.ix.Tree().PutSorted(ents); err != nil {
			return err
		}
		if len(ents) > 0 {
			if ixEntries == nil {
				ixEntries = map[string]int64{}
			}
			ixEntries[ov.meta.Name] += int64(len(ents))
		}
	}
	if err := chargeIngest(); err != nil {
		return err
	}
	c.noteIngest(totalBytes, maxBytes, records, streams, ixEntries)
	return nil
}
