package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"rx/internal/lock"
	"rx/internal/nodeid"
	"rx/internal/pagestore"
	"rx/internal/tokens"
	"rx/internal/vsax"
	"rx/internal/wal"
	"rx/internal/xml"
)

// Transactions: document-level ACID on top of the shared infrastructure.
// Physical redo comes for free from the buffer pool's WAL hook; this file
// adds logical operation records with engine-level inverses (ARIES-style
// logical undo) and two-phase document locking via the lock manager (§5.1).
//
// Undo ordering invariant: every operation logs its logical undo record
// BEFORE mutating any page. The log is flushed sequentially, and a mid-
// operation flush (an eviction's WAL-before-data flush, or another
// transaction's commit) can make a prefix of the log durable at any record
// boundary — if the undo record trailed the operation's page deltas, a crash
// inside that window would redo uncommitted effects that recovery has no
// record to compensate. Logging undo first means any durable prefix that
// contains an operation's deltas also contains its undo record; compensation
// in turn tolerates partially-applied operations (the durable prefix may end
// mid-operation), see compensate.

// Txn is an open transaction.
type Txn struct {
	db   *DB
	id   uint64
	lk   *lock.Txn
	undo []logicalOp
	done bool
}

// logicalOp is the JSON-encoded logical record and its inverse description.
type logicalOp struct {
	Kind string // "insert", "delete", "update-text", "insert-frag", "delete-subtree"
	Col  string
	Doc  xml.DocID
	// Node is the target node (hex).
	Node string
	// Data carries the op-specific undo payload: the document token stream
	// (delete), the old text value (update-text), or the subtree's token
	// stream (delete-subtree).
	Data []byte
	// Anchor/Pos describe where a deleted subtree is re-inserted on undo.
	Anchor string
	Pos    Position
	// Stream is the full pre-operation document token stream, captured for
	// in-place mutations of non-versioned collections. Physical redo of a
	// torn log tail can leave an operation half-applied, beyond what a
	// targeted inverse can repair; compensation then rebuilds the document
	// from this snapshot instead.
	Stream []byte
}

// Begin starts a transaction.
func (db *DB) Begin() *Txn {
	t := &Txn{db: db, id: db.txnSeq.Add(1), lk: db.locks.Begin()}
	if db.log != nil {
		db.log.Begin(t.id)
	}
	return t
}

func (t *Txn) record(op logicalOp) error {
	t.undo = append(t.undo, op)
	if t.db.log != nil {
		payload, err := json.Marshal(op)
		if err != nil {
			return err
		}
		t.db.log.Logical(t.id, payload)
	}
	return nil
}

// Insert stores a document under an X document lock: a batch of one.
func (t *Txn) Insert(col *Collection, doc []byte) (xml.DocID, error) {
	ids, err := t.InsertBatch(col, [][]byte{doc}, BatchOptions{})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// InsertBatch stores documents under X document locks and returns their
// DocIDs in input order. It is the one transactional owner of the ingest
// pipeline (bulk.go): DocIDs are reserved, and every document's undo record
// logged, before the first page effect.
func (t *Txn) InsertBatch(col *Collection, docs [][]byte, opts BatchOptions) ([]xml.DocID, error) {
	ids, err := t.insertBatch(col, docs, opts)
	t.db.noteWriteErr(err)
	return ids, err
}

func (t *Txn) insertBatch(col *Collection, docs [][]byte, opts BatchOptions) ([]xml.DocID, error) {
	if t.done {
		return nil, errTxnDone
	}
	if len(docs) == 0 {
		return nil, nil
	}
	if err := t.db.checkWritable(); err != nil {
		return nil, err
	}
	// Stage first: a malformed document must not burn an ID or log anything.
	st, err := col.stage(docs, opts, false)
	if err != nil {
		return nil, err
	}
	defer st.release()
	// The collection intention lock can wait on a transactional query's S
	// lock, so it is taken before writeMu; the document locks below are on
	// IDs nobody else has seen yet.
	if err := t.lk.Lock(lock.CollectionRes(col.Name()), lock.IX); err != nil {
		return nil, err
	}
	col.writeMu.Lock()
	defer col.writeMu.Unlock()
	// An ID reserved but never used is just a gap in the sequence.
	ids := make([]xml.DocID, len(docs))
	for i := range ids {
		if ids[i], err = t.db.cat.AllocDocID(col.meta); err != nil {
			return nil, err
		}
	}
	for _, id := range ids {
		if err := t.lk.LockDoc(col.Name(), id, lock.X); err != nil {
			return nil, err
		}
		if err := t.record(logicalOp{Kind: "insert", Col: col.Name(), Doc: id}); err != nil {
			return nil, err
		}
	}
	if err := col.ingestLocked(ids, st); err != nil {
		return nil, err
	}
	return ids, nil
}

// Delete removes a document under an X lock, capturing its content for undo
// before the deletion runs.
func (t *Txn) Delete(col *Collection, doc xml.DocID) error {
	err := t.deleteDoc(col, doc)
	t.db.noteWriteErr(err)
	return err
}

func (t *Txn) deleteDoc(col *Collection, doc xml.DocID) error {
	if t.done {
		return errTxnDone
	}
	if err := t.db.checkWritable(); err != nil {
		return err
	}
	if err := t.lk.LockDoc(col.Name(), doc, lock.X); err != nil {
		return err
	}
	stream, err := col.DocStream(doc)
	if err != nil {
		return err
	}
	if err := t.record(logicalOp{Kind: "delete", Col: col.Name(), Doc: doc, Data: stream}); err != nil {
		return err
	}
	col.writeMu.Lock()
	defer col.writeMu.Unlock()
	return col.removeDoc(doc, nil)
}

// UpdateText updates a text or attribute node under an X document lock.
func (t *Txn) UpdateText(col *Collection, doc xml.DocID, id nodeid.ID, newValue []byte) error {
	_, err := t.edit(col, editReq{kind: editUpdateText, doc: doc, id: id, data: newValue})
	return err
}

// InsertFragment inserts a fragment under an X document lock and returns the
// new node's ID.
func (t *Txn) InsertFragment(col *Collection, doc xml.DocID, anchor nodeid.ID, pos Position, fragment []byte) (nodeid.ID, error) {
	return t.edit(col, editReq{kind: editInsert, doc: doc, id: anchor, pos: pos, data: fragment})
}

// DeleteSubtree deletes a subtree under an X document lock. (Undo restores
// content; the restored nodes get fresh IDs, which no committed state can
// have observed.)
func (t *Txn) DeleteSubtree(col *Collection, doc xml.DocID, id nodeid.ID) error {
	_, err := t.edit(col, editReq{kind: editDelete, doc: doc, id: id})
	return err
}

// edit is the transactional owner of the edit pipeline (edit.go): the X
// document lock, then plan, the undo record, apply. A request the plan
// rejects logs nothing, so compensation never meets a doomed operation.
func (t *Txn) edit(col *Collection, req editReq) (id nodeid.ID, err error) {
	defer func() { t.db.noteWriteErr(err) }()
	if t.done {
		return nil, errTxnDone
	}
	if err := t.db.checkWritable(); err != nil {
		return nil, err
	}
	if err := t.lk.LockDoc(col.Name(), req.doc, lock.X); err != nil {
		return nil, err
	}
	return col.edit(req, t.record)
}

// Serialize reads a document under an S lock (repeatable read at document
// granularity).
func (t *Txn) Serialize(col *Collection, doc xml.DocID, w *bytes.Buffer) error {
	if t.done {
		return errTxnDone
	}
	if err := t.lk.LockDoc(col.Name(), doc, lock.S); err != nil {
		return err
	}
	return col.Serialize(doc, w)
}

// Cursor opens a streaming cursor under an S collection lock. The lock is
// held until the transaction finishes (two-phase locking), not until the
// cursor closes, so the result set stays stable for the transaction's
// lifetime.
func (t *Txn) Cursor(col *Collection, expr string, opts QueryOptions) (*Cursor, error) {
	if t.done {
		return nil, errTxnDone
	}
	if err := t.lk.Lock(lock.CollectionRes(col.Name()), lock.S); err != nil {
		return nil, err
	}
	return col.Cursor(expr, opts)
}

// Commit makes the transaction durable and releases its locks. A commit
// whose log flush fails (a full device, a dying disk) is NOT left in limbo:
// the transaction's effects are compensated in-process before the locks are
// released, so the caller observes a clean rollback with the typed error.
// The WAL's durable watermark was already rolled back by the failed flush,
// so no acknowledgement can ever run ahead of the bytes that never landed;
// the pending tail then holds [Commit(T), compensation deltas, Abort(T)],
// which redo resolves to the rolled-back state after any later successful
// flush. A crash before that reflush leaves a torn tail that recovery treats
// as a loser — the same rolled-back outcome by the logical-undo route.
func (t *Txn) Commit() error {
	if t.done {
		return errTxnDone
	}
	t.done = true
	defer t.lk.ReleaseAll()
	if t.db.log != nil {
		if _, err := t.db.log.Commit(t.id); err != nil {
			t.db.noteWriteErr(err)
			for i := len(t.undo) - 1; i >= 0; i-- {
				if cerr := t.db.compensate(t.undo[i]); cerr != nil {
					// The in-process rollback hit the same wall (usually an
					// eviction's write-ahead flush on the full device). Park
					// the unapplied undo as compensation debt; the engine is
					// read-only until TryRecoverWritable replays it.
					t.db.deferCompensation(t.undo[:i+1], cerr)
					return fmt.Errorf("core: commit txn %d failed (%v); undo deferred to recovery: %w", t.id, err, cerr)
				}
			}
			// Best effort: on a full device the abort record may not fit
			// either; recovery then classifies the transaction by its torn
			// tail, with the same rolled-back outcome.
			_, _ = t.db.log.Abort(t.id)
			return fmt.Errorf("core: commit txn %d rolled back: %w", t.id, err)
		}
	}
	return nil
}

// Rollback compensates the transaction's operations in reverse order and
// releases its locks.
func (t *Txn) Rollback() error {
	if t.done {
		return errTxnDone
	}
	t.done = true
	defer t.lk.ReleaseAll()
	for i := len(t.undo) - 1; i >= 0; i-- {
		if err := t.db.compensate(t.undo[i]); err != nil {
			t.db.deferCompensation(t.undo[:i+1], err)
			return fmt.Errorf("core: rollback txn %d: undo deferred to recovery: %w", t.id, err)
		}
	}
	if t.db.log != nil {
		if _, err := t.db.log.Abort(t.id); err != nil {
			t.db.noteWriteErr(err)
			return err
		}
	}
	return nil
}

var errTxnDone = fmt.Errorf("core: transaction already finished")

// compensate runs the inverse of one logical operation. Because undo records
// are logged before their operations execute, the durable log may end
// anywhere inside an operation — compensation therefore tolerates the
// never-applied and partially-applied states a crash can leave behind.
func (db *DB) compensate(op logicalOp) error {
	col, err := db.Collection(op.Col)
	if err != nil {
		return err
	}
	switch op.Kind {
	case "insert":
		// The insert may have applied fully, partially, or not at all;
		// remove whatever of the document exists.
		col.writeMu.Lock()
		defer col.writeMu.Unlock()
		return col.removeDoc(op.Doc, nil)
	case "delete":
		// Clear any partial remains of the delete first, then restore the
		// captured content under the same DocID.
		return col.restoreDoc(op.Doc, op.Data)
	case "update-text", "insert-frag", "delete-subtree":
		if len(op.Stream) > 0 {
			return col.restoreDoc(op.Doc, op.Stream)
		}
		// The targeted inverse is itself an edit.
		id, err := nodeid.Parse(op.Node)
		if err != nil {
			return err
		}
		req := editReq{doc: op.Doc, id: id}
		switch op.Kind {
		case "update-text":
			req.kind, req.data = editUpdateText, op.Data
		case "insert-frag":
			req.kind = editDelete
		case "delete-subtree":
			if _, _, err := col.NodeKind(op.Doc, id); err == nil {
				return nil // the deletion never (durably) applied
			}
			if req.id, err = nodeid.Parse(op.Anchor); err != nil {
				return err
			}
			req.kind, req.pos, req.data, req.tokenized = editInsert, op.Pos, op.Data, true
		}
		_, err = col.edit(req, nil)
		if errors.Is(err, ErrNotFound) && req.kind != editInsert {
			// The update or insertion never (durably) applied, or the
			// enclosing document is already compensated away (a loser that
			// inserted it and then edited it).
			return nil
		}
		return err
	default:
		return fmt.Errorf("core: unknown logical op %q", op.Kind)
	}
}

// undoSnapshot captures the pre-operation document state for full-state
// compensation. Versioned collections return nil: their in-place mutations
// build a new version and flip the current-version pointer, so compensation
// keeps the targeted inverse (a snapshot restore would erase history).
func (c *Collection) undoSnapshot(doc xml.DocID) ([]byte, error) {
	if c.meta.Versioned {
		return nil, nil
	}
	return c.DocStream(doc)
}

// restoreDoc rebuilds a document from a captured token stream: removeDoc,
// with the stream as the prior state whose value keys may linger, then ingest
// under the same DocID. Unlike a targeted inverse it is safe against any
// partially-applied state: redo of a log whose tail was torn mid-operation
// can replay an arbitrary record-boundary prefix of the operation's page
// deltas, leaving cross-structure links (NodeID index, value keys, record
// chains) out of step with each other.
func (c *Collection) restoreDoc(doc xml.DocID, stream []byte) error {
	st, err := c.stage([][]byte{stream}, BatchOptions{}, true)
	if err != nil {
		return err
	}
	defer st.release()
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if err := c.removeDoc(doc, stream); err != nil {
		return err
	}
	return c.ingestLocked([]xml.DocID{doc}, st)
}

// DocStream re-encodes a stored document as a buffered token stream (used
// for undo capture and for feeding other pipeline stages).
func (c *Collection) DocStream(doc xml.DocID) ([]byte, error) {
	return c.docStream(doc, nil)
}

// docStream is DocStream; with lost non-nil, subtrees whose records cannot be
// fetched are left out and counted instead of failing the capture (salvage).
func (c *Collection) docStream(doc xml.DocID, lost *int) ([]byte, error) {
	r, err := c.reader(doc)
	if err != nil {
		return nil, err
	}
	w := tokens.NewWriter(4096)
	if err := r.walkDoc(&vsax.TokenSink{W: w}, lost); err != nil {
		return nil, err
	}
	return append([]byte(nil), w.Bytes()...), nil
}

// Checkpoint flushes all pages and writes a checkpoint record, bounding
// redo work after a crash.
func (db *DB) Checkpoint() error {
	if err := db.pool.FlushAll(); err != nil {
		db.noteWriteErr(err)
		return err
	}
	if db.log != nil {
		if _, err := db.log.Checkpoint(); err != nil {
			db.noteWriteErr(err)
			return err
		}
	}
	return nil
}

// Recover performs crash recovery: physical redo of the WAL against the
// store, then logical compensation of loser transactions, then a fresh
// checkpoint. It returns the opened database, its maintenance loop started
// only after all of that.
func Recover(store pagestore.Store, log *wal.Log, opts Options) (*DB, error) {
	res, err := wal.Recover(log, store)
	if err != nil {
		return nil, err
	}
	opts.WAL = log
	db, err := open(store, opts)
	if err != nil {
		return nil, err
	}
	// Compensate losers newest first, each one's logical ops in reverse
	// order: the same crash image always recovers to the same bytes.
	for i := len(res.Losers) - 1; i >= 0; i-- {
		txn, ops := res.Losers[i].Txn, res.Losers[i].Ops
		for j := len(ops) - 1; j >= 0; j-- {
			var op logicalOp
			if err := json.Unmarshal(ops[j], &op); err != nil {
				return nil, fmt.Errorf("core: recovery txn %d: %v", txn, err)
			}
			if err := db.compensate(op); err != nil {
				return nil, fmt.Errorf("core: recovery compensation txn %d (%s %s/%d): %w", txn, op.Kind, op.Col, op.Doc, err)
			}
		}
		if _, err := log.Abort(txn); err != nil {
			return nil, err
		}
	}
	if err := db.Checkpoint(); err != nil {
		return nil, err
	}
	db.startMaintenance(opts)
	return db, nil
}
