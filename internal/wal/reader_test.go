package wal

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"rx/internal/buffer"
	"rx/internal/pagestore"
)

// TestRecoverStreams: recovery reads the log through one buffer and decodes
// each record in place, so what it allocates does not grow with the log. A
// reader that loads every record allocates at least the log's size.
func TestRecoverStreams(t *testing.T) {
	const bound = 4 << 20
	for _, mib := range []int{32, 64} {
		dev := &MemDevice{buf: make([]byte, 0, mib<<20+1<<20)}
		log, err := Open(dev)
		if err != nil {
			t.Fatal(err)
		}
		store := pagestore.NewMemStore()
		for i := 0; i < 4; i++ {
			store.Allocate()
		}
		if _, err := log.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		after := bytes.Repeat([]byte{7}, 4000)
		deltas := 0
		for len(dev.buf) < mib<<20 {
			for i := 0; i < 256; i++ {
				runs := []buffer.PageRun{{Off: 64, After: after}, {Off: 5000, After: after[:100]}}
				log.LogPageDelta(pagestore.PageID(deltas%4), runs)
				deltas++
			}
			if err := log.FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
		var res *RecoveryResult
		alloc := allocated(func() {
			if log, err = Open(dev); err == nil {
				res, err = Recover(log, store)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Redone != deltas {
			t.Fatalf("%d MiB log: redone %d of %d deltas", mib, res.Redone, deltas)
		}
		if alloc > bound {
			t.Errorf("%d MiB log: Open and Recover allocated %d bytes, want at most %d whatever the log's size", mib, alloc, bound)
		}
	}
}

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDamageInsideDurableLogIsError: an open log's durable records are not a
// torn tail. A bad record among them fails Records and Recover instead of
// ending the log early.
func TestDamageInsideDurableLogIsError(t *testing.T) {
	dev := &MemDevice{}
	log, _ := Open(dev)
	log.Begin(1)
	log.Commit(1)
	dev.buf[len(dev.buf)-1] ^= 0xFF
	if _, err := log.Records(); err == nil {
		t.Error("Records over a damaged durable record: no error")
	}
	if _, err := Recover(log, pagestore.NewMemStore()); err == nil {
		t.Error("Recover over a damaged durable record: no error")
	}
}

// FuzzLogTear writes the log ops describes, damages it, and reopens it.
//
// Each byte of ops is one record: its low three bits pick the kind (Begin,
// Commit, Abort, Logical, page delta, Checkpoint; 6 and 7 write nothing) and
// bits 3–4 the transaction or page. A logical record takes its payload size
// from the next byte; a page delta its run count, then an offset and a size
// byte per run. Payload bytes stay below 0x80, so every frame ends in a byte
// below 0x80.
//
// An even mode tears the log: it is cut at at % (size+1), then garbage is
// appended with every byte's high bit set, so any length field read from it
// runs past the end and it cannot complete a cut frame: the shape a torn
// append leaves. The reopened log must hold exactly the records written
// whole before the cut, and recovery must redo exactly the page deltas after
// the last checkpoint among them and report the losers among them.
//
// An odd mode XORs itself into one byte of a record that is not the last:
// record at % (n-1), byte at / (n-1) of its frame. A flipped CRC or body byte
// must fail Open with ErrCorrupt. A flipped length byte only has to leave a
// prefix, never a misread record: a length that no longer reaches the next
// frame ends the log there and drops every record after it (known defect; a
// length-prefixed log cannot resynchronise).
func FuzzLogTear(f *testing.F) {
	begin1, commit1, begin2, commit2, begin3, commit3, delta0 := byte(0x00), byte(0x01), byte(0x08), byte(0x09), byte(0x10), byte(0x11), byte(0x04)
	// TestTornTailTrimmed: two records, then three bytes of a torn append.
	f.Add([]byte{begin1, commit1}, byte(0), uint32(34), []byte{9, 9, 9})
	// TestTornTailGarbageRecovers: a committed delta, then 64 bytes of junk.
	junk := make([]byte, 64)
	for i := range junk {
		junk[i] = byte(37 * i)
	}
	f.Add([]byte{begin1, delta0, 1, 3, 1, commit1}, byte(0), uint32(60), junk)
	// TestTornMultiRunDeltaIsAllOrNothing: the cut falls inside a two-run
	// delta's last run.
	f.Add([]byte{delta0, 1, 3, 1, delta0, 2, 3, 2, 128, 2}, byte(0), uint32(61), []byte(nil))
	// TestMidLogCorruptionIsHardError: a byte of the third record's body.
	f.Add([]byte{begin1, commit1, begin2, commit2}, byte(0xFF), uint32(2+3*9), []byte(nil))
	// TestCheckpointBoundsRedo: a delta on each side of a checkpoint.
	f.Add([]byte{delta0, 1, 3, 1, 0x05, delta0, 1, 4, 1}, byte(0), uint32(61), []byte(nil))
	// The known defect: the third record's length, flipped high and low.
	f.Add([]byte{begin1, commit1, begin2, commit2, begin3, commit3}, byte(0xFF), uint32(2+5*3), []byte(nil))
	f.Add([]byte{begin1, commit1, begin2, commit2, begin3, commit3}, byte(0x0B), uint32(2+5*3), []byte(nil))
	f.Add([]byte{begin1, 3, 5, begin2, 0x0B, 2, 0x05, delta0, 3, 9, 200, 77, 40, 250, 1, commit1, 0x0C, 1, 0, 0}, byte(0), uint32(150), []byte{1})

	f.Fuzz(func(t *testing.T, ops []byte, mode byte, at uint32, garbage []byte) {
		if len(ops) > 256 || len(garbage) > 256 {
			return
		}
		dev := &MemDevice{}
		log, err := Open(dev)
		if err != nil {
			t.Fatal(err)
		}
		writeOps(log, ops)
		if err := log.FlushAll(); err != nil {
			t.Fatal(err)
		}
		orig, err := log.Records()
		if err != nil {
			t.Fatal(err)
		}
		// The live log knows its last checkpoint as a reopened one does.
		_, _, redone := replay(orig)
		if res, err := Recover(log, pagestore.NewMemStore()); err != nil || res.Redone != redone {
			t.Fatalf("recovery over the live log: %v, want %d post-checkpoint deltas redone", err, redone)
		}
		size := int64(len(dev.buf))
		end := make([]int64, len(orig))
		for i := range orig {
			end[i] = size
			if i+1 < len(orig) {
				end[i] = int64(orig[i+1].LSN) - 1
			}
		}

		if mode&1 == 1 {
			if len(orig) < 2 {
				return
			}
			i := int(at % uint32(len(orig)-1))
			start := int64(orig[i].LSN) - 1
			pos := int64(at/uint32(len(orig)-1)) % (end[i] - start)
			dev.buf[start+pos] ^= mode
			log2, err := Open(dev)
			if errors.Is(err, ErrCorrupt) {
				return
			}
			if pos >= 4 {
				t.Fatalf("flip at byte %d of record %d: Open err = %v, want ErrCorrupt", pos, i, err)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got, err := log2.Records(); err != nil || !same(got, orig[:i]) {
				t.Fatalf("flipped length of record %d: %d records, %v; want the %d before it", i, len(got), err, i)
			}
			return
		}

		k := int64(at % uint32(size+1))
		dev.buf = dev.buf[:k]
		for _, g := range garbage {
			dev.buf = append(dev.buf, g|0x80)
		}
		log2, err := Open(dev)
		if err != nil {
			t.Fatalf("tear at %d of %d: %v", k, size, err)
		}
		var want []Record
		for i, r := range orig {
			if end[i] <= k {
				want = append(want, r)
			}
		}
		got, err := log2.Records()
		if err != nil || !same(got, want) {
			t.Fatalf("tear at %d of %d: %d records, %v; want %d", k, size, len(got), err, len(want))
		}
		store := pagestore.NewMemStore()
		res, err := Recover(log2, store)
		if err != nil {
			t.Fatal(err)
		}
		pages, losers, redone := replay(want)
		if res.Redone != redone || res.Skipped != 0 {
			t.Fatalf("redone %d, skipped %d; want %d post-checkpoint deltas redone", res.Redone, res.Skipped, redone)
		}
		for id := pagestore.PageID(0); id < 4; id++ {
			got, want := make([]byte, pagestore.PageSize), pages[id]
			if id < store.NumPages() {
				store.ReadPage(id, got)
			}
			if want == nil {
				want = make([]byte, pagestore.PageSize)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("page %d differs from the post-checkpoint deltas applied in order", id)
			}
		}
		if !same(res.Losers, losers) {
			t.Fatalf("losers = %v, want %v", res.Losers, losers)
		}
	})
}

// writeOps appends the records ops describes (see FuzzLogTear).
func writeOps(log *Log, ops []byte) {
	for i := 0; i < len(ops); i++ {
		b := ops[i]
		arg := func() int {
			if i++; i < len(ops) {
				return int(ops[i])
			}
			return 0
		}
		switch b & 7 {
		case 0:
			log.Begin(uint64(b>>3&3) + 1)
		case 1:
			log.Commit(uint64(b>>3&3) + 1)
		case 2:
			log.Abort(uint64(b>>3&3) + 1)
		case 3:
			log.Logical(uint64(b>>3&3)+1, bytes.Repeat([]byte{b & 0x7f}, arg()))
		case 4:
			runs := make([]buffer.PageRun, arg()%4)
			for j := range runs {
				off := 8 + 31*arg()
				runs[j] = buffer.PageRun{Off: off, After: bytes.Repeat([]byte{byte(i+j) & 0x7f}, arg())}
			}
			log.LogPageDelta(pagestore.PageID(b>>3&3), runs)
		case 5:
			log.Checkpoint()
		}
	}
}

// replay is the reference recovery over decoded records: the pages the
// deltas after the last checkpoint build from zeroed pages, the transactions
// with no commit or abort record, in the order of their first record, with
// their logical payloads, and how many deltas follow the last checkpoint.
func replay(recs []Record) (pages map[pagestore.PageID][]byte, losers []Loser, redone int) {
	last := -1
	decided := map[uint64]bool{}
	for i, r := range recs {
		switch r.Kind {
		case KindCheckpoint:
			last = i
		case KindCommit, KindAbort:
			decided[r.Txn] = true
		}
	}
	pages = map[pagestore.PageID][]byte{}
	at := map[uint64]int{}
	for i, r := range recs {
		switch r.Kind {
		case KindPageDelta:
			if i < last {
				continue
			}
			if pages[r.Page] == nil {
				pages[r.Page] = make([]byte, pagestore.PageSize)
			}
			for _, run := range r.Runs {
				copy(pages[r.Page][run.Off:], run.After)
			}
			stampLSN(pages[r.Page], r.LSN)
			redone++
		case KindBegin, KindLogical:
			if decided[r.Txn] {
				continue
			}
			j, ok := at[r.Txn]
			if !ok {
				j = len(losers)
				at[r.Txn] = j
				losers = append(losers, Loser{Txn: r.Txn})
			}
			if r.Kind == KindLogical {
				losers[j].Ops = append(losers[j].Ops, r.Payload)
			}
		}
	}
	return pages, losers, redone
}

// same reports whether a and b hold equal elements, a nil slice equal to an
// empty one.
func same[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
