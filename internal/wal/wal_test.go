package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"rx/internal/buffer"
	"rx/internal/pagestore"
)

func TestAppendFlushRecords(t *testing.T) {
	log, err := Open(&MemDevice{})
	if err != nil {
		t.Fatal(err)
	}
	log.Begin(1)
	lsn, err := log.LogPageDelta(3, []buffer.PageRun{{Off: 100, After: []byte{7, 8}}, {Off: 900, After: []byte{9}}})
	if err != nil {
		t.Fatal(err)
	}
	if lsn == 0 {
		t.Fatal("zero LSN")
	}
	log.Logical(1, []byte(`{"op":"x"}`))
	if _, err := log.Commit(1); err != nil {
		t.Fatal(err)
	}
	recs, err := log.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Kind != KindBegin || recs[0].Txn != 1 {
		t.Errorf("rec0 = %+v", recs[0])
	}
	if r := recs[1]; r.Kind != KindPageDelta || r.Page != 3 || len(r.Runs) != 2 ||
		r.Runs[0].Off != 100 || !bytes.Equal(r.Runs[0].After, []byte{7, 8}) ||
		r.Runs[1].Off != 900 || !bytes.Equal(r.Runs[1].After, []byte{9}) {
		t.Errorf("rec1 = %+v", r)
	}
	if recs[2].Kind != KindLogical || string(recs[2].Payload) != `{"op":"x"}` {
		t.Errorf("rec2 = %+v", recs[2])
	}
	if recs[3].Kind != KindCommit {
		t.Errorf("rec3 = %+v", recs[3])
	}
}

func TestTornTailTrimmed(t *testing.T) {
	dev := &MemDevice{}
	log, _ := Open(dev)
	log.Begin(1)
	log.Commit(1)
	// Append garbage simulating a torn write.
	size, _ := dev.Size()
	dev.WriteAt([]byte{9, 9, 9}, size)
	log2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := log2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records after torn tail", len(recs))
	}
	// New appends land after the trimmed point and stay readable.
	log2.Begin(2)
	log2.Commit(2)
	recs, _ = log2.Records()
	if len(recs) != 4 {
		t.Fatalf("got %d records after reopen-append", len(recs))
	}
}

func TestRecoverRedoAndLosers(t *testing.T) {
	store := pagestore.NewMemStore()
	pool := buffer.New(store, 8)
	log, _ := Open(&MemDevice{})
	pool.SetLogger(log)
	pool.SetFlushLSN(log.Flush)

	f, _ := pool.NewPage()
	pool.Modify(f, func(d []byte) error { d[100] = 1; return nil })
	pool.Unpin(f, false)

	log.Begin(1)
	log.Logical(1, []byte("op-of-committed"))
	log.Commit(1)

	log.Begin(2)
	log.Logical(2, []byte("op-a-of-loser"))
	log.Logical(2, []byte("op-b-of-loser"))
	log.FlushAll()
	// Crash: the store never saw the page write (no FlushAll on the pool).

	res, err := Recover(log, store)
	if err != nil {
		t.Fatal(err)
	}
	if res.Redone != 1 {
		t.Errorf("redone = %d", res.Redone)
	}
	buf := make([]byte, pagestore.PageSize)
	store.ReadPage(0, buf)
	if buf[100] != 1 {
		t.Error("redo did not restore the page")
	}
	if len(res.Losers) != 1 || res.Losers[0].Txn != 2 {
		t.Fatalf("losers = %v", res.Losers)
	}
	ops := res.Losers[0].Ops
	if len(ops) != 2 || string(ops[0]) != "op-a-of-loser" {
		t.Errorf("loser ops = %q", ops)
	}
	// Recovery is idempotent: pages already at the right LSN are skipped.
	res2, err := Recover(log, store)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Redone != 0 || res2.Skipped != 1 {
		t.Errorf("second recovery: redone=%d skipped=%d", res2.Redone, res2.Skipped)
	}
}

func TestCheckpointBoundsRedo(t *testing.T) {
	store := pagestore.NewMemStore()
	pool := buffer.New(store, 8)
	log, _ := Open(&MemDevice{})
	pool.SetLogger(log)
	pool.SetFlushLSN(log.Flush)

	f, _ := pool.NewPage()
	pool.Modify(f, func(d []byte) error { d[10] = 1; return nil })
	pool.FlushAll()
	log.Checkpoint()
	pool.Modify(f, func(d []byte) error { d[20] = 2; return nil })
	pool.Unpin(f, false)
	log.FlushAll()

	res, err := Recover(log, store)
	if err != nil {
		t.Fatal(err)
	}
	if res.Redone != 1 {
		t.Errorf("redone = %d, want only the post-checkpoint delta", res.Redone)
	}
	buf := make([]byte, pagestore.PageSize)
	store.ReadPage(0, buf)
	if buf[10] != 1 || buf[20] != 2 {
		t.Error("state incomplete after bounded redo")
	}
}

func TestFileDevice(t *testing.T) {
	path := t.TempDir() + "/test.wal"
	dev, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	log, _ := Open(dev)
	log.Begin(5)
	log.Commit(5)
	dev.Close()

	dev2, _ := OpenFileDevice(path)
	log2, err := Open(dev2)
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	recs, err := log2.Records()
	if err != nil || len(recs) != 2 {
		t.Fatalf("reopened file log: %d records, %v", len(recs), err)
	}
}

func TestTornTailGarbageRecovers(t *testing.T) {
	// Regression for crash-mid-append: a bad-CRC record at the end of the
	// log (here: a plausible-looking frame full of garbage) must truncate
	// the log there and recovery must still replay the committed prefix.
	dev := &MemDevice{}
	log, _ := Open(dev)
	store := pagestore.NewMemStore()
	store.Allocate()
	log.Begin(1)
	log.LogPageDelta(0, []buffer.PageRun{{Off: 100, After: []byte{42}}})
	log.Commit(1)

	size, _ := dev.Size()
	garbage := make([]byte, 64)
	for i := range garbage {
		garbage[i] = byte(37 * i)
	}
	// A self-consistent length field pointing past EOF plus junk: the shape
	// a torn 4 KiB append leaves behind.
	dev.WriteAt(garbage, size)

	log2, err := Open(dev)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	res, err := Recover(log2, store)
	if err != nil {
		t.Fatalf("recover with torn tail: %v", err)
	}
	if res.Redone != 1 {
		t.Errorf("redone = %d", res.Redone)
	}
	buf := make([]byte, pagestore.PageSize)
	store.ReadPage(0, buf)
	if buf[100] != 42 {
		t.Errorf("committed delta lost: %x", buf[100])
	}
}

// TestTornMultiRunDeltaIsAllOrNothing: the record is the torn-flush atomicity
// unit. A flush that tears inside a multi-run delta — after its first run's
// bytes are on the device — must lose the whole record, never apply a prefix
// of its runs (a slot array counting a cell whose bytes never made the log).
func TestTornMultiRunDeltaIsAllOrNothing(t *testing.T) {
	dev := &MemDevice{}
	log, _ := Open(dev)
	store := pagestore.NewMemStore()
	store.Allocate()
	log.LogPageDelta(0, []buffer.PageRun{{Off: 50, After: []byte{1}}})
	log.FlushAll()
	whole, _ := dev.Size()
	log.LogPageDelta(0, []buffer.PageRun{{Off: 100, After: []byte{2, 2}}, {Off: 4000, After: []byte{3, 3}}})
	log.FlushAll()
	full, _ := dev.Size()
	// Tear the second record just short of its last run's bytes.
	dev.buf = dev.buf[:full-2]

	log2, err := Open(dev)
	if err != nil {
		t.Fatalf("open with torn multi-run record: %v", err)
	}
	if recs, err := log2.Records(); err != nil || len(recs) != 1 {
		t.Fatalf("torn record not discarded whole: %d records, %v", len(recs), err)
	}
	if got, _ := dev.Size(); got < whole {
		t.Fatalf("intact record lost: device %d < %d", got, whole)
	}
	if _, err := Recover(log2, store); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pagestore.PageSize)
	store.ReadPage(0, buf)
	if buf[50] != 1 || buf[100] != 0 || buf[4000] != 0 {
		t.Errorf("page after recovery: [50]=%d [100]=%d [4000]=%d, want 1 0 0", buf[50], buf[100], buf[4000])
	}
}

func TestMidLogCorruptionIsHardError(t *testing.T) {
	dev := &MemDevice{}
	log, _ := Open(dev)
	log.Begin(1)
	log.Commit(1)
	mid, _ := dev.Size()
	log.Begin(2)
	log.Commit(2)
	// Smash one byte inside the third record's body: valid records follow,
	// so this is not a torn tail and must not be silently truncated.
	dev.WriteAt([]byte{0xFF}, mid+9)
	if _, err := Open(dev); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over mid-log corruption: err = %v, want ErrCorrupt", err)
	}
}

// failingDevice fails the next write attempts with a transient error.
type failingDevice struct {
	MemDevice
	failWrites int
}

func (d *failingDevice) WriteAt(p []byte, off int64) (int, error) {
	if d.failWrites > 0 {
		d.failWrites--
		return 0, errors.New("transient device error")
	}
	return d.MemDevice.WriteAt(p, off)
}

func TestFlushRetriesAfterWriteError(t *testing.T) {
	// Regression: a failed flush must not advance the durable tail past the
	// unwritten bytes — a later successful flush has to rewrite them, or the
	// log gets a hole that reads as mid-log corruption.
	dev := &failingDevice{failWrites: 1}
	log, _ := Open(dev)
	log.Begin(1)
	if _, err := log.Commit(1); err == nil {
		t.Fatal("commit over failing device should error")
	}
	log.Begin(2)
	if _, err := log.Commit(2); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	recs, err := log.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records after retried flush", len(recs))
	}
	// The device contents are a valid log end to end.
	if _, err := Open(&dev.MemDevice); err != nil {
		t.Fatalf("reopen after retried flush: %v", err)
	}
}

// refFrame is the record encoder LogPageDelta and appendLocked replaced,
// kept as the byte-format oracle: a payload slice, then a frame slice
// around it.
func refFrame(kind Kind, payload []byte) []byte {
	frame := make([]byte, 8, 8+1+len(payload))
	frame = append(frame, byte(kind))
	frame = append(frame, payload...)
	binary.BigEndian.PutUint32(frame[0:4], uint32(1+len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[8:]))
	return frame
}

func refPageDelta(id pagestore.PageID, runs []buffer.PageRun) []byte {
	payload := binary.BigEndian.AppendUint32(nil, uint32(id))
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(runs)))
	for _, r := range runs {
		payload = binary.BigEndian.AppendUint32(payload, uint32(r.Off))
		payload = binary.BigEndian.AppendUint32(payload, uint32(len(r.After)))
		payload = append(payload, r.After...)
	}
	return refFrame(KindPageDelta, payload)
}

// The in-place encoders write exactly the bytes of the reference encoder,
// for page deltas of zero to several runs interleaved with other records,
// and a page delta allocates nothing beyond the pending buffer's amortized
// growth.
func TestRecordBytesMatchReference(t *testing.T) {
	dev := &MemDevice{}
	log, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var want []byte
	for i := 0; i < 300; i++ {
		runs := make([]buffer.PageRun, rng.Intn(5))
		for j := range runs {
			after := make([]byte, rng.Intn(200))
			rng.Read(after)
			runs[j] = buffer.PageRun{Off: 8 + rng.Intn(8000), After: after}
		}
		id := pagestore.PageID(rng.Uint32())
		if _, err := log.LogPageDelta(id, runs); err != nil {
			t.Fatal(err)
		}
		want = append(want, refPageDelta(id, runs)...)
		if i%7 == 0 {
			op := []byte(fmt.Sprintf(`{"op":%d}`, i))
			log.Logical(uint64(i), op)
			want = append(want, refFrame(KindLogical, append(binary.BigEndian.AppendUint64(nil, uint64(i)), op...))...)
		}
	}
	if err := log.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dev.buf, want) {
		t.Fatalf("log bytes differ from the reference encoder (%d vs %d bytes)", len(dev.buf), len(want))
	}
	runs := []buffer.PageRun{{Off: 100, After: make([]byte, 24)}, {Off: 4000, After: make([]byte, 64)}}
	if n := testing.AllocsPerRun(1000, func() { log.LogPageDelta(3, runs) }); n != 0 {
		t.Errorf("LogPageDelta: %v allocs per record, want 0", n)
	}
}
