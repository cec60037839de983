package fault

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"rx/internal/pagestore"
)

func page(b byte) []byte {
	p := make([]byte, pagestore.PageSize)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestStoreCrashDiscardsUnsyncedWrites(t *testing.T) {
	// A crash (power loss) discards the unsynced write; a kill (process
	// death) lands it. Either way later operations fail.
	for _, tc := range []struct {
		name    string
		stop    func(*Injector) error
		durable byte
	}{
		{"crash", func(inj *Injector) error { inj.Crash(); return nil }, 0xAA},
		{"kill", (*Injector).Kill, 0xBB},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := pagestore.NewMemStore()
			inj := NewInjector()
			st := NewStore(mem, inj)

			id, _ := st.Allocate()
			if err := st.WritePage(id, page(0xAA)); err != nil {
				t.Fatal(err)
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := st.WritePage(id, page(0xBB)); err != nil {
				t.Fatal(err)
			}
			extra, _ := st.Allocate()
			// Unsynced write is visible through the wrapper (OS cache semantics)...
			buf := make([]byte, pagestore.PageSize)
			if err := st.ReadPage(id, buf); err != nil || buf[100] != 0xBB {
				t.Fatalf("pre-stop read = %x, %v", buf[100], err)
			}
			if err := tc.stop(inj); err != nil {
				t.Fatal(err)
			}
			if err := st.WritePage(id, page(0xCC)); !errors.Is(err, ErrCrashed) {
				t.Fatalf("post-stop write err = %v", err)
			}
			if err := st.Sync(); !errors.Is(err, ErrCrashed) {
				t.Fatalf("post-stop sync err = %v", err)
			}
			if _, err := st.Allocate(); !errors.Is(err, ErrCrashed) {
				t.Fatalf("post-stop allocate err = %v", err)
			}
			// ...but the durable state is the last sync, or every accepted
			// write after a kill.
			if err := mem.ReadPage(id, buf); err != nil || buf[100] != tc.durable {
				t.Fatalf("durable read = %x, %v", buf[100], err)
			}
			if kept := mem.NumPages() > extra; kept != (tc.name == "kill") {
				t.Fatalf("durable pages = %d after %s", mem.NumPages(), tc.name)
			}
		})
	}
}

func TestStoreCrashRevertsAllocations(t *testing.T) {
	mem := pagestore.NewMemStore()
	inj := NewInjector()
	st := NewStore(mem, inj)
	st.Allocate()
	st.Sync()
	st.Allocate()
	st.Allocate()
	if st.NumPages() != 3 {
		t.Fatalf("pre-crash pages = %d", st.NumPages())
	}
	inj.Crash()
	if mem.NumPages() != 1 {
		t.Fatalf("durable pages = %d, want 1", mem.NumPages())
	}
}

func TestStoreTransientWriteError(t *testing.T) {
	mem := pagestore.NewMemStore()
	st := NewStore(mem, NewInjector(ErrorOnWrite(1)))
	id, _ := st.Allocate()
	err := st.WritePage(id, page(1))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("first write err = %v", err)
	}
	// The retry (write #2) succeeds: the error was transient.
	if err := st.WritePage(id, page(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pagestore.PageSize)
	if err := mem.ReadPage(id, buf); err != nil || buf[0] != 1 {
		t.Fatalf("after retry: %x, %v", buf[0], err)
	}
}

func TestStoreTornWritePersistsPrefix(t *testing.T) {
	mem := pagestore.NewMemStore()
	inj := NewInjector(TearWrite(2, 512))
	st := NewStore(mem, inj)
	id, _ := st.Allocate()
	if err := st.WritePage(id, page(0x11)); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	// Write #2 is torn: power loss after its first 512 bytes hit the platter.
	if err := st.WritePage(id, page(0x22)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn write err = %v, want ErrCrashed", err)
	}
	if !inj.Crashed() {
		t.Fatal("tear did not crash the injector")
	}
	buf := make([]byte, pagestore.PageSize)
	mem.ReadPage(id, buf)
	if buf[0] != 0x22 || buf[511] != 0x22 {
		t.Errorf("torn prefix not persisted: %x %x", buf[0], buf[511])
	}
	if buf[512] != 0x11 || buf[pagestore.PageSize-1] != 0x11 {
		t.Errorf("torn suffix should keep the last durable image: %x %x", buf[512], buf[pagestore.PageSize-1])
	}
}

func TestStoreBitFlipOnReadIsTransient(t *testing.T) {
	mem := pagestore.NewMemStore()
	st := NewStore(mem, NewInjector(FlipOnRead(1, 8*100)))
	id, _ := st.Allocate()
	st.WritePage(id, page(0))
	st.Sync()
	buf := make([]byte, pagestore.PageSize)
	if err := st.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[100] != 1 {
		t.Errorf("bit not flipped: %x", buf[100])
	}
	if err := st.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[100] != 0 {
		t.Errorf("flip persisted: %x", buf[100])
	}
}

func TestStoreCrashOnNthWrite(t *testing.T) {
	mem := pagestore.NewMemStore()
	inj := NewInjector(CrashOnWrite(3))
	st := NewStore(mem, inj)
	id, _ := st.Allocate()
	st.WritePage(id, page(1))
	st.Sync()
	st.WritePage(id, page(2))
	err := st.WritePage(id, page(3))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("write #3 err = %v", err)
	}
	if !inj.Crashed() {
		t.Fatal("injector not crashed")
	}
	buf := make([]byte, pagestore.PageSize)
	mem.ReadPage(id, buf)
	if buf[0] != 1 {
		t.Errorf("durable state = %x, want last-synced 1", buf[0])
	}
}

func TestSyncIsAllOrNothing(t *testing.T) {
	mem := pagestore.NewMemStore()
	st := NewStore(mem, NewInjector(CrashOnSync(2)))
	id, _ := st.Allocate()
	st.WritePage(id, page(1))
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	st.WritePage(id, page(2))
	if err := st.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync #2 err = %v", err)
	}
	buf := make([]byte, pagestore.PageSize)
	mem.ReadPage(id, buf)
	if buf[0] != 1 {
		t.Errorf("crashed sync leaked writes: %x", buf[0])
	}
}

func TestDeviceCrashDiscardsUnsynced(t *testing.T) {
	for _, tc := range []struct {
		name    string
		stop    func(*Injector) error
		durable string
	}{
		{"crash", func(inj *Injector) error { inj.Crash(); return nil }, "hello"},
		{"kill", (*Injector).Kill, "helloworld"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mem memDevice
			inj := NewInjector()
			dev := NewDevice(&mem, inj)
			if _, err := dev.WriteAt([]byte("hello"), 0); err != nil {
				t.Fatal(err)
			}
			if err := dev.Sync(); err != nil {
				t.Fatal(err)
			}
			if _, err := dev.WriteAt([]byte("world"), 5); err != nil {
				t.Fatal(err)
			}
			// Overlay read sees both.
			buf := make([]byte, 10)
			if _, err := dev.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
			if string(buf) != "helloworld" {
				t.Fatalf("overlay read = %q", buf)
			}
			if err := tc.stop(inj); err != nil {
				t.Fatal(err)
			}
			if _, err := dev.WriteAt([]byte("!"), 10); !errors.Is(err, ErrCrashed) {
				t.Fatalf("post-stop write err = %v", err)
			}
			if _, err := dev.ReadAt(buf, 0); !errors.Is(err, ErrCrashed) {
				t.Fatalf("post-stop read err = %v", err)
			}
			if string(mem.buf) != tc.durable {
				t.Fatalf("durable device = %q, want %q", mem.buf, tc.durable)
			}
		})
	}
}

// TestKillRuleLandsAcceptedWrites: a kill fired by a rule on one wrapper
// lands what every wrapper of the injector accepted before it, and the
// killed operation itself never happens.
func TestKillRuleLandsAcceptedWrites(t *testing.T) {
	for _, rule := range []Rule{KillOnWrite(3), KillOnSync(1)} {
		t.Run(rule.String(), func(t *testing.T) {
			mem := pagestore.NewMemStore()
			var log memDevice
			inj := NewInjector(rule)
			st, dev := NewStore(mem, inj), NewDevice(&log, inj)
			id, _ := st.Allocate()
			if err := st.WritePage(id, page(1)); err != nil { // write #1
				t.Fatal(err)
			}
			if _, err := dev.WriteAt([]byte("rec"), 0); err != nil { // write #2
				t.Fatal(err)
			}
			var err error
			if rule.Op == Write {
				_, err = dev.WriteAt([]byte("lost"), 3)
			} else {
				err = st.Sync()
			}
			if !errors.Is(err, ErrCrashed) || !inj.Crashed() {
				t.Fatalf("%s: err = %v, crashed = %v", rule, err, inj.Crashed())
			}
			buf := make([]byte, pagestore.PageSize)
			if err := mem.ReadPage(id, buf); err != nil || buf[0] != 1 {
				t.Fatalf("landed page = %x, %v", buf[0], err)
			}
			if string(log.buf) != "rec" {
				t.Fatalf("landed device = %q, want %q", log.buf, "rec")
			}
		})
	}
}

func TestDeviceTornWrite(t *testing.T) {
	var mem memDevice
	dev := NewDevice(&mem, NewInjector(TearWrite(1, 3)))
	if _, err := dev.WriteAt([]byte("abcdef"), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn device write err = %v, want ErrCrashed", err)
	}
	if !bytes.Equal(mem.buf, []byte("abc")) {
		t.Fatalf("torn device write = %q", mem.buf)
	}
}

// memDevice is a minimal in-memory BlockDevice for tests (mirrors
// wal.MemDevice without importing it).
type memDevice struct{ buf []byte }

func (d *memDevice) WriteAt(p []byte, off int64) (int, error) {
	if end := int(off) + len(p); end > len(d.buf) {
		d.buf = append(d.buf, make([]byte, end-len(d.buf))...)
	}
	copy(d.buf[off:], p)
	return len(p), nil
}

func (d *memDevice) ReadAt(p []byte, off int64) (int, error) {
	if int(off) >= len(d.buf) {
		return 0, io.EOF
	}
	n := copy(p, d.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (d *memDevice) Size() (int64, error) { return int64(len(d.buf)), nil }
func (d *memDevice) Sync() error          { return nil }
func (d *memDevice) Close() error         { return nil }
