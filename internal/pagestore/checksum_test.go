package pagestore

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

func TestChecksumStoreRoundTrip(t *testing.T) {
	cs := NewChecksumStore(NewMemStore())
	testStore(t, cs)
}

func TestChecksumStoreLayoutMapping(t *testing.T) {
	for _, tc := range []struct{ logical, phys PageID }{
		{0, 1}, {1, 2}, {crcPerPage - 1, crcPerPage},
		{crcPerPage, crcPerPage + 2}, {2 * crcPerPage, 2*(crcPerPage+1) + 1},
	} {
		if got := physOf(tc.logical); got != tc.phys {
			t.Errorf("physOf(%d) = %d, want %d", tc.logical, got, tc.phys)
		}
	}
	for _, tc := range []struct{ phys, logical PageID }{
		{0, 0}, {1, 0}, {2, 1}, {crcPerPage + 1, crcPerPage},
		{crcPerPage + 2, crcPerPage}, {2 * (crcPerPage + 1), 2 * crcPerPage},
	} {
		if got := logicalPages(tc.phys); got != tc.logical {
			t.Errorf("logicalPages(%d) = %d, want %d", tc.phys, got, tc.logical)
		}
	}
}

func TestChecksumStoreAcrossGroupBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a full checksum group")
	}
	cs := NewChecksumStore(NewMemStore())
	n := PageID(crcPerPage + 3)
	buf := make([]byte, PageSize)
	for i := PageID(0); i < n; i++ {
		id, err := cs.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("allocate #%d returned %d", i, id)
		}
		buf[42] = byte(i)
		if err := cs.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if cs.NumPages() != n {
		t.Fatalf("NumPages = %d, want %d", cs.NumPages(), n)
	}
	for i := PageID(0); i < n; i++ {
		if err := cs.ReadPage(i, buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if buf[42] != byte(i) {
			t.Fatalf("page %d content = %x", i, buf[42])
		}
	}
}

func TestChecksumDetectsBitFlip(t *testing.T) {
	mem := NewMemStore()
	cs := NewChecksumStore(mem)
	id, _ := cs.Allocate()
	buf := make([]byte, PageSize)
	buf[1000] = 0x7F
	if err := cs.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	// Flip one bit behind the wrapper's back (silent media corruption).
	raw := make([]byte, PageSize)
	mem.ReadPage(physOf(id), raw)
	raw[1000] ^= 0x01
	mem.WritePage(physOf(id), raw)

	err := cs.ReadPage(id, buf)
	var pe ErrPageChecksum
	if !errors.As(err, &pe) {
		t.Fatalf("corrupted read err = %v, want ErrPageChecksum", err)
	}
	if pe.PageID != id {
		t.Errorf("ErrPageChecksum.PageID = %d, want %d", pe.PageID, id)
	}
}

func TestChecksumDetectsTornWrite(t *testing.T) {
	mem := NewMemStore()
	cs := NewChecksumStore(mem)
	id, _ := cs.Allocate()
	old := make([]byte, PageSize)
	for i := range old {
		old[i] = 0xAA
	}
	cs.WritePage(id, old)
	cs.Sync()
	// A new write tears: only the first 512 bytes reach the store, the CRC
	// entry already describes the full new image.
	fresh := make([]byte, PageSize)
	for i := range fresh {
		fresh[i] = 0xBB
	}
	if err := cs.WritePage(id, fresh); err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, PageSize)
	copy(torn, old)
	copy(torn[:512], fresh[:512])
	mem.WritePage(physOf(id), torn)

	err := cs.ReadPage(id, make([]byte, PageSize))
	var pe ErrPageChecksum
	if !errors.As(err, &pe) {
		t.Fatalf("torn read err = %v, want ErrPageChecksum", err)
	}
}

func TestChecksumStorePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cs.rxdb")
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cs := NewChecksumStore(fs)
	buf := make([]byte, PageSize)
	for i := 0; i < 5; i++ {
		id, _ := cs.Allocate()
		buf[7] = byte(10 + i)
		if err := cs.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cs2 := NewChecksumStore(fs2)
	if cs2.NumPages() != 5 {
		t.Fatalf("reopened NumPages = %d", cs2.NumPages())
	}
	for i := PageID(0); i < 5; i++ {
		if err := cs2.ReadPage(i, buf); err != nil {
			t.Fatalf("reopened read %d: %v", i, err)
		}
		if buf[7] != byte(10+int(i)) {
			t.Fatalf("reopened page %d content = %x", i, buf[7])
		}
	}
	cs2.Close()
}

func TestChecksumFreshPageReadsAsZeros(t *testing.T) {
	cs := NewChecksumStore(NewMemStore())
	id, _ := cs.Allocate()
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = 0xFF // stale caller buffer
	}
	if err := cs.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("fresh page byte %d = %x", i, b)
		}
	}
}

func TestChecksumWrittenBitDetectsZeroedPage(t *testing.T) {
	// A page durably written and later torn back to all zeros — with its
	// sidecar CRC entry zeroed by the same corruption — must still fail
	// verification: the written bit lives in the sidecar bitmap, not the
	// entry array, and marks the zero state as impossible.
	mem := NewMemStore()
	cs := NewChecksumStore(mem)
	id, _ := cs.Allocate()
	buf := make([]byte, PageSize)
	buf[99] = 0x42
	if err := cs.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := cs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Adversary: zero the data page and its 4-byte CRC entry.
	mem.WritePage(physOf(id), make([]byte, PageSize))
	side := make([]byte, PageSize)
	mem.ReadPage(crcPhys(groupOf(id)), side)
	idx := id % crcPerPage
	copy(side[idx*4:idx*4+4], []byte{0, 0, 0, 0})
	mem.WritePage(crcPhys(groupOf(id)), side)

	cs2 := NewChecksumStore(mem) // fresh wrapper: no cached sidecar state
	err := cs2.ReadPage(id, buf)
	var pe ErrPageChecksum
	if !errors.As(err, &pe) {
		t.Fatalf("zeroed written page read err = %v, want ErrPageChecksum", err)
	}
}

func TestChecksumFreshPageScribbleDetected(t *testing.T) {
	// A never-written page must read as zeros; nonzero bytes mean a write
	// escaped its sync epoch.
	mem := NewMemStore()
	cs := NewChecksumStore(mem)
	id, _ := cs.Allocate()
	raw := make([]byte, PageSize)
	raw[0] = 0xEE
	mem.WritePage(physOf(id), raw)
	err := cs.ReadPage(id, make([]byte, PageSize))
	var pe ErrPageChecksum
	if !errors.As(err, &pe) {
		t.Fatalf("scribbled fresh page read err = %v, want ErrPageChecksum", err)
	}
}

func TestChecksumRederiveRepairsLostSidecar(t *testing.T) {
	mem := NewMemStore()
	cs := NewChecksumStore(mem)
	buf := make([]byte, PageSize)
	for i := 0; i < 4; i++ {
		id, _ := cs.Allocate()
		buf[7] = byte(i + 1)
		if err := cs.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Adversary: scribble over the sidecar page.
	junk := make([]byte, PageSize)
	for i := range junk {
		junk[i] = 0x5A
	}
	mem.WritePage(crcPhys(0), junk)

	cs2 := NewChecksumStore(mem)
	if err := cs2.ReadPage(0, buf); err == nil {
		t.Fatal("read through corrupt sidecar succeeded")
	}
	cs3 := NewChecksumStore(mem)
	if err := cs3.Rederive(); err != nil {
		t.Fatalf("Rederive: %v", err)
	}
	for i := PageID(0); i < 4; i++ {
		if err := cs3.ReadPage(i, buf); err != nil {
			t.Fatalf("post-rederive read %d: %v", i, err)
		}
		if buf[7] != byte(i+1) {
			t.Fatalf("post-rederive page %d content = %x", i, buf[7])
		}
	}
	// And the rederived sidecar is durable: a fresh wrapper agrees.
	cs4 := NewChecksumStore(mem)
	if err := cs4.ReadPage(0, buf); err != nil {
		t.Fatalf("fresh wrapper read after rederive: %v", err)
	}
}

// TestChecksumSidecarOldVersionRefused: a version-0 sidecar (as builds
// before Castagnoli entries wrote it) is reported by CheckVersion with
// ErrSidecarVersion, and checking writes nothing: the inner store stays byte
// for byte as it was, also after Close.
func TestChecksumSidecarOldVersionRefused(t *testing.T) {
	mem := NewMemStore()
	cs := NewChecksumStore(mem)
	buf := make([]byte, PageSize)
	for i := 0; i < 4; i++ {
		id, err := cs.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = byte(i + j)
		}
		if err := cs.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := NewChecksumStore(mem).CheckVersion(); err != nil {
		t.Fatalf("current sidecar: CheckVersion = %v", err)
	}

	side := make([]byte, PageSize)
	if err := mem.ReadPage(crcPhys(0), side); err != nil {
		t.Fatal(err)
	}
	side[verOff] = 0
	if err := mem.WritePage(crcPhys(0), side); err != nil {
		t.Fatal(err)
	}
	image := func() []byte {
		var all []byte
		for id := PageID(0); id < mem.NumPages(); id++ {
			if err := mem.ReadPage(id, buf); err != nil {
				t.Fatal(err)
			}
			all = append(all, buf...)
		}
		return all
	}
	before := image()
	old := NewChecksumStore(mem)
	if err := old.CheckVersion(); !errors.Is(err, ErrSidecarVersion) {
		t.Fatalf("version-0 sidecar: CheckVersion = %v, want ErrSidecarVersion", err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, image()) {
		t.Fatal("checking an old sidecar changed the store")
	}
}

// TestChecksumUnsyncedSidecarPasses: Allocate extends the inner store with a
// new group's sidecar page at once, but writes it only at Sync, so a crash
// before that sync leaves a zero sidecar page. CheckVersion must pass such an
// image, its never-written pages must read as zeros, and the group's first
// sync must write a current sidecar.
func TestChecksumUnsyncedSidecarPasses(t *testing.T) {
	mem := NewMemStore()
	cs := NewChecksumStore(mem)
	buf := make([]byte, PageSize)
	for i := 0; i < crcPerPage+3; i++ {
		if _, err := cs.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	buf[7] = 9
	if err := cs.WritePage(0, buf); err != nil {
		t.Fatal(err)
	}
	for _, check := range []string{"empty", "group 0 synced"} {
		if check == "group 0 synced" {
			// Sync group 0 alone, then zero group 1's sidecar as a crash
			// before its first sync leaves it.
			if err := cs.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := mem.WritePage(crcPhys(1), make([]byte, PageSize)); err != nil {
				t.Fatal(err)
			}
		}
		if err := NewChecksumStore(mem).CheckVersion(); err != nil {
			t.Fatalf("%s: CheckVersion = %v", check, err)
		}
		re := NewChecksumStore(mem)
		for _, id := range []PageID{crcPerPage, crcPerPage + 2} {
			if err := re.ReadPage(id, buf); err != nil || !allZero(buf) {
				t.Fatalf("%s: never-written page %d: err %v, zero %v", check, id, err, allZero(buf))
			}
		}
	}

	re := NewChecksumStore(mem)
	buf[7] = 5
	if err := re.WritePage(crcPerPage+1, buf); err != nil {
		t.Fatal(err)
	}
	if err := re.Sync(); err != nil {
		t.Fatal(err)
	}
	side := make([]byte, PageSize)
	if err := mem.ReadPage(crcPhys(1), side); err != nil {
		t.Fatal(err)
	}
	if side[verOff] != sidecarVersion {
		t.Fatalf("group 1 sidecar synced at version %d", side[verOff])
	}
	if err := NewChecksumStore(mem).ReadPage(crcPerPage+1, buf); err != nil || buf[7] != 5 {
		t.Fatalf("reread group 1 page: err %v, byte %d", err, buf[7])
	}
}
