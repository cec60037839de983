package pagestore

import (
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

// TestChecksumSidecarMigration: a version-0 (IEEE) sidecar is rewritten to
// Castagnoli entries on first load, pages verify throughout, and a page that
// fails its old IEEE checksum keeps a stale entry so the corruption is still
// reported after migration.
func TestChecksumSidecarMigration(t *testing.T) {
	mem := NewMemStore()
	cs := NewChecksumStore(mem)
	buf := make([]byte, PageSize)
	var ids []PageID
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
		ids = append(ids, id)
	}
	if err := cs.Sync(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the sidecar as an old build would have: IEEE entries, no
	// version byte.
	side := make([]byte, PageSize)
	if err := mem.ReadPage(crcPhys(0), side); err != nil {
		t.Fatal(err)
	}
	side[verOff] = 0
	for _, id := range ids {
		if err := mem.ReadPage(physOf(id), buf); err != nil {
			t.Fatal(err)
		}
		crc := pageCRCIEEE(buf)
		d := side[id%crcPerPage*4:]
		d[0], d[1], d[2], d[3] = byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc)
	}
	if err := mem.WritePage(crcPhys(0), side); err != nil {
		t.Fatal(err)
	}
	// Corrupt the last page underneath the sidecar: its IEEE entry no longer
	// matches, so migration must keep the stale entry.
	if err := mem.ReadPage(physOf(ids[3]), buf); err != nil {
		t.Fatal(err)
	}
	buf[100] ^= 0xff
	if err := mem.WritePage(physOf(ids[3]), buf); err != nil {
		t.Fatal(err)
	}

	// Reopen: loading the group migrates it; intact pages verify.
	cs2 := NewChecksumStore(mem)
	for _, id := range ids[:3] {
		if err := cs2.ReadPage(id, buf); err != nil {
			t.Fatalf("post-migration read of page %d: %v", id, err)
		}
	}
	if err := cs2.ReadPage(ids[3], buf); !errors.Is(err, ErrPageChecksum{PageID: ids[3]}) {
		t.Fatalf("corrupted page read = %v, want checksum error", err)
	}
	if err := cs2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := mem.ReadPage(crcPhys(0), side); err != nil {
		t.Fatal(err)
	}
	if side[verOff] != sidecarVersion {
		t.Fatalf("sidecar version after migration+sync = %d, want %d", side[verOff], sidecarVersion)
	}
	// A third open must not need to migrate: entries already verify as
	// Castagnoli.
	cs3 := NewChecksumStore(mem)
	for _, id := range ids[:3] {
		if err := cs3.ReadPage(id, buf); err != nil {
			t.Fatalf("second reopen read of page %d: %v", id, err)
		}
	}
}
