package core

import (
	"bytes"
	"testing"

	"rx/internal/pagestore"
	"rx/internal/xml"
)

func TestBackupRestore(t *testing.T) {
	db := newDB(t)
	col, _ := db.CreateCollection("c", CollectionOptions{})
	col.CreateValueIndex("ix", "//v", xml.TDouble)
	var ids []xml.DocID
	for i := 0; i < 20; i++ {
		id := mustInsert(t, col, []byte(`<r><v>`+itoa(i)+`</v></r>`))
		ids = append(ids, id)
	}

	var backup bytes.Buffer
	if err := db.Backup(&backup); err != nil {
		t.Fatal(err)
	}

	db2, err := Restore(bytes.NewReader(backup.Bytes()), pagestore.NewMemStore(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	col2, err := db2.Collection("c")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := col2.Count()
	if n != 20 {
		t.Fatalf("restored %d docs", n)
	}
	var buf bytes.Buffer
	if err := col2.Serialize(ids[7], &buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != `<r><v>7</v></r>` {
		t.Errorf("restored doc = %s", buf.String())
	}
	res, plan, err := col2.QueryOpts("/r[v = 7]", QueryOptions{})
	if err != nil || len(res) != 1 {
		t.Fatalf("restored query: %v %v (plan %v)", res, err, plan)
	}
	if err := col2.CheckConsistency(); err != nil {
		t.Fatalf("restored consistency: %v", err)
	}
	// Restored databases accept new writes.
	mustInsert(t, col2, []byte(`<r><v>999</v></r>`))
}

func TestRestoreErrors(t *testing.T) {
	if _, err := Restore(bytes.NewReader([]byte("junk")), pagestore.NewMemStore(), Options{}); err == nil {
		t.Error("junk stream should fail")
	}
	db := newDB(t)
	db.CreateCollection("c", CollectionOptions{})
	var backup bytes.Buffer
	if err := db.Backup(&backup); err != nil {
		t.Fatal(err)
	}
	// Truncated stream.
	if _, err := Restore(bytes.NewReader(backup.Bytes()[:backup.Len()/2]), pagestore.NewMemStore(), Options{}); err == nil {
		t.Error("truncated backup should fail")
	}
	// Corrupted page flips the checksum.
	corrupt := append([]byte(nil), backup.Bytes()...)
	corrupt[9000] ^= 0xFF
	if _, err := Restore(bytes.NewReader(corrupt), pagestore.NewMemStore(), Options{}); err == nil {
		t.Error("corrupted backup should fail the checksum")
	}
	// Non-empty target store.
	st := pagestore.NewMemStore()
	st.Allocate()
	if _, err := Restore(bytes.NewReader(backup.Bytes()), st, Options{}); err == nil {
		t.Error("non-empty target should fail")
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}
