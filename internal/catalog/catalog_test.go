package catalog

import (
	"testing"

	"rx/internal/buffer"
	"rx/internal/pagestore"
	"rx/internal/xml"
)

func newCatalog(t *testing.T) (*Catalog, *buffer.Pool) {
	t.Helper()
	pool := buffer.New(pagestore.NewMemStore(), 128)
	c, err := Bootstrap(pool)
	if err != nil {
		t.Fatal(err)
	}
	return c, pool
}

func TestNamesPersist(t *testing.T) {
	c, pool := newCatalog(t)
	id1, err := c.Intern("product")
	if err != nil {
		t.Fatal(err)
	}
	id2, _ := c.Intern("price")
	id1b, _ := c.Intern("product")
	if id1 != id1b {
		t.Error("re-intern changed ID")
	}
	if id1 == id2 {
		t.Error("distinct names share an ID")
	}
	if s, _ := c.Lookup(id2); s != "price" {
		t.Errorf("Lookup = %q", s)
	}
	// Reopen and verify.
	c2, err := Open(pool)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := c2.Lookup(id1); err != nil || s != "product" {
		t.Errorf("reopened Lookup = %q, %v", s, err)
	}
	id3, _ := c2.Intern("newname")
	if id3 == id1 || id3 == id2 {
		t.Error("new name reused an ID after reopen")
	}
	if _, err := c2.Lookup(xml.NameID(9999)); err == nil {
		t.Error("unknown ID should fail")
	}
}

func TestCollectionsPersist(t *testing.T) {
	c, pool := newCatalog(t)
	col := &Collection{Name: "cat", BaseTable: 10, XMLTable: 11, DocIDIndex: 12, NodeIDIndex: 13}
	if err := c.AddCollection(col); err != nil {
		t.Fatal(err)
	}
	if err := c.AddCollection(&Collection{Name: "cat"}); err == nil {
		t.Error("duplicate collection should fail")
	}
	col.Indexes = append(col.Indexes, ValueIndexMeta{Name: "ix1", Path: "//price", Type: xml.TDouble, Meta: 44})
	if err := c.UpdateCollection(col); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(pool)
	if err != nil {
		t.Fatal(err)
	}
	got := c2.GetCollection("cat")
	if got == nil || got.XMLTable != 11 || len(got.Indexes) != 1 || got.Indexes[0].Path != "//price" {
		t.Fatalf("reopened collection = %+v", got)
	}
	if names := c2.Collections(); len(names) != 1 || names[0] != "cat" {
		t.Errorf("Collections = %v", names)
	}
	if err := c2.DropCollection("cat"); err != nil {
		t.Fatal(err)
	}
	if c2.GetCollection("cat") != nil {
		t.Error("dropped collection still present")
	}
	if err := c2.DropCollection("nope"); err == nil {
		t.Error("dropping a missing collection should fail")
	}
}

func TestAllocDocID(t *testing.T) {
	c, pool := newCatalog(t)
	col := &Collection{Name: "c"}
	if err := c.AddCollection(col); err != nil {
		t.Fatal(err)
	}
	for want := uint64(1); want <= 130; want++ {
		id, err := c.AllocDocID(col)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(id) != want {
			t.Fatalf("AllocDocID = %d, want %d", id, want)
		}
	}
	// After reopen, allocation resumes past the persisted ceiling with no
	// reuse.
	c2, err := Open(pool)
	if err != nil {
		t.Fatal(err)
	}
	col2 := c2.GetCollection("c")
	id, err := c2.AllocDocID(col2)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(id) <= 130 {
		t.Errorf("DocID %d reused after reopen", id)
	}
}

// TestRowRewriteKeepsDocIDCeiling: a collection row rewritten mid-chunk (here
// an index flag; index DDL is the same write) still carries the chunk
// ceiling, so a reopen never hands out an ID allocated before it.
func TestRowRewriteKeepsDocIDCeiling(t *testing.T) {
	c, pool := newCatalog(t)
	col := &Collection{Name: "c", Indexes: []ValueIndexMeta{{Name: "ix", SingleValued: true}}}
	if err := c.AddCollection(col); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := c.AllocDocID(col); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ClearSingleValued(col, "ix"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllocDocID(col); err != nil { // 8: no catalog write
		t.Fatal(err)
	}
	c2, err := Open(pool)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c2.AllocDocID(c2.GetCollection("c"))
	if err != nil {
		t.Fatal(err)
	}
	if id <= 8 {
		t.Errorf("DocID %d reused after a mid-chunk row rewrite and a reopen", id)
	}
}

func TestSchemas(t *testing.T) {
	c, pool := newCatalog(t)
	bin := []byte{1, 2, 3, 4}
	if err := c.RegisterSchema("po", bin); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterSchema("po", bin); err == nil {
		t.Error("duplicate schema should fail")
	}
	if got := c.GetSchema("po"); string(got) != string(bin) {
		t.Errorf("GetSchema = %v", got)
	}
	if c.GetSchema("none") != nil {
		t.Error("missing schema should be nil")
	}
	c2, err := Open(pool)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.GetSchema("po"); string(got) != string(bin) {
		t.Errorf("reopened GetSchema = %v", got)
	}
	if s := c2.Schemas(); len(s) != 1 || s[0] != "po" {
		t.Errorf("Schemas = %v", s)
	}
}

func TestBootstrapNonEmptyFails(t *testing.T) {
	pool := buffer.New(pagestore.NewMemStore(), 16)
	f, _ := pool.NewPage()
	pool.Unpin(f, false)
	if _, err := Bootstrap(pool); err == nil {
		t.Error("Bootstrap on non-empty store should fail")
	}
}

func TestOpenBadMagic(t *testing.T) {
	pool := buffer.New(pagestore.NewMemStore(), 16)
	f, _ := pool.NewPage()
	pool.Unpin(f, false)
	if _, err := Open(pool); err == nil {
		t.Error("Open with bad magic should fail")
	}
}

func TestManyNames(t *testing.T) {
	c, pool := newCatalog(t)
	ids := map[xml.NameID]string{}
	for i := 0; i < 3000; i++ {
		name := "name-" + string(rune('a'+i%26)) + string(rune('0'+i%10)) + itoa(i)
		id, err := c.Intern(name)
		if err != nil {
			t.Fatal(err)
		}
		ids[id] = name
	}
	c2, err := Open(pool)
	if err != nil {
		t.Fatal(err)
	}
	for id, name := range ids {
		got, err := c2.Lookup(id)
		if err != nil || got != name {
			t.Fatalf("Lookup(%d) = %q, %v; want %q", id, got, err, name)
		}
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
