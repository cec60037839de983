package valueindex

import (
	"errors"
	"fmt"
	"testing"

	"rx/internal/buffer"
	"rx/internal/heap"
	"rx/internal/nodeid"
	"rx/internal/pagestore"
	"rx/internal/xml"
	"rx/internal/xpath"
)

func newIndex(t *testing.T, path string, typ xml.TypeID) *Index {
	t.Helper()
	pool := buffer.New(pagestore.NewMemStore(), 256)
	ix, err := Create(pool, path, typ)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func nid(i int) nodeid.ID { return nodeid.Append(nodeid.Root, nodeid.RelAt(i)) }

func rid(i int) heap.RID { return heap.RID{Page: pagestore.PageID(i), Slot: 0} }

func TestCreateValidation(t *testing.T) {
	pool := buffer.New(pagestore.NewMemStore(), 64)
	if _, err := Create(pool, "/a/b[c]", xml.TDouble); err == nil {
		t.Error("predicate in index path should fail")
	}
	if _, err := Create(pool, "a/b", xml.TDouble); err == nil {
		t.Error("relative index path should fail")
	}
	if _, err := Create(pool, "/a/b", xml.TBoolean); err == nil {
		t.Error("unsupported type should fail")
	}
	if _, err := Create(pool, "/catalog//productname", xml.TString); err != nil {
		t.Errorf("the paper's example path should be accepted: %v", err)
	}
}

func TestDoubleRangeScans(t *testing.T) {
	ix := newIndex(t, "//price", xml.TDouble)
	vals := []string{"10", "25.5", "99.99", "100", "100.01", "250", "-5"}
	for i, v := range vals {
		if err := ix.Put([]byte(v), xml.DocID(i/3+1), nid(i), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Unparsable values are rejected, not stored.
	if err := ix.Put([]byte("n/a"), 9, nid(99), rid(99)); err == nil {
		t.Error("unparsable double should be ErrNotIndexable")
	}

	scan := func(op xpath.CmpOp, lit float64) []string {
		r, err := ix.RangeForOp(op, xpath.Literal{IsNum: true, Num: lit})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		ix.Scan(r, func(e Entry) bool {
			got = append(got, fmt.Sprintf("%d/%s", e.Doc, e.Node))
			return true
		})
		return got
	}
	if got := scan(xpath.GT, 100); len(got) != 2 {
		t.Errorf("GT 100: %v", got)
	}
	if got := scan(xpath.GE, 100); len(got) != 3 {
		t.Errorf("GE 100: %v", got)
	}
	if got := scan(xpath.EQ, 100); len(got) != 1 {
		t.Errorf("EQ 100: %v", got)
	}
	if got := scan(xpath.LT, 10); len(got) != 1 {
		t.Errorf("LT 10: %v", got)
	}
	if got := scan(xpath.LE, 10); len(got) != 2 {
		t.Errorf("LE 10: %v", got)
	}
}

func TestStringIndex(t *testing.T) {
	ix := newIndex(t, "/catalog//productname", xml.TString)
	names := []string{"anvil", "widget", "gadget", "anvil"}
	for i, n := range names {
		if err := ix.Put([]byte(n), xml.DocID(i+1), nid(0), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	r, _ := ix.RangeForOp(xpath.EQ, xpath.Literal{Str: "anvil"})
	var docs []xml.DocID
	ix.Scan(r, func(e Entry) bool { docs = append(docs, e.Doc); return true })
	if len(docs) != 2 || docs[0] != 1 || docs[1] != 4 {
		t.Errorf("EQ anvil: %v", docs)
	}
}

func TestDateAndDecimal(t *testing.T) {
	dix := newIndex(t, "//hire", xml.TDate)
	dix.Put([]byte("2005-06-16"), 1, nid(0), rid(0))
	dix.Put([]byte("1999-01-01"), 2, nid(0), rid(1))
	r, err := dix.RangeForOp(xpath.GT, xpath.Literal{Str: "2000-01-01"})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	dix.Scan(r, func(e Entry) bool { n++; return true })
	if n != 1 {
		t.Errorf("date GT: %d", n)
	}

	cix := newIndex(t, "//amount", xml.TDecimal)
	cix.Put([]byte("10.50"), 1, nid(0), rid(0))
	cix.Put([]byte("10.05"), 2, nid(0), rid(1))
	cix.Put([]byte("-3"), 3, nid(0), rid(2))
	r2, _ := cix.RangeForOp(xpath.GE, xpath.Literal{IsNum: true, Num: 10.05})
	var docs []xml.DocID
	cix.Scan(r2, func(e Entry) bool { docs = append(docs, e.Doc); return true })
	if len(docs) != 2 {
		t.Errorf("decimal GE: %v", docs)
	}
}

func TestDeleteAndDocDelete(t *testing.T) {
	ix := newIndex(t, "//v", xml.TDouble)
	for i := 0; i < 10; i++ {
		ix.Put([]byte(fmt.Sprint(i)), xml.DocID(i%2+1), nid(i), rid(i))
	}
	if err := ix.Delete([]byte("4"), 1, nid(4)); err != nil {
		t.Fatal(err)
	}
	// DeleteValue takes every node of one document holding the value, and
	// nothing of its neighbours in key order.
	for i := 20; i < 23; i++ {
		for doc := xml.DocID(1); doc <= 3; doc++ {
			ix.Put([]byte("70"), doc, nid(i), rid(i))
		}
	}
	n, err := ix.DeleteValue([]byte("70"), 2)
	if err != nil || n != 3 {
		t.Fatalf("DeleteValue = %d, %v", n, err)
	}
	total, _ := ix.Count()
	if total != 9+6 {
		t.Errorf("Count = %d", total)
	}
	if _, err := ix.DeleteValue([]byte("x"), 2); !errors.Is(err, ErrNotIndexable) {
		t.Errorf("DeleteValue of an unconvertible value: %v", err)
	}
}

// TestMalformedEntryFailsScan: an entry too short to hold its DocID must fail
// the scan that reaches it rather than end it early with a nil error and a
// subset of the answer.
func TestMalformedEntryFailsScan(t *testing.T) {
	ix := newIndex(t, "//v", xml.TDouble)
	for i, v := range []string{"1", "5", "9"} {
		if err := ix.Put([]byte(v), xml.DocID(i+1), nid(i), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	enc, err := ix.EncodeValue([]byte("5"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Tree().Put(append(enc, 0, 0, 0), rid(7).Bytes()); err != nil {
		t.Fatal(err)
	}
	r, err := ix.RangeForOp(xpath.GE, xpath.Literal{IsNum: true, Num: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := ix.Scan(r, func(Entry) bool { n++; return true }); err == nil {
		t.Fatalf("scan over the short key returned %d entries and no error", n)
	}
}

func TestStringTruncation(t *testing.T) {
	ix := newIndex(t, "//s", xml.TString)
	long := make([]byte, MaxStringKey+50)
	for i := range long {
		long[i] = 'a'
	}
	if err := ix.Put(long, 1, nid(0), rid(0)); err != nil {
		t.Fatal(err)
	}
	n, _ := ix.Count()
	if n != 1 {
		t.Errorf("Count = %d", n)
	}
}

// TestEstimateMatchesScan: the estimate of every RangeForOp operator's range
// equals the count Scan visits, over duplicate values, literals between and
// beyond the stored ones, and a string index whose encodings vary in length.
// The index spans a few leaves, so every range is inside the B+tree's exact
// window and the check is equality: the two share one conversion of a Range
// to key bounds, strict and inclusive ends alike.
func TestEstimateMatchesScan(t *testing.T) {
	num := newIndex(t, "//v", xml.TDouble)
	str := newIndex(t, "//s", xml.TString)
	for i := 0; i < 600; i++ {
		v := []byte(fmt.Sprint(i % 30))
		if err := num.Put(v, xml.DocID(i), nid(i%7), rid(i)); err != nil {
			t.Fatal(err)
		}
		if err := str.Put(append([]byte("s"), v...), xml.DocID(i), nid(i%7), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if h, err := num.Tree().Height(); err != nil || h < 2 {
		t.Fatalf("height %d, %v: the index must span more than one leaf", h, err)
	}
	check := func(ix *Index, op xpath.CmpOp, lit xpath.Literal) {
		t.Helper()
		r, err := ix.RangeForOp(op, lit)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if err := ix.Scan(r, func(Entry) bool { want++; return true }); err != nil {
			t.Fatal(err)
		}
		got, err := ix.Estimate(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != float64(want) {
			t.Fatalf("%v %v: estimate %v, scan %d", op, lit, got, want)
		}
	}
	for _, op := range []xpath.CmpOp{xpath.EQ, xpath.LT, xpath.LE, xpath.GT, xpath.GE} {
		for _, x := range []float64{-1, 0, 0.5, 7, 13.5, 29, 30, 100} {
			check(num, op, xpath.Literal{IsNum: true, Num: x})
		}
		for _, s := range []string{"", "s", "s0", "s1", "s15", "s29", "s3", "t"} {
			check(str, op, xpath.Literal{Str: s})
		}
	}
	// An inverted window, as a merged conjunct pair produces, is empty.
	lo, _ := num.RangeForOp(xpath.GT, xpath.Literal{IsNum: true, Num: 20})
	hi, _ := num.RangeForOp(xpath.LT, xpath.Literal{IsNum: true, Num: 10})
	if got, err := num.Estimate(Range{Lo: lo.Lo, LoStrict: true, Hi: hi.Hi, HiStrict: true}); err != nil || got != 0 {
		t.Fatalf("inverted window: estimate %v, %v", got, err)
	}
}
