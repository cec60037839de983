package xmlgen

import (
	"math/rand"
	"strings"
	"testing"

	"rx/internal/xml"
	"rx/internal/xmlparse"
)

func mustParse(t *testing.T, doc []byte) {
	t.Helper()
	dict := xml.NewDict()
	if _, err := xmlparse.Parse(doc, dict, xmlparse.Options{}); err != nil {
		t.Fatalf("generated document does not parse: %v\n%.200s", err, doc)
	}
}

func TestCatalog(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	doc := Catalog(rng, 25, 100)
	mustParse(t, doc)
	if got := strings.Count(string(doc), "<Product "); got != 25 {
		t.Errorf("products = %d", got)
	}
	if !strings.Contains(string(doc), "<RegPrice>") || !strings.Contains(string(doc), "<Discount>") {
		t.Error("Table-2 fields missing")
	}
}

func TestRecursive(t *testing.T) {
	doc := Recursive(10)
	mustParse(t, doc)
	if got := strings.Count(string(doc), "<a>"); got != 10 {
		t.Errorf("depth = %d", got)
	}
}

func TestShaped(t *testing.T) {
	doc := Shaped(100, 8)
	mustParse(t, doc)
	if got := strings.Count(string(doc), "<e>"); got != 100 {
		t.Errorf("elements = %d", got)
	}
	if !strings.Contains(string(doc), strings.Repeat("v", 8)) {
		t.Error("value size wrong")
	}
}

func TestProductAndParts(t *testing.T) {
	doc := Product(3)
	mustParse(t, doc)
	if got := strings.Count(string(doc), "<Part "); got != 16 {
		t.Errorf("parts = %d", got)
	}
	doc = Parts(42, 64)
	mustParse(t, doc)
	if got := strings.Count(string(doc), "<Qty>"); got != 64 || !strings.Contains(string(doc), "<Sku>SKU-42</Sku>") {
		t.Errorf("qty entries = %d in %.60s", got, doc)
	}
}
