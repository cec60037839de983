package keycodec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestStringRoundTripAndOrder(t *testing.T) {
	cases := []string{"", "a", "abc", "ab\x00cd", "\x00", "zz", "ab", "abc\x00"}
	for _, s := range cases {
		enc := String(nil, s)
		dec, rest, err := DecodeString(enc)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if dec != s || len(rest) != 0 {
			t.Errorf("%q: round trip got %q (rest %d)", s, dec, len(rest))
		}
	}
	f := func(a, b string) bool {
		ea, eb := String(nil, a), String(nil, b)
		return (strings.Compare(a, b) < 0) == (bytes.Compare(ea, eb) < 0) || a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Prefix freedom: "ab" must not be a prefix of "abc"'s encoding in a way
	// that breaks composite ordering.
	comp1 := String(nil, "ab")
	comp1 = Uint64(comp1, 999)
	comp2 := String(nil, "abc")
	comp2 = Uint64(comp2, 0)
	if bytes.Compare(comp1, comp2) >= 0 {
		t.Error("composite keys with string prefix misordered")
	}
}

func TestIntFloatOrder(t *testing.T) {
	f := func(a, b int64) bool {
		ea, eb := Int64(nil, a), Int64(nil, b)
		return (a < b) == (bytes.Compare(ea, eb) < 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ea, _ := Float64(nil, a)
		eb, _ := Float64(nil, b)
		if a == b {
			return bytes.Equal(ea, eb) || (a == 0 && b == 0) // ±0 encode differently; XPath treats them equal but index order is harmless
		}
		return (a < b) == (bytes.Compare(ea, eb) < 0)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Float64(nil, math.NaN()); err == nil {
		t.Error("NaN should be rejected")
	}
}

func TestFloatSpecials(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -1, -1e-300, 0, 1e-300, 1, 1e300, math.Inf(1)}
	var prev []byte
	for _, v := range vals {
		enc, err := Float64(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && bytes.Compare(prev, enc) >= 0 {
			t.Errorf("order violated at %g", v)
		}
		dec, _, err := DecodeFloat64(enc)
		if err != nil || dec != v {
			t.Errorf("round trip %g -> %g (%v)", v, dec, err)
		}
		prev = enc
	}
}

func TestIntRoundTrip(t *testing.T) {
	for _, v := range []int64{math.MinInt64, -1, 0, 1, math.MaxInt64} {
		enc := Int64(nil, v)
		dec, _, err := DecodeInt64(enc)
		if err != nil || dec != v {
			t.Errorf("%d -> %d (%v)", v, dec, err)
		}
	}
}

func TestDate(t *testing.T) {
	enc1, err := Date(nil, "2005-06-16") // the paper's workshop date
	if err != nil {
		t.Fatal(err)
	}
	enc2, _ := Date(nil, "2005-06-17")
	if bytes.Compare(enc1, enc2) >= 0 {
		t.Error("date order broken")
	}
	s, _, err := DecodeDate(enc1)
	if err != nil || s != "2005-06-16" {
		t.Errorf("round trip = %q, %v", s, err)
	}
	if _, err := Date(nil, "not-a-date"); err == nil {
		t.Error("bad date should fail")
	}
	old, err := Date(nil, "1905-01-01")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Compare(old, enc1) >= 0 {
		t.Error("pre-epoch date order broken")
	}
	s, _, _ = DecodeDate(old)
	if s != "1905-01-01" {
		t.Errorf("pre-epoch round trip = %q", s)
	}
}

func TestParseDecimal(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"0", "0"}, {"-0", "0"}, {"0.0", "0"}, {"00.00", "0"},
		{"1", "1"}, {"-1", "-1"}, {"1.5", "1.5"}, {"-12.0340", "-12.034"},
		{"0.001", "0.001"}, {"1000", "1000"}, {"+3.14", "3.14"},
		{".5", "0.5"}, {"5.", "5"},
	}
	for _, c := range cases {
		d, err := ParseDecimal(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if d.String() != c.want {
			t.Errorf("%q -> %q, want %q", c.in, d.String(), c.want)
		}
	}
	for _, bad := range []string{"", "abc", "1.2.3", "1e5", "--1", "."} {
		if _, err := ParseDecimal(bad); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
}

func TestDecimalCmpAndEncodeOrder(t *testing.T) {
	vals := []string{"-1000", "-999.999", "-1", "-0.5", "-0.055", "-0.0001",
		"0", "0.0001", "0.055", "0.5", "0.55", "1", "1.0001", "2", "999.999", "1000"}
	for i := 0; i < len(vals); i++ {
		for j := 0; j < len(vals); j++ {
			a, _ := ParseDecimal(vals[i])
			b, _ := ParseDecimal(vals[j])
			wantCmp := 0
			if i < j {
				wantCmp = -1
			} else if i > j {
				wantCmp = 1
			}
			if got := a.Cmp(b); got != wantCmp {
				t.Errorf("Cmp(%s, %s) = %d, want %d", vals[i], vals[j], got, wantCmp)
			}
			ea := EncodeDecimal(nil, a)
			eb := EncodeDecimal(nil, b)
			if got := bytes.Compare(ea, eb); got != wantCmp {
				t.Errorf("encoded Compare(%s, %s) = %d, want %d", vals[i], vals[j], got, wantCmp)
			}
		}
	}
}

func TestDecimalRoundTrip(t *testing.T) {
	for _, s := range []string{"0", "1.5", "-12.034", "0.001", "123456789.987654321"} {
		d, _ := ParseDecimal(s)
		enc := EncodeDecimal(nil, d)
		back, rest, err := DecodeDecimal(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: %v rest=%d", s, err, len(rest))
		}
		if back.Cmp(d) != 0 || back.String() != d.String() {
			t.Errorf("%s -> %s", d, back)
		}
	}
}

// Property: decimal encoding order matches numeric order for random decimals.
func TestDecimalOrderProperty(t *testing.T) {
	gen := func(rng *rand.Rand) Decimal {
		s := fmt.Sprintf("%d.%04d", rng.Intn(20001)-10000, rng.Intn(10000))
		d, err := ParseDecimal(s)
		if err != nil {
			panic(err)
		}
		return d
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		a, b := gen(rng), gen(rng)
		ea := EncodeDecimal(nil, a)
		eb := EncodeDecimal(nil, b)
		if a.Cmp(b) != bytes.Compare(ea, eb) {
			t.Fatalf("order mismatch: %s vs %s (cmp %d, bytes %d)", a, b, a.Cmp(b), bytes.Compare(ea, eb))
		}
	}
}

func TestBytesCodec(t *testing.T) {
	v := []byte{1, 0, 2, 0, 0, 3}
	enc := Bytes(nil, v)
	enc = Uint64(enc, 7)
	dec, rest, err := DecodeBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, v) {
		t.Errorf("got %x", dec)
	}
	u, _, _ := DecodeUint64(rest)
	if u != 7 {
		t.Errorf("suffix = %d", u)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeString([]byte{0x61}); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, _, err := DecodeUint64([]byte{1, 2}); err == nil {
		t.Error("short uint64 should fail")
	}
	if _, _, err := DecodeDecimal(nil); err == nil {
		t.Error("empty decimal should fail")
	}
	if _, _, err := DecodeDecimal([]byte{0x09}); err == nil {
		t.Error("bad class should fail")
	}
	if _, _, err := DecodeDecimal([]byte{0x03, 1, 2, 3, 4, '5'}); err == nil {
		t.Error("unterminated positive decimal should fail")
	}
}

// TestSkipStringAgreesWithDecodeString: SkipString finds the end DecodeString
// finds — across escaped 0x00 bytes and with a suffix after the value — and
// fails, with the same message, on every input DecodeString rejects, without
// allocating.
func TestSkipStringAgreesWithDecodeString(t *testing.T) {
	inputs := [][]byte{
		nil,
		{0x00},                   // truncated after the escape byte
		{0x61, 0x00},             // truncated
		{0x61},                   // unterminated
		{0x61, 0x00, 0xFF},       // an escaped 0x00, then unterminated
		{0x00, 0x02, 0x00, 0x01}, // bad escape before a terminator
		{0x00, 0xFF, 0x00, 0x7F}, // bad escape after an escaped 0x00
	}
	for _, s := range []string{"", "a", "ab\x00cd", "\x00", "\x00\x00", "abc\x00", "\xff\x01"} {
		enc := String(nil, s)
		inputs = append(inputs, enc, Uint64(bytes.Clone(enc), 42), enc[:len(enc)-1])
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(8))
		for j := range b {
			b[j] = []byte{0x00, 0x01, 0xFF, 0x61, 0x02}[rng.Intn(5)]
		}
		inputs = append(inputs, b)
	}
	for _, in := range inputs {
		_, wantRest, wantErr := DecodeString(in)
		rest, err := SkipString(in)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%x: SkipString error %v, DecodeString %v", in, err, wantErr)
		}
		if err == nil && (len(rest) != len(wantRest) || !bytes.Equal(rest, wantRest)) {
			t.Fatalf("%x: SkipString rest %x, DecodeString %x", in, rest, wantRest)
		}
	}
	key := Uint64(String(nil, "customer\x00name"), 7)
	if n := testing.AllocsPerRun(100, func() { _, _ = SkipString(key) }); n != 0 {
		t.Errorf("SkipString: %v allocs, want 0", n)
	}
}
