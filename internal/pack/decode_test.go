package pack

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"rx/internal/xml"
)

// refHeader decodes an element, attribute or text entry the reference way —
// every varint through binary.Uvarint, no fast path — returning the header
// fields in order, the value (leaves), and the offset just past the entry.
func refHeader(body []byte) (fields []uint64, value []byte, end int, err error) {
	if len(body) == 0 {
		return nil, nil, 0, ErrCorrupt
	}
	kind, pos := xml.Kind(body[0]), 1
	for { // relative ID: odd bytes, then one even nonzero byte
		if pos >= len(body) {
			return nil, nil, 0, ErrCorrupt
		}
		c := body[pos]
		pos++
		if c%2 == 0 {
			if c == 0 {
				return nil, nil, 0, ErrCorrupt
			}
			break
		}
	}
	next := func() (uint64, error) {
		v, n := binary.Uvarint(body[pos:])
		if n <= 0 {
			return 0, ErrCorrupt
		}
		pos += n
		return v, nil
	}
	count := map[xml.Kind]int{xml.Element: 5, xml.Attribute: 4, xml.Text: 2}[kind]
	for i := 0; i < count; i++ {
		v, err := next()
		if err != nil {
			return nil, nil, 0, err
		}
		fields = append(fields, v)
	}
	l := fields[count-1]
	if l > uint64(len(body)-pos) { // unsigned: a huge length is too long, not negative
		return nil, nil, 0, ErrCorrupt
	}
	end = pos + int(l)
	if kind != xml.Element {
		value = body[pos:end]
	}
	return fields, value, end, nil
}

// checkHeader decodes body's first entry with decodeNodeAt and holds it to
// the reference: an error exactly when the reference errs, and otherwise the
// same fields, value and end.
func checkHeader(t *testing.T, what string, body []byte) {
	t.Helper()
	wantFields, wantValue, wantEnd, wantErr := refHeader(body)
	r := &Record{body: body, SubtreeCount: 1}
	var n Node
	err := r.decodeNodeAt(&n, 0)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s % x: decodeNodeAt err %v, reference err %v", what, body, err, wantErr)
	}
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s % x: err %v is not ErrCorrupt", what, body, err)
		}
		return
	}
	// Names and types are narrower than a varint: compare them narrowed.
	name := func(v uint64) uint64 { return uint64(xml.NameID(v)) }
	typ := func(v uint64) uint64 { return uint64(xml.TypeID(v)) }
	var got []uint64
	w := wantFields
	switch n.Kind {
	case xml.Element:
		got = []uint64{uint64(n.Name.URI), uint64(n.Name.Local), uint64(n.Type), uint64(n.EntryCount), uint64(n.BodyLen)}
		wantFields = []uint64{name(w[0]), name(w[1]), typ(w[2]), w[3], w[4]}
	case xml.Attribute:
		got = []uint64{uint64(n.Name.URI), uint64(n.Name.Local), uint64(n.Type), uint64(len(n.Value))}
		wantFields = []uint64{name(w[0]), name(w[1]), typ(w[2]), w[3]}
	case xml.Text:
		got = []uint64{uint64(n.Type), uint64(len(n.Value))}
		wantFields = []uint64{typ(w[0]), w[1]}
	}
	if !equalFields(got, wantFields) || !bytes.Equal(n.Value, wantValue) || n.end != wantEnd {
		t.Fatalf("%s % x: decoded %v value %q end %d, reference %v %q %d", what, body, got, n.Value, n.end, wantFields, wantValue, wantEnd)
	}
}

func equalFields(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// entry assembles an entry: kind, relative ID 0x02, each field as given
// (already varint-encoded), then tail.
func entry(kind xml.Kind, fields [][]byte, tail []byte) []byte {
	b := []byte{byte(kind), 0x02}
	for _, f := range fields {
		b = append(b, f...)
	}
	return append(b, tail...)
}

func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }

// TestDecodeHeaderDifferential is the oracle of the element-header fast path
// and the one-byte leaf varints: over malformed element, attribute and text
// headers — truncated at every byte, an 11-byte overlong varint in every
// field, five one-byte fields ending exactly at the end of the body, a
// length running past the end or overflowing int — and random bytes,
// decodeNodeAt fails with
// ErrCorrupt exactly when the plain binary.Uvarint decode does, and decodes
// the same thing when it does not.
func TestDecodeHeaderDifferential(t *testing.T) {
	overlong := append(bytes.Repeat([]byte{0x80}, 10), 0x01) // 11 bytes: overflows uint64
	shapes := []struct {
		name   string
		kind   xml.Kind
		fields [][]byte
		tail   []byte
	}{
		{"element/one-byte", xml.Element, [][]byte{uv(0), uv(7), uv(0), uv(1), uv(3)}, []byte{byte(xml.Comment), 0x02, 0x00}},
		{"element/multi-byte", xml.Element, [][]byte{uv(300), uv(70000), uv(129), uv(200), uv(3)}, []byte{byte(xml.Comment), 0x02, 0x00}},
		{"element/long-body", xml.Element, [][]byte{uv(0), uv(7), uv(0), uv(1), uv(150)}, append([]byte{byte(xml.Text), 0x02, 0x00, 0x80, 0x01}, bytes.Repeat([]byte{'x'}, 128)...)},
		{"attribute/one-byte", xml.Attribute, [][]byte{uv(0), uv(9), uv(0), uv(3)}, []byte("abc")},
		{"attribute/multi-byte", xml.Attribute, [][]byte{uv(1 << 20), uv(9), uv(128), uv(3)}, []byte("abc")},
		{"text/one-byte", xml.Text, [][]byte{uv(0), uv(4)}, []byte("text")},
		{"text/long-value", xml.Text, [][]byte{uv(3), uv(130)}, bytes.Repeat([]byte{'v'}, 130)},
	}
	// Each variant is checked whole and truncated at every byte.
	check := func(what string, b []byte) {
		for i := 0; i <= len(b); i++ {
			checkHeader(t, what, b[:i])
		}
	}
	for _, s := range shapes {
		check(s.name, entry(s.kind, s.fields, s.tail))
		for k := range s.fields {
			fs := append([][]byte(nil), s.fields...)
			fs[k] = overlong
			check(s.name+"/overlong", entry(s.kind, fs, s.tail))
		}
		// The last field (body or value length) one past what follows, and
		// lengths that overflow int.
		for _, l := range []uint64{uint64(len(s.tail)) + 1, 1 << 63, 1<<64 - 1} {
			fs := append([][]byte(nil), s.fields...)
			fs[len(fs)-1] = uv(l)
			check(s.name+"/length-past-end", entry(s.kind, fs, s.tail))
		}
	}
	// Five one-byte element fields ending exactly at the end of the body:
	// an empty element (valid), and one claiming a byte of content (not).
	checkHeader(t, "element/five-bytes-at-end", entry(xml.Element, [][]byte{uv(0), uv(5), uv(0), uv(0), uv(0)}, nil))
	checkHeader(t, "element/five-bytes-at-end-body-1", entry(xml.Element, [][]byte{uv(0), uv(5), uv(0), uv(0), uv(1)}, nil))
	checkHeader(t, "element/four-bytes-at-end", entry(xml.Element, [][]byte{uv(0), uv(5), uv(0), uv(0)}, nil))
	// A record header whose context-ID length overflows int.
	for _, l := range []uint64{1 << 63, 1<<64 - 1} {
		if _, err := Decode(append(uv(l), 0, 0)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("context-ID length %d: err %v, want ErrCorrupt", l, err)
		}
	}
	// Random headers: biased toward small bytes, so that both the fast path
	// and its fallback see valid and invalid input.
	rng := rand.New(rand.NewSource(5))
	kinds := []xml.Kind{xml.Element, xml.Attribute, xml.Text}
	for i := 0; i < 20000; i++ {
		b := []byte{byte(kinds[rng.Intn(len(kinds))]), 0x02}
		for j := rng.Intn(14); j > 0; j-- {
			c := byte(rng.Intn(8))
			if rng.Intn(4) == 0 {
				c = byte(rng.Intn(256))
			}
			b = append(b, c)
		}
		checkHeader(t, "random", b)
	}
}
