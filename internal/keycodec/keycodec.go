// Package keycodec builds order-preserving byte-string encodings for B+tree
// keys. The XPath value indexes of §3.3/§4.3 store composite keys
// (keyval, DocID, NodeID, RID) whose byte order must equal the value order of
// each component; this package provides the component codecs:
//
//   - strings (escaped so they self-delimit inside composite keys),
//   - float64 (IEEE 754 total order),
//   - int64/uint64,
//   - dates (days since epoch),
//   - decimal — the paper uses IEEE 754r decimal floating point "which
//     provides precise values within its range" (§4.3); Decimal here is an
//     arbitrary-precision base-10 value with an order-preserving encoding.
package keycodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"
)

// String appends an order-preserving, self-delimiting encoding of s to dst.
// 0x00 bytes are escaped as 0x00 0xFF and the value is terminated by
// 0x00 0x01, so that no encoded string is a prefix of another and byte order
// equals string order.
func String(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x01)
}

// DecodeString decodes a String-encoded value from b, returning the value
// and the remaining bytes.
func DecodeString(b []byte) (string, []byte, error) {
	var sb strings.Builder
	for i := 0; i < len(b); {
		c := b[i]
		if c != 0x00 {
			sb.WriteByte(c)
			i++
			continue
		}
		if i+1 >= len(b) {
			return "", nil, errors.New("keycodec: truncated string")
		}
		switch b[i+1] {
		case 0xFF:
			sb.WriteByte(0x00)
			i += 2
		case 0x01:
			return sb.String(), b[i+2:], nil
		default:
			return "", nil, fmt.Errorf("keycodec: bad string escape 0x%02x", b[i+1])
		}
	}
	return "", nil, errors.New("keycodec: unterminated string")
}

// SkipString returns the bytes after the String-encoded value at the start
// of b, without decoding it: DecodeString's rest, and its error on the same
// truncated, unterminated or badly escaped input.
func SkipString(b []byte) ([]byte, error) {
	for i := 0; i < len(b); i++ {
		if b[i] != 0x00 {
			continue
		}
		if i+1 >= len(b) {
			return nil, errors.New("keycodec: truncated string")
		}
		switch b[i+1] {
		case 0xFF:
			i++
		case 0x01:
			return b[i+2:], nil
		default:
			return nil, fmt.Errorf("keycodec: bad string escape 0x%02x", b[i+1])
		}
	}
	return nil, errors.New("keycodec: unterminated string")
}

// Uint64 appends a big-endian uint64 (already order-preserving).
func Uint64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

// DecodeUint64 decodes a Uint64-encoded value.
func DecodeUint64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, errors.New("keycodec: truncated uint64")
	}
	return binary.BigEndian.Uint64(b), b[8:], nil
}

// Int64 appends an order-preserving encoding of a signed integer (sign bit
// flipped so negative values sort first).
func Int64(dst []byte, v int64) []byte {
	return Uint64(dst, uint64(v)^(1<<63))
}

// DecodeInt64 decodes an Int64-encoded value.
func DecodeInt64(b []byte) (int64, []byte, error) {
	u, rest, err := DecodeUint64(b)
	if err != nil {
		return 0, nil, err
	}
	return int64(u ^ (1 << 63)), rest, nil
}

// Float64 appends an order-preserving encoding of an IEEE 754 double:
// positive values get the sign bit set; negative values are bit-inverted.
// NaN is rejected (XPath comparisons with NaN never match, so NaN values
// are simply not indexed).
func Float64(dst []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) {
		return nil, errors.New("keycodec: NaN is not indexable")
	}
	bits := math.Float64bits(v)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	return Uint64(dst, bits), nil
}

// DecodeFloat64 decodes a Float64-encoded value.
func DecodeFloat64(b []byte) (float64, []byte, error) {
	u, rest, err := DecodeUint64(b)
	if err != nil {
		return 0, nil, err
	}
	if u&(1<<63) != 0 {
		u &^= 1 << 63
	} else {
		u = ^u
	}
	return math.Float64frombits(u), rest, nil
}

// Date appends an order-preserving encoding of an ISO date (yyyy-mm-dd) as
// days since the Unix epoch.
func Date(dst []byte, iso string) ([]byte, error) {
	t, err := time.Parse("2006-01-02", strings.TrimSpace(iso))
	if err != nil {
		return nil, fmt.Errorf("keycodec: bad date %q: %v", iso, err)
	}
	days := t.Unix() / 86400
	if t.Unix() < 0 && t.Unix()%86400 != 0 {
		days--
	}
	return Int64(dst, days), nil
}

// DecodeDate decodes a Date-encoded value back to ISO form.
func DecodeDate(b []byte) (string, []byte, error) {
	days, rest, err := DecodeInt64(b)
	if err != nil {
		return "", nil, err
	}
	return time.Unix(days*86400, 0).UTC().Format("2006-01-02"), rest, nil
}

// Bytes appends a self-delimiting encoding of an arbitrary byte string using
// the same escaping as String.
func Bytes(dst []byte, v []byte) []byte {
	for _, c := range v {
		if c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x01)
}

// DecodeBytes decodes a Bytes-encoded value.
func DecodeBytes(b []byte) ([]byte, []byte, error) {
	s, rest, err := DecodeString(b)
	return []byte(s), rest, err
}

// Decimal is an arbitrary-precision base-10 number in the spirit of the
// IEEE 754r decimal type the paper adopts for numeric value indexing: it
// represents decimal literals exactly (no binary rounding).
//
// Normal form: Neg flag, Digits (no leading or trailing zeros; empty means
// zero), and Exp such that the value is 0.Digits × 10^Exp.
type Decimal struct {
	Neg    bool
	Digits string
	Exp    int32
}

// ParseDecimal parses a decimal literal: optional sign, digits, optional
// fraction ("-12.0340" etc.). Exponents ("1e5") are not part of XPath decimal
// literals and are rejected.
func ParseDecimal(s string) (Decimal, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Decimal{}, errors.New("keycodec: empty decimal")
	}
	var d Decimal
	i := 0
	switch s[0] {
	case '-':
		d.Neg = true
		i++
	case '+':
		i++
	}
	intPart, fracPart := "", ""
	j := i
	for j < len(s) && s[j] >= '0' && s[j] <= '9' {
		j++
	}
	intPart = s[i:j]
	if j < len(s) {
		if s[j] != '.' {
			return Decimal{}, fmt.Errorf("keycodec: bad decimal %q", s)
		}
		k := j + 1
		for k < len(s) && s[k] >= '0' && s[k] <= '9' {
			k++
		}
		if k != len(s) {
			return Decimal{}, fmt.Errorf("keycodec: bad decimal %q", s)
		}
		fracPart = s[j+1 : k]
	}
	if intPart == "" && fracPart == "" {
		return Decimal{}, fmt.Errorf("keycodec: bad decimal %q", s)
	}
	digits := intPart + fracPart
	exp := int32(len(intPart))
	// Strip leading zeros (adjusting the exponent) and trailing zeros.
	lead := 0
	for lead < len(digits) && digits[lead] == '0' {
		lead++
	}
	digits = digits[lead:]
	exp -= int32(lead)
	trail := len(digits)
	for trail > 0 && digits[trail-1] == '0' {
		trail--
	}
	digits = digits[:trail]
	if digits == "" {
		return Decimal{}, nil // zero: Neg normalized away
	}
	d.Digits = digits
	d.Exp = exp
	return d, nil
}

// IsZero reports whether d is zero.
func (d Decimal) IsZero() bool { return d.Digits == "" }

// String renders the decimal in plain notation.
func (d Decimal) String() string {
	if d.IsZero() {
		return "0"
	}
	var sb strings.Builder
	if d.Neg {
		sb.WriteByte('-')
	}
	switch {
	case d.Exp <= 0:
		sb.WriteString("0.")
		for i := int32(0); i < -d.Exp; i++ {
			sb.WriteByte('0')
		}
		sb.WriteString(d.Digits)
	case int(d.Exp) >= len(d.Digits):
		sb.WriteString(d.Digits)
		for i := len(d.Digits); i < int(d.Exp); i++ {
			sb.WriteByte('0')
		}
	default:
		sb.WriteString(d.Digits[:d.Exp])
		sb.WriteByte('.')
		sb.WriteString(d.Digits[d.Exp:])
	}
	return sb.String()
}

// Cmp compares two decimals: -1, 0 or +1.
func (d Decimal) Cmp(o Decimal) int {
	if d.IsZero() || o.IsZero() {
		switch {
		case d.IsZero() && o.IsZero():
			return 0
		case d.IsZero():
			if o.Neg {
				return 1
			}
			return -1
		default:
			if d.Neg {
				return -1
			}
			return 1
		}
	}
	if d.Neg != o.Neg {
		if d.Neg {
			return -1
		}
		return 1
	}
	mag := d.cmpMagnitude(o)
	if d.Neg {
		return -mag
	}
	return mag
}

func (d Decimal) cmpMagnitude(o Decimal) int {
	if d.Exp != o.Exp {
		if d.Exp < o.Exp {
			return -1
		}
		return 1
	}
	a, b := d.Digits, o.Digits
	if c := strings.Compare(a, b); c != 0 {
		// Same-length prefix comparison is fine because digits have no
		// leading zeros; longer digit strings with an equal prefix are
		// larger in magnitude.
		return c
	}
	return 0
}

// EncodeDecimal appends an order-preserving encoding of d.
//
// Layout: sign class byte (0x01 negative, 0x02 zero, 0x03 positive), then
// for positive values the biased exponent (uint32 BE) followed by digit
// bytes ('0'+digit) and a 0x00 terminator; for negative values the same with
// every byte complemented (so larger magnitudes sort first) and a 0xFF
// terminator.
func EncodeDecimal(dst []byte, d Decimal) []byte {
	if d.IsZero() {
		return append(dst, 0x02)
	}
	biased := uint32(int64(d.Exp) + (1 << 31))
	if !d.Neg {
		dst = append(dst, 0x03)
		var e [4]byte
		binary.BigEndian.PutUint32(e[:], biased)
		dst = append(dst, e[:]...)
		for i := 0; i < len(d.Digits); i++ {
			dst = append(dst, d.Digits[i])
		}
		return append(dst, 0x00)
	}
	dst = append(dst, 0x01)
	var e [4]byte
	binary.BigEndian.PutUint32(e[:], biased)
	for _, c := range e {
		dst = append(dst, ^c)
	}
	for i := 0; i < len(d.Digits); i++ {
		dst = append(dst, ^d.Digits[i])
	}
	return append(dst, 0xFF)
}

// DecodeDecimal decodes an EncodeDecimal value.
func DecodeDecimal(b []byte) (Decimal, []byte, error) {
	if len(b) == 0 {
		return Decimal{}, nil, errors.New("keycodec: truncated decimal")
	}
	switch b[0] {
	case 0x02:
		return Decimal{}, b[1:], nil
	case 0x03:
		if len(b) < 6 {
			return Decimal{}, nil, errors.New("keycodec: truncated decimal")
		}
		exp := int32(int64(binary.BigEndian.Uint32(b[1:5])) - (1 << 31))
		i := 5
		var sb strings.Builder
		for i < len(b) && b[i] != 0x00 {
			sb.WriteByte(b[i])
			i++
		}
		if i == len(b) {
			return Decimal{}, nil, errors.New("keycodec: unterminated decimal")
		}
		return Decimal{Digits: sb.String(), Exp: exp}, b[i+1:], nil
	case 0x01:
		if len(b) < 6 {
			return Decimal{}, nil, errors.New("keycodec: truncated decimal")
		}
		var e [4]byte
		for i := 0; i < 4; i++ {
			e[i] = ^b[1+i]
		}
		exp := int32(int64(binary.BigEndian.Uint32(e[:])) - (1 << 31))
		i := 5
		var sb strings.Builder
		for i < len(b) && b[i] != 0xFF {
			sb.WriteByte(^b[i])
			i++
		}
		if i == len(b) {
			return Decimal{}, nil, errors.New("keycodec: unterminated decimal")
		}
		return Decimal{Neg: true, Digits: sb.String(), Exp: exp}, b[i+1:], nil
	default:
		return Decimal{}, nil, fmt.Errorf("keycodec: bad decimal class 0x%02x", b[0])
	}
}

// Compare is a convenience wrapper over bytes.Compare for encoded keys.
func Compare(a, b []byte) int { return bytes.Compare(a, b) }
