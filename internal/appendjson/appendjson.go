// Package appendjson appends JSON scalars to a byte slice, emitting exactly
// the bytes encoding/json's Marshal and Encoder emit for the same Go value
// (with their default HTML escaping). The checkpoint writers build their
// records with it, so a record costs one reused buffer instead of a
// reflection walk and an allocation per time value, while the checkpoint
// bytes stay those of the encoding/json structs the readers decode. The
// differential tests compare every function here, and the writers built on
// it, against encoding/json.
package appendjson

import (
	"errors"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// htmlSafe reports the ASCII bytes encoding/json copies into a string
// verbatim: everything but the control characters, '"', '\\', and the
// HTML-significant '<', '>' and '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

// String appends s as a JSON string: control characters, '"', '\\', '<',
// '>', '&', U+2028 and U+2029 are escaped, and each byte of invalid UTF-8
// becomes the escape \ufffd.
func String[S ~string | ~[]byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		n := min(len(s)-i, utf8.UTFMax)
		c, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Time appends t as time.Time.MarshalJSON renders it: a quoted RFC 3339
// timestamp with nanoseconds. A time MarshalJSON refuses (a year outside
// [0,9999], a zone offset of 24 hours or more) returns MarshalJSON's error
// and dst unchanged.
func Time(dst []byte, t time.Time) ([]byte, error) {
	n0 := len(dst)
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	if !strictRFC3339(dst[n0+1:]) {
		// Out of the fast path's range: defer to MarshalJSON itself.
		b, err := t.MarshalJSON()
		if err != nil {
			return dst[:n0], err
		}
		return append(dst[:n0], b...), nil
	}
	return append(dst, '"'), nil
}

// strictRFC3339 applies time.Time.MarshalJSON's range checks to an RFC 3339
// rendering: a four-digit year and a zone hour below 24.
func strictRFC3339(b []byte) bool {
	if len(b) < len("2006-01-02T15:04:05Z") || b[len("2006")] != '-' {
		return false
	}
	if b[len(b)-1] == 'Z' {
		return true
	}
	c := b[len(b)-len("Z07:00")]
	hour := 10*(b[len(b)-len("07:00")]-'0') + (b[len(b)-len("7:00")] - '0')
	return (c < '0' || c > '9') && hour < 24
}

// Float appends f as encoding/json renders a float64: the shortest
// round-tripping decimal, in exponent form below 1e-6 and from 1e21 on.
// NaN and the infinities have no JSON form and return an error.
func Float(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// encoding/json writes e-7, not strconv's e-07.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
