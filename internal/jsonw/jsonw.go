// Package jsonw appends JSON text byte for byte as encoding/json writes it —
// HTML-safe string escapes, ES6 number formatting — for wire formats written
// field by field instead of reflected. A Writer places the commas itself.
package jsonw

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Writer appends JSON to B. The first float JSON cannot carry (NaN, ±Inf) is
// kept for Err; B is meaningless after it.
type Writer struct {
	B   []byte
	err error
}

// Err returns the first unencodable value's error, worded as encoding/json's.
func (w *Writer) Err() error { return w.err }

// sep appends a comma unless the key or value that follows opens its object
// or array or follows its key.
func (w *Writer) sep() {
	if n := len(w.B); n > 0 && w.B[n-1] != '{' && w.B[n-1] != '[' && w.B[n-1] != ':' {
		w.B = append(w.B, ',')
	}
}

// Key writes an object key and returns w for its value.
func (w *Writer) Key(k string) *Writer { w.String(k); w.B = append(w.B, ':'); return w }

// QuotedKey is Key for a key String has quoted already.
func (w *Writer) QuotedKey(q string) *Writer { w.sep(); w.B = append(append(w.B, q...), ':'); return w }

// Open starts an object or an array ('{', '['); Close ends one ('}', ']').
func (w *Writer) Open(c byte)  { w.sep(); w.B = append(w.B, c) }
func (w *Writer) Close(c byte) { w.B = append(w.B, c) }

// Int and Bool write an integer and a boolean.
func (w *Writer) Int(n int64) { w.sep(); w.B = strconv.AppendInt(w.B, n, 10) }
func (w *Writer) Bool(v bool) { w.sep(); w.B = strconv.AppendBool(w.B, v) }

// Float writes f in 'f' format, or in 'e' format outside [1e-6, 1e21) with
// the exponent's leading zero dropped.
func (w *Writer) Float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	w.sep()
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.B = strconv.AppendFloat(w.B, f, format, -1, 64)
	if n := len(w.B); format == 'e' && w.B[n-4] == 'e' && w.B[n-3] == '-' && w.B[n-2] == '0' {
		w.B = append(w.B[:n-2], w.B[n-1])
	}
}

// String writes a quoted string. It escapes control bytes, '"', '\\', '<',
// '>', '&', U+2028 and U+2029, and writes each invalid UTF-8 byte as \ufffd.
func (w *Writer) String(s string) { w.sep(); w.B = appendQuoted(w.B, s) }

// StringBytes writes s as String writes string(s).
func (w *Writer) StringBytes(s []byte) { w.sep(); w.B = appendQuoted(w.B, s) }

func appendQuoted[S string | []byte](b []byte, s S) []byte {
	b, start := append(b, '"'), 0
	for i := 0; i < len(s); {
		c, r, size := s[i], rune(s[i]), 1
		if c < utf8.RuneSelf {
			if plain[c] {
				i++
				continue
			}
		} else if r, size = decodeRune(s[i:]); r != '\u2028' && r != '\u2029' && (r != utf8.RuneError || size > 1) {
			i += size
			continue
		}
		b = append(b, s[start:i]...)
		if j := strings.IndexByte("\b\f\n\r\t\"\\", c); j >= 0 {
			b = append(b, '\\', "bfnrt\"\\"[j])
		} else if r == utf8.RuneError {
			b = append(b, `\ufffd`...)
		} else {
			b = append(b, '\\', 'u', hex[r>>12&0xF], hex[r>>8&0xF], hex[r>>4&0xF], hex[r&0xF])
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// decodeRune is utf8.DecodeRune for either a string or a byte slice.
func decodeRune[S string | []byte](s S) (rune, int) {
	var buf [utf8.UTFMax]byte
	return utf8.DecodeRune(buf[:copy(buf[:], s)])
}

const hex = "0123456789abcdef"

// plain marks the ASCII bytes String copies as they are.
var plain = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return t
}()

// Strings writes a string array, or null for a nil slice.
func (w *Writer) Strings(ss []string) {
	if ss == nil {
		w.sep()
		w.B = append(w.B, "null"...)
		return
	}
	w.Open('[')
	for _, s := range ss {
		w.String(s)
	}
	w.Close(']')
}

// OmitEmpty, OmitZero and OmitFalse write a field tagged omitempty: key k
// and value v, unless v is empty.
func (w *Writer) OmitEmpty(k, v string) {
	if v != "" {
		w.Key(k).String(v)
	}
}

func (w *Writer) OmitZero(k string, v float64) {
	if v != 0 {
		w.Key(k).Float(v)
	}
}

func (w *Writer) OmitFalse(k string, v bool) {
	if v {
		w.Key(k).Bool(v)
	}
}
