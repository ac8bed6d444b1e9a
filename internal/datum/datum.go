// Package datum provides the typed scalar values that flow through tuples,
// expressions, and plan operators. A Datum is a small immutable tagged union
// over the SQL-ish types the reproduction needs: NULL, 64-bit integers,
// 64-bit floats, strings, and booleans.
//
// Comparison follows SQL three-valued-logic conventions loosely: NULL
// compares as unknown (Compare reports ok=false), and numeric kinds (Int,
// Float) compare with each other after widening to float64.
package datum

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
)

// Kind identifies the dynamic type of a Datum.
type Kind uint8

// The supported scalar kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Numeric reports whether the kind is Int or Float.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Datum is one scalar value. The zero value is NULL.
type Datum struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

// Null is the NULL datum.
var Null = Datum{}

// NewInt returns an integer datum.
func NewInt(v int64) Datum { return Datum{kind: KindInt, i: v} }

// NewFloat returns a float datum.
func NewFloat(v float64) Datum { return Datum{kind: KindFloat, f: v} }

// NewString returns a string datum.
func NewString(v string) Datum { return Datum{kind: KindString, s: v} }

// NewBool returns a boolean datum.
func NewBool(v bool) Datum { return Datum{kind: KindBool, b: v} }

// Kind returns the dynamic type of d.
func (d Datum) Kind() Kind { return d.kind }

// IsNull reports whether d is NULL.
func (d Datum) IsNull() bool { return d.kind == KindNull }

// Int returns the integer payload. It panics if d is not an Int.
func (d Datum) Int() int64 {
	if d.kind != KindInt {
		panic(fmt.Sprintf("datum: Int() on %s", d.kind))
	}
	return d.i
}

// Float returns the float payload. It panics if d is not a Float.
func (d Datum) Float() float64 {
	if d.kind != KindFloat {
		panic(fmt.Sprintf("datum: Float() on %s", d.kind))
	}
	return d.f
}

// Str returns the string payload. It panics if d is not a String.
func (d Datum) Str() string {
	if d.kind != KindString {
		panic(fmt.Sprintf("datum: Str() on %s", d.kind))
	}
	return d.s
}

// Bool returns the boolean payload. It panics if d is not a Bool.
func (d Datum) Bool() bool {
	if d.kind != KindBool {
		panic(fmt.Sprintf("datum: Bool() on %s", d.kind))
	}
	return d.b
}

// AsFloat widens a numeric datum to float64. ok is false for non-numerics.
func (d Datum) AsFloat() (v float64, ok bool) {
	switch d.kind {
	case KindInt:
		return float64(d.i), true
	case KindFloat:
		return d.f, true
	default:
		return 0, false
	}
}

// Compare orders two datums. It returns cmp < 0, == 0, > 0 in the usual way
// and ok=false when the comparison is undefined (either side NULL, or the
// kinds are incomparable, e.g. string vs int).
func (d Datum) Compare(o Datum) (cmp int, ok bool) {
	if d.kind == KindNull || o.kind == KindNull {
		return 0, false
	}
	if d.kind.Numeric() && o.kind.Numeric() {
		a, _ := d.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		default:
			return 0, true
		}
	}
	if d.kind != o.kind {
		return 0, false
	}
	switch d.kind {
	case KindString:
		switch {
		case d.s < o.s:
			return -1, true
		case d.s > o.s:
			return 1, true
		default:
			return 0, true
		}
	case KindBool:
		switch {
		case !d.b && o.b:
			return -1, true
		case d.b && !o.b:
			return 1, true
		default:
			return 0, true
		}
	default:
		return 0, false
	}
}

// Equal reports whether the two datums compare equal. NULLs are never equal.
func (d Datum) Equal(o Datum) bool {
	c, ok := d.Compare(o)
	return ok && c == 0
}

// Less reports whether d sorts strictly before o. NULLs sort first, which
// gives sorting a total order even though Compare is partial.
func (d Datum) Less(o Datum) bool {
	if d.kind == KindNull {
		return o.kind != KindNull
	}
	if o.kind == KindNull {
		return false
	}
	if c, ok := d.Compare(o); ok {
		return c < 0
	}
	// Incomparable kinds: order by kind tag for determinism.
	return d.kind < o.kind
}

// Hash returns a 64-bit hash of the datum, suitable for hash joins and
// bucketizing. Int and Float datums holding the same numeric value hash
// identically so that hash joins agree with Compare.
func (d Datum) Hash() uint64 {
	h := fnv.New64a()
	switch d.kind {
	case KindNull:
		h.Write([]byte{0})
	case KindInt:
		writeFloatHash(h, float64(d.i))
	case KindFloat:
		writeFloatHash(h, d.f)
	case KindString:
		h.Write([]byte{3})
		h.Write([]byte(d.s))
	case KindBool:
		if d.b {
			h.Write([]byte{4, 1})
		} else {
			h.Write([]byte{4, 0})
		}
	}
	return h.Sum64()
}

func writeFloatHash(h interface{ Write([]byte) (int, error) }, f float64) {
	bits := math.Float64bits(f)
	var buf [9]byte
	buf[0] = 2
	for i := 0; i < 8; i++ {
		buf[i+1] = byte(bits >> (8 * i))
	}
	h.Write(buf[:])
}

// AppendTo appends the datum's String rendering to b.
func (d Datum) AppendTo(b []byte) []byte {
	switch d.kind {
	case KindInt:
		return strconv.AppendInt(b, d.i, 10)
	case KindFloat:
		return strconv.AppendFloat(b, d.f, 'g', -1, 64)
	case KindString:
		return append(append(append(b, '\''), d.s...), '\'')
	}
	return append(b, d.String()...)
}

// String renders the datum for EXPLAIN output and error messages.
func (d Datum) String() string {
	switch d.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(d.i, 10)
	case KindFloat:
		return strconv.FormatFloat(d.f, 'g', -1, 64)
	case KindString:
		return "'" + d.s + "'"
	case KindBool:
		if d.b {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Width returns the encoded width of the datum in bytes; it feeds the cost
// model's row-size estimates.
func (d Datum) Width() int {
	switch d.kind {
	case KindNull:
		return 1
	case KindInt, KindFloat:
		return 8
	case KindString:
		return len(d.s) + 1
	case KindBool:
		return 1
	default:
		return 1
	}
}

// Row is one tuple: an ordered sequence of datums. Rows are positional; the
// mapping from column names to positions lives with whoever produced the row
// (see package exec's bindings and package storage's table schemas).
type Row []Datum

// Clone returns a copy of the row that shares no backing storage.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Width returns the total encoded width of the row in bytes.
func (r Row) Width() int {
	w := 0
	for _, d := range r {
		w += d.Width()
	}
	return w
}

// Hash combines the hashes of a subset of the row's columns, identified by
// position. It is used by the hash-join executor.
func (r Row) Hash(cols []int) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	for _, c := range cols {
		h ^= r[c].Hash()
		h *= 1099511628211 // FNV prime
	}
	return h
}

// CompareRows orders two rows lexicographically over the column positions in
// keys, using Datum.Less per column. Rows of different lengths compare by the
// shared prefix.
func CompareRows(a, b Row, keys []int) int {
	for _, k := range keys {
		if k >= len(a) || k >= len(b) {
			break
		}
		if a[k].Less(b[k]) {
			return -1
		}
		if b[k].Less(a[k]) {
			return 1
		}
	}
	return 0
}
