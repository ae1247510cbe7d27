// Package value implements the typed scalar values stored in tuples.
//
// The data model of the paper works over an abstract attribute domain D
// with equality (and, for the generalised predicates of this
// implementation, a total order). Value is a small tagged union covering
// 64-bit integers, floats, strings, booleans and NULL; it is a comparable
// Go type so that it can serve directly as a map key inside relations and
// partitions.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported kinds. KindNull is the zero Kind so that the zero Value is
// NULL, which keeps freshly allocated tuples well-defined.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind converts a type name (case-insensitive) to a Kind.
func ParseKind(s string) (Kind, error) {
	switch strings.ToUpper(s) {
	case "INT", "INTEGER", "BIGINT":
		return KindInt, nil
	case "FLOAT", "DOUBLE", "REAL":
		return KindFloat, nil
	case "STRING", "TEXT", "VARCHAR":
		return KindString, nil
	case "BOOL", "BOOLEAN":
		return KindBool, nil
	case "NULL":
		return KindNull, nil
	default:
		return 0, fmt.Errorf("value: unknown type %q", s)
	}
}

// Value is a scalar attribute value, 32 bytes: a kind, one payload word
// that INT, BOOL and FLOAT share, and the string. It is comparable (usable as
// a map key); Equal/Compare should still be preferred over == because they
// compare an INT with a FLOAT by value, and because == sees a FLOAT's bits
// (NaN equal to itself, the two zeros apart).
type Value struct {
	kind Kind
	i    int64 // INT and BOOL payload; a FLOAT's bits (math.Float64bits)
	s    string
}

// Null is the NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, i: int64(math.Float64bits(v))} }

// float is the payload of a FLOAT.
func (v Value) float() float64 { return math.Float64frombits(uint64(v.i)) }

// String_ returns a string value. (Named with a trailing underscore to
// leave the String method for fmt.Stringer.)
func String_(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload; floats are truncated.
func (v Value) AsInt() int64 {
	if v.kind == KindFloat {
		return int64(v.float())
	}
	return v.i
}

// AsFloat returns the numeric payload as a float64.
func (v Value) AsFloat() float64 {
	if v.kind == KindFloat {
		return v.float()
	}
	return float64(v.i)
}

// AsString returns the string payload ("" for non-strings).
func (v Value) AsString() string { return v.s }

// AsBool returns the boolean payload (false for non-bools).
func (v Value) AsBool() bool { return v.kind == KindBool && v.i != 0 }

// Int64 returns the payload of an INT and whether v is one. It takes a
// pointer so that a per-row kernel reads the attribute in place instead of
// copying the Value out of its tuple.
func (v *Value) Int64() (int64, bool) { return v.i, v.kind == KindInt }

// IsNumeric reports whether v is an INT or FLOAT.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Equal reports whether a and b are equal, comparing an INT with a FLOAT
// exactly: Int(1) equals Float(1.0), Int(2⁵³+1) does not equal Float(2⁵³).
// NULL equals only NULL (set semantics for duplicate elimination require
// NULL to be self-identical, as in SQL GROUP BY).
func (a Value) Equal(b Value) bool {
	if a.kind == KindFloat && b.kind == KindFloat {
		return a.float() == b.float() // as floats, not as bits: NaN ≠ NaN, −0 = +0
	}
	if a.kind == b.kind {
		return a == b
	}
	if a.IsNumeric() && b.IsNumeric() { // an INT and a FLOAT
		return a.Compare(b) == 0 && !math.IsNaN(a.AsFloat()) && !math.IsNaN(b.AsFloat())
	}
	return false
}

// Compare totally orders values: NULL < BOOL < numbers < STRING. An INT
// and a FLOAT compare by their exact values, not through float64, so the
// order is transitive and, NaN aside, compares equal exactly the values
// AppendKey gives one key. It returns -1, 0 or +1.
func (a Value) Compare(b Value) int {
	// Two INTs — nearly every comparison a sort, a B+tree bound or a
	// predicate makes — need no ranking.
	if a.kind == KindInt && b.kind == KindInt {
		return cmpInt(a.i, b.i)
	}
	ra, rb := a.rank(), b.rank()
	if ra != rb {
		return cmpInt(int64(ra), int64(rb))
	}
	switch {
	case a.kind == KindNull:
		return 0
	case a.kind == KindBool:
		return cmpInt(a.i, b.i)
	case a.kind == KindString:
		return strings.Compare(a.s, b.s)
	case a.kind == KindInt:
		return cmpIntFloat(a.i, b.float())
	case b.kind == KindInt:
		return -cmpIntFloat(b.i, a.float())
	default:
		return cmpFloat(a.float(), b.float())
	}
}

// cmpIntFloat compares i with f exactly. NaN compares equal to every
// number, as it does between two FLOATs.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case f >= 1<<63:
		return -1
	case f < -(1 << 63):
		return 1
	case f != f:
		return 0
	}
	// |f| < 2⁶³ here, so its integral part converts without loss.
	t := math.Trunc(f)
	if c := cmpInt(i, int64(t)); c != 0 {
		return c
	}
	return cmpFloat(t, f)
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func (v Value) rank() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	default: // KindString
		return 3
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// String renders the value in SQL-literal style.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		f := v.float()
		if f == math.Trunc(f) && math.Abs(f) < 1e15 {
			return strconv.FormatFloat(f, 'f', 1, 64)
		}
		return strconv.FormatFloat(f, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	case KindBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

// AppendKey appends a self-delimiting binary encoding of v to dst. The
// encoding distinguishes kinds so that Int(1) and String_("1") have
// different keys while Int(1) and Float(1) deliberately share one, in line
// with Equal. Used by relations to build set keys for tuples.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 'n')
	case KindBool:
		if v.i != 0 {
			return append(dst, 'b', 1)
		}
		return append(dst, 'b', 0)
	case KindInt, KindFloat:
		// Encode numerics through float64 bits so coercible equals share
		// keys (Int(1) and Float(1) are Equal and must collide). Integers
		// outside the exact float64 range get their own encoding so that
		// distinct large ints never merge.
		tag, bits := byte('f'), uint64(0)
		if v.kind == KindInt && int64(float64(v.i)) != v.i {
			tag, bits = 'i', uint64(v.i)
		} else if f := v.AsFloat(); f != 0 { // ±0 share the all-zero pattern
			bits = math.Float64bits(f)
		}
		return append(dst, tag, byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
			byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits))
	default: // KindString
		dst = append(dst, 's')
		n := len(v.s)
		dst = append(dst, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
		return append(dst, v.s...)
	}
}
