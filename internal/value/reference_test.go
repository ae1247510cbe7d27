package value

import (
	"bytes"
	"math"
	"math/big"
	"strings"
	"testing"
	"unsafe"
)

// zoo holds a value of every kind next to the boundaries Compare and
// AppendKey treat specially: the INT extremes, the neighbours of 2^53 where
// float64 stops telling integers apart, both zeros, NaN and the empty string.
var zoo = []Value{
	Null, Bool(false), Bool(true),
	Int(math.MinInt64), Int(math.MinInt64 + 1), Int(-1), Int(0), Int(1), Int(2),
	Int(1<<53 - 1), Int(1 << 53), Int(1<<53 + 1), Int(-(1 << 53)), Int(-(1<<53 + 1)),
	Int(math.MaxInt64 - 1), Int(math.MaxInt64),
	Float(math.Copysign(0, -1)), Float(0), Float(0.5), Float(1), Float(1.5), Float(-1.5),
	Float(1 << 53), Float(1<<53 + 2), Float(1 << 63), Float(-(1 << 63)), Float(1e300), Float(-1e300),
	Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()),
	String_(""), String_("a"), String_("ab"), String_("b"), String_("1"),
}

// referenceCompare is Compare as it was before the INT/INT test moved in
// front of the ranking, an INT and a FLOAT compared through math/big: the
// definition of the order the faster body keeps.
func referenceCompare(a, b Value) int {
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
	case a.kind == KindInt && b.kind == KindInt:
		return cmpInt(a.i, b.i)
	case math.IsNaN(a.AsFloat()) || math.IsNaN(b.AsFloat()):
		return 0
	default:
		return exact(a).Cmp(exact(b))
	}
}

func exact(v Value) *big.Float {
	if v.kind == KindInt {
		return new(big.Float).SetInt64(v.i)
	}
	return big.NewFloat(v.AsFloat())
}

// referenceAppendKey is AppendKey with the byte-at-a-time loops it had
// before: stored set keys, WAL records and index probe keys are this
// encoding, so the one-append body must reproduce it byte for byte.
func referenceAppendKey(v Value, dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 'n')
	case KindBool:
		if v.i != 0 {
			return append(dst, 'b', 1)
		}
		return append(dst, 'b', 0)
	case KindInt, KindFloat:
		if v.kind == KindInt && int64(float64(v.i)) != v.i {
			dst = append(dst, 'i')
			u := uint64(v.i)
			for shift := 56; shift >= 0; shift -= 8 {
				dst = append(dst, byte(u>>uint(shift)))
			}
			return dst
		}
		f := v.AsFloat()
		if f == 0 {
			f = 0
		}
		bits := math.Float64bits(f)
		dst = append(dst, 'f')
		for shift := 56; shift >= 0; shift -= 8 {
			dst = append(dst, byte(bits>>uint(shift)))
		}
		return dst
	default:
		dst = append(dst, 's')
		n := len(v.s)
		dst = append(dst, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
		return append(dst, v.s...)
	}
}

// referenceEqual is Equal as it was while a FLOAT had a float64 field of its
// own and two values of one kind were compared as structs: floats as floats,
// an INT and a FLOAT by their exact values.
func referenceEqual(a, b Value) bool {
	if a.kind == KindFloat && b.kind == KindFloat {
		return a.AsFloat() == b.AsFloat()
	}
	if a.kind == b.kind {
		return a.i == b.i && a.s == b.s
	}
	return a.IsNumeric() && b.IsNumeric() && !math.IsNaN(a.AsFloat()) && !math.IsNaN(b.AsFloat()) &&
		exact(a).Cmp(exact(b)) == 0
}

// TestValueIs32Bytes: INT, BOOL and FLOAT share one payload word.
func TestValueIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", n)
	}
}

func TestEqualMatchesReference(t *testing.T) {
	for _, a := range zoo {
		for _, b := range zoo {
			if got, want := a.Equal(b), referenceEqual(a, b); got != want {
				t.Errorf("%v.Equal(%v) = %v, reference %v", a, b, got, want)
			}
		}
	}
}

func TestCompareMatchesReference(t *testing.T) {
	for _, a := range zoo {
		for _, b := range zoo {
			if got, want := a.Compare(b), referenceCompare(a, b); got != want {
				t.Errorf("%v.Compare(%v) = %d, reference %d", a, b, got, want)
			}
		}
	}
}

func TestAppendKeyMatchesReference(t *testing.T) {
	prefix := []byte("p")
	for _, v := range zoo {
		got, want := v.AppendKey(prefix[:1:1]), referenceAppendKey(v, prefix[:1:1])
		if !bytes.Equal(got, want) {
			t.Errorf("%v.AppendKey = %x, reference %x", v, got, want)
		}
	}
}

func TestInt64(t *testing.T) {
	for _, v := range zoo {
		got, ok := v.Int64()
		if ok != (v.Kind() == KindInt) || ok && got != v.AsInt() {
			t.Errorf("%v.Int64() = %d, %v", v, got, ok)
		}
	}
}
