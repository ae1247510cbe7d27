package value

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value must be NULL")
	}
	if v != Null {
		t.Fatal("zero Value must equal Null")
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if got := Int(7); got.Kind() != KindInt || got.AsInt() != 7 {
		t.Errorf("Int(7) = %v", got)
	}
	if got := Float(2.5); got.Kind() != KindFloat || got.AsFloat() != 2.5 {
		t.Errorf("Float(2.5) = %v", got)
	}
	if got := String_("x"); got.Kind() != KindString || got.AsString() != "x" {
		t.Errorf("String_(x) = %v", got)
	}
	if got := Bool(true); got.Kind() != KindBool || !got.AsBool() {
		t.Errorf("Bool(true) = %v", got)
	}
	if Bool(false).AsBool() {
		t.Error("Bool(false).AsBool() = true")
	}
}

func TestEqualCoercion(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(1), Float(1), true},
		{Float(1.5), Int(1), false},
		{String_("a"), String_("a"), true},
		{String_("a"), String_("b"), false},
		{String_("1"), Int(1), false},
		{Bool(true), Bool(true), true},
		{Bool(true), Int(1), false},
		{Null, Null, true},
		{Null, Int(0), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Equal(c.a); got != c.want {
			t.Errorf("Equal not symmetric for %v, %v", c.a, c.b)
		}
	}
}

func TestCompareTotalOrder(t *testing.T) {
	ordered := []Value{Null, Bool(false), Bool(true), Int(-3), Float(-2.5), Int(0), Float(0.5), Int(1), String_(""), String_("a"), String_("b")}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := cmpInt(int64(i), int64(j))
			// Int(0)/Float(0) style pairs are strictly ordered in the
			// fixture, so indices fully determine the comparison.
			if got != want {
				t.Errorf("Compare(%v,%v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
	if Int(1).Compare(Float(1)) != 0 {
		t.Error("Int(1) and Float(1) must compare equal")
	}
}

func TestStringRendering(t *testing.T) {
	cases := map[string]Value{
		"NULL":  Null,
		"3":     Int(3),
		"2.5":   Float(2.5),
		"1.0":   Float(1),
		`"hi"`:  String_("hi"),
		"TRUE":  Bool(true),
		"FALSE": Bool(false),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", v, got, want)
		}
	}
}

func TestParseKind(t *testing.T) {
	for s, want := range map[string]Kind{
		"int": KindInt, "INTEGER": KindInt, "float": KindFloat,
		"TEXT": KindString, "bool": KindBool, "null": KindNull,
	} {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseKind("blob"); err == nil {
		t.Error("ParseKind(blob) must error")
	}
}

func TestAppendKeyConsistentWithEqual(t *testing.T) {
	vals := []Value{
		Null, Bool(false), Bool(true),
		Int(0), Int(1), Int(-1), Int(math.MaxInt64), Int(math.MaxInt64 - 1),
		Float(0), Float(1), Float(-0.0), Float(2.5), Float(math.Inf(1)),
		String_(""), String_("a"), String_("ab"), String_("1"),
	}
	for _, a := range vals {
		for _, b := range vals {
			ka := a.AppendKey(nil)
			kb := b.AppendKey(nil)
			same := bytes.Equal(ka, kb)
			if a.Equal(b) && !same {
				t.Errorf("%v equals %v but keys differ", a, b)
			}
			if !a.Equal(b) && same && a.Kind() == b.Kind() {
				t.Errorf("%v != %v but keys collide", a, b)
			}
		}
	}
	// Int/Float coercion shares keys.
	if !bytes.Equal(Int(1).AppendKey(nil), Float(1).AppendKey(nil)) {
		t.Error("Int(1) and Float(1) must share a key")
	}
	// Negative zero normalises.
	if !bytes.Equal(Float(0).AppendKey(nil), Float(math.Copysign(0, -1)).AppendKey(nil)) {
		t.Error("0.0 and -0.0 must share a key")
	}
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		return va.Compare(vb) == -vb.Compare(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickKeyInjectiveForInts(t *testing.T) {
	f := func(a, b int64) bool {
		ka := Int(a).AppendKey(nil)
		kb := Int(b).AppendKey(nil)
		return (a == b) == bytes.Equal(ka, kb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
