package xtime

import (
	"testing"
	"testing/quick"
)

func TestInfinityOrdering(t *testing.T) {
	if !(Time(0) < Infinity) {
		t.Fatal("0 must be < Infinity")
	}
	if Infinity.IsFinite() {
		t.Fatal("Infinity must not be finite")
	}
	if !Time(42).IsFinite() {
		t.Fatal("42 must be finite")
	}
}

func TestMinMax(t *testing.T) {
	cases := []struct {
		a, b, min, max Time
	}{
		{0, 0, 0, 0},
		{1, 2, 1, 2},
		{2, 1, 1, 2},
		{5, Infinity, 5, Infinity},
		{Infinity, Infinity, Infinity, Infinity},
	}
	for _, c := range cases {
		if got := Min(c.a, c.b); got != c.min {
			t.Errorf("Min(%v,%v) = %v, want %v", c.a, c.b, got, c.min)
		}
		if got := Max(c.a, c.b); got != c.max {
			t.Errorf("Max(%v,%v) = %v, want %v", c.a, c.b, got, c.max)
		}
	}
}

func TestAddSaturates(t *testing.T) {
	if got := Infinity.Add(1); got != Infinity {
		t.Fatalf("Infinity+1 = %v, want Infinity", got)
	}
	if got := Time(1).Add(Infinity); got != Infinity {
		t.Fatalf("1+Infinity = %v, want Infinity", got)
	}
	if got := (Infinity - 1).Add(5); got != Infinity {
		t.Fatalf("near-overflow add = %v, want Infinity", got)
	}
	if got := Time(2).Add(3); got != 5 {
		t.Fatalf("2+3 = %v, want 5", got)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	for _, v := range []Time{0, 1, 10, 123456, Infinity} {
		s := v.String()
		got, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got != v {
			t.Fatalf("round trip %v -> %q -> %v", v, s, got)
		}
	}
	for _, alias := range []string{"never", "infinity", "∞"} {
		got, err := Parse(alias)
		if err != nil || got != Infinity {
			t.Fatalf("Parse(%q) = %v, %v; want Infinity", alias, got, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "-1", "abc", "1.5"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestQuickMinMaxLaws(t *testing.T) {
	// Min and Max are commutative, associative, idempotent and bounded by
	// their arguments — the lattice structure the algebra relies on.
	comm := func(a, b int64) bool {
		x, y := clampTime(a), clampTime(b)
		return Min(x, y) == Min(y, x) && Max(x, y) == Max(y, x)
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
	assoc := func(a, b, c int64) bool {
		x, y, z := clampTime(a), clampTime(b), clampTime(c)
		return Min(Min(x, y), z) == Min(x, Min(y, z)) &&
			Max(Max(x, y), z) == Max(x, Max(y, z))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Error(err)
	}
	absorb := func(a, b int64) bool {
		x, y := clampTime(a), clampTime(b)
		return Min(x, Max(x, y)) == x && Max(x, Min(x, y)) == x
	}
	if err := quick.Check(absorb, nil); err != nil {
		t.Error(err)
	}
}

func clampTime(v int64) Time {
	if v < 0 {
		v = -v
	}
	if v < 0 { // MinInt64
		v = 0
	}
	return Time(v)
}
