package interval

import (
	"testing"
	"testing/quick"

	"expdb/internal/xtime"
)

func iv(a, b xtime.Time) Interval { return Interval{Start: a, End: b} }

func TestNormalisation(t *testing.T) {
	s := NewSet(iv(5, 3), iv(1, 2), iv(2, 4), iv(10, 12), iv(11, 15))
	got := s.Intervals()
	want := []Interval{iv(1, 4), iv(10, 15)}
	if len(got) != len(want) {
		t.Fatalf("intervals = %v", s)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("intervals = %v, want %v", s, want)
		}
	}
}

func TestContains(t *testing.T) {
	s := NewSet(iv(1, 4), iv(10, xtime.Infinity))
	cases := map[xtime.Time]bool{0: false, 1: true, 3: true, 4: false, 9: false, 10: true, 1 << 40: true}
	for tm, want := range cases {
		if got := s.Contains(tm); got != want {
			t.Errorf("Contains(%v) = %v, want %v", tm, got, want)
		}
	}
	if !From(0).Contains(0) {
		t.Error("[0, ∞[ must contain 0")
	}
	var empty Set
	if empty.Contains(0) {
		t.Error("empty set contains nothing")
	}
}

func TestIntersect(t *testing.T) {
	a := NewSet(iv(0, 10), iv(20, 30))
	b := NewSet(iv(5, 25))
	got := a.Intersect(b)
	want := NewSet(iv(5, 10), iv(20, 25))
	if !got.Equal(want) {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	if !a.Intersect(Set{}).Empty() {
		t.Error("intersect with empty must be empty")
	}
	if !a.Intersect(From(0)).Equal(a) {
		t.Error("intersect with [0, ∞[ must be identity")
	}
}

func TestSubtractPaperFormula12(t *testing.T) {
	// I(R − S) = [τ,∞[ − [min, max[ with τ=0, min=3, max=10 (the paper's
	// Pol − El example: critical tuples expire in S at 3 and 5... using 10
	// as the time the last critical tuple leaves R).
	got := From(0).Subtract(NewSet(iv(3, 10)))
	want := NewSet(iv(0, 3), iv(10, xtime.Infinity))
	if !got.Equal(want) {
		t.Fatalf("I = %v, want %v", got, want)
	}
}

func TestSubtractEdges(t *testing.T) {
	a := NewSet(iv(0, 10))
	if !a.Subtract(a).Empty() {
		t.Error("s − s must be empty")
	}
	if !a.Subtract(Set{}).Equal(a) {
		t.Error("s − ∅ must be s")
	}
	got := a.Subtract(NewSet(iv(2, 3), iv(5, 7)))
	want := NewSet(iv(0, 2), iv(3, 5), iv(7, 10))
	if !got.Equal(want) {
		t.Fatalf("Subtract = %v, want %v", got, want)
	}
	// Subtracting beyond the edges.
	got = a.Subtract(NewSet(iv(0, 1), iv(9, 20)))
	if !got.Equal(NewSet(iv(1, 9))) {
		t.Fatalf("Subtract = %v", got)
	}
}

func TestUnion(t *testing.T) {
	a := NewSet(iv(0, 2))
	b := NewSet(iv(2, 5)) // adjacent: must merge
	if got := a.Union(b); !got.Equal(NewSet(iv(0, 5))) {
		t.Fatalf("Union = %v", got)
	}
}

func TestNextPrevIn(t *testing.T) {
	s := NewSet(iv(3, 5), iv(10, 12))
	if got, ok := s.NextIn(0); !ok || got != 3 {
		t.Errorf("NextIn(0) = %v, %v", got, ok)
	}
	if got, ok := s.NextIn(4); !ok || got != 4 {
		t.Errorf("NextIn(4) = %v, %v (already valid)", got, ok)
	}
	if got, ok := s.NextIn(5); !ok || got != 10 {
		t.Errorf("NextIn(5) = %v, %v", got, ok)
	}
	if _, ok := s.NextIn(12); ok {
		t.Error("NextIn(12) must fail")
	}
	if got, ok := s.PrevIn(20); !ok || got != 11 {
		t.Errorf("PrevIn(20) = %v, %v", got, ok)
	}
	if got, ok := s.PrevIn(4); !ok || got != 4 {
		t.Errorf("PrevIn(4) = %v, %v", got, ok)
	}
	if got, ok := s.PrevIn(7); !ok || got != 4 {
		t.Errorf("PrevIn(7) = %v, %v", got, ok)
	}
	if _, ok := s.PrevIn(2); ok {
		t.Error("PrevIn(2) must fail")
	}
}

func TestString(t *testing.T) {
	if got := (Set{}).String(); got != "∅" {
		t.Errorf("empty String = %q", got)
	}
	s := NewSet(iv(1, 2), iv(4, xtime.Infinity))
	if got := s.String(); got != "{[1, 2[, [4, inf[}" {
		t.Errorf("String = %q", got)
	}
}

// membership-based property checks against a brute-force model over a
// small domain.
func setFrom(bits uint16) Set {
	var ivs []Interval
	for i := 0; i < 16; i++ {
		if bits&(1<<i) != 0 {
			ivs = append(ivs, iv(xtime.Time(i), xtime.Time(i+1)))
		}
	}
	return NewSet(ivs...)
}

func TestQuickSetAlgebraLaws(t *testing.T) {
	f := func(a, b uint16) bool {
		sa, sb := setFrom(a), setFrom(b)
		un := sa.Union(sb)
		in := sa.Intersect(sb)
		sub := sa.Subtract(sb)
		for i := xtime.Time(0); i < 17; i++ {
			inA, inB := sa.Contains(i), sb.Contains(i)
			if un.Contains(i) != (inA || inB) {
				return false
			}
			if in.Contains(i) != (inA && inB) {
				return false
			}
			if sub.Contains(i) != (inA && !inB) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	full := NewSet(iv(0, 16))
	f := func(a, b uint16) bool {
		sa, sb := setFrom(a), setFrom(b)
		// full − (A ∪ B) == (full − A) ∩ (full − B)
		lhs := full.Subtract(sa.Union(sb))
		rhs := full.Subtract(sa).Intersect(full.Subtract(sb))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
