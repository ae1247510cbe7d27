package tuple

import (
	"testing"
	"testing/quick"

	"expdb/internal/value"
)

func TestIntsAndAccessors(t *testing.T) {
	tp := Ints(1, 25)
	if tp.Arity() != 2 {
		t.Fatalf("arity = %d", tp.Arity())
	}
	// Paper-style 1-based access: r(1)=1, r(2)=25.
	if !tp.At(1).Equal(value.Int(1)) || !tp.At(2).Equal(value.Int(25)) {
		t.Fatalf("At() mismatch: %v", tp)
	}
}

func TestEqualAndCompare(t *testing.T) {
	a := Ints(1, 2)
	b := T(value.Int(1), value.Float(2))
	if !a.Equal(b) {
		t.Error("Ints(1,2) must equal ⟨1, 2.0⟩ under coercion")
	}
	if a.Compare(b) != 0 {
		t.Error("coercible tuples must compare equal")
	}
	if Ints(1, 2).Compare(Ints(1, 3)) != -1 {
		t.Error("⟨1,2⟩ < ⟨1,3⟩")
	}
	if Ints(1, 2).Compare(Ints(1)) != 1 {
		t.Error("longer tuple with equal prefix sorts after")
	}
	if Ints(1).Compare(Ints(1, 2)) != -1 {
		t.Error("shorter tuple with equal prefix sorts before")
	}
}

func TestProjectConcatClone(t *testing.T) {
	tp := Ints(10, 20, 30)
	p := tp.Project([]int{2, 0})
	if !p.Equal(Ints(30, 10)) {
		t.Errorf("Project = %v", p)
	}
	c := Ints(1).Concat(Ints(2, 3))
	if !c.Equal(Ints(1, 2, 3)) {
		t.Errorf("Concat = %v", c)
	}
	cl := tp.Clone()
	cl[0] = value.Int(99)
	if tp[0].AsInt() != 10 {
		t.Error("Clone must not alias")
	}
}

func TestKeyMatchesEqual(t *testing.T) {
	pairs := []struct {
		a, b Tuple
		eq   bool
	}{
		{Ints(1, 2), Ints(1, 2), true},
		{Ints(1, 2), T(value.Int(1), value.Float(2)), true},
		{Ints(1, 2), Ints(2, 1), false},
		{Ints(1), Ints(1, 0), false},
		{T(value.String_("ab"), value.String_("c")), T(value.String_("a"), value.String_("bc")), false},
	}
	for _, p := range pairs {
		if (p.a.Key() == p.b.Key()) != p.eq {
			t.Errorf("Key equality for %v vs %v: want %v", p.a, p.b, p.eq)
		}
	}
}

func TestString(t *testing.T) {
	if got := Ints(1, 25).String(); got != "⟨1, 25⟩" {
		t.Errorf("String() = %q", got)
	}
}

func TestSchemaBasics(t *testing.T) {
	s := IntCols("UID", "Deg")
	if s.Arity() != 2 {
		t.Fatalf("arity = %d", s.Arity())
	}
	if s.ColumnIndex("deg") != 1 {
		t.Error("ColumnIndex must be case-insensitive")
	}
	if s.ColumnIndex("nope") != -1 {
		t.Error("missing column must return -1")
	}
	ps := s.Project([]int{1})
	if ps.Arity() != 1 || ps.Cols[0].Name != "Deg" {
		t.Errorf("Project schema = %v", ps)
	}
	cs := s.Concat(IntCols("X"))
	if cs.Arity() != 3 || cs.Cols[2].Name != "X" {
		t.Errorf("Concat schema = %v", cs)
	}
	if got := s.String(); got != "(UID INT, Deg INT)" {
		t.Errorf("String() = %q", got)
	}
}

func TestUnionCompatible(t *testing.T) {
	a := IntCols("a", "b")
	if !a.UnionCompatible(IntCols("x", "y")) {
		t.Error("same-kind schemas must be compatible regardless of names")
	}
	if a.UnionCompatible(IntCols("x")) {
		t.Error("different arity must be incompatible")
	}
	f := Schema{Cols: []Column{Col("a", value.KindFloat), Col("b", value.KindInt)}}
	if !a.UnionCompatible(f) {
		t.Error("int and float columns are compatible")
	}
	s := Schema{Cols: []Column{Col("a", value.KindString), Col("b", value.KindInt)}}
	if a.UnionCompatible(s) {
		t.Error("int and string columns are incompatible")
	}
}

func TestValidate(t *testing.T) {
	s := Schema{Cols: []Column{Col("id", value.KindInt), Col("name", value.KindString)}}
	if err := s.Validate(T(value.Int(1), value.String_("x"))); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	if err := s.Validate(T(value.Int(1), value.Null)); err != nil {
		t.Errorf("NULL attribute rejected: %v", err)
	}
	if err := s.Validate(Ints(1)); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := s.Validate(T(value.String_("x"), value.String_("y"))); err == nil {
		t.Error("wrong kind accepted")
	}
}

func TestQuickCompareConsistentWithEqual(t *testing.T) {
	f := func(a, b []int64) bool {
		var ta, tb Tuple
		for _, v := range a {
			ta = append(ta, value.Int(v))
		}
		for _, v := range b {
			tb = append(tb, value.Int(v))
		}
		eq := ta.Equal(tb)
		return eq == (ta.Compare(tb) == 0) && eq == (ta.Key() == tb.Key())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickProjectPreservesValues(t *testing.T) {
	f := func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		tp := make(Tuple, len(vals))
		for i, v := range vals {
			tp[i] = value.Int(v)
		}
		cols := make([]int, len(vals))
		for i := range cols {
			cols[i] = len(vals) - 1 - i
		}
		p := tp.Project(cols)
		for i, c := range cols {
			if !p[i].Equal(tp[c]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
