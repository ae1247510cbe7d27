package reltest

import (
	"testing"

	"expdb/internal/relation"
	"expdb/internal/tuple"
)

func TestEqualAt(t *testing.T) {
	pol := func() *relation.Relation {
		r := relation.New(tuple.IntCols("UID", "Deg"))
		MustInsertInts(r, 10, 1, 25)
		MustInsertInts(r, 15, 2, 25)
		MustInsertInts(r, 10, 3, 35)
		return r
	}
	a, b := pol(), pol()
	if !EqualAt(a, b, 0) {
		t.Error("identical relations must be EqualAt(0)")
	}
	b.Insert(tuple.Ints(9, 9), 20)
	if EqualAt(a, b, 0) {
		t.Error("different content must not be EqualAt")
	}
	// ...but at τ=19 the extra tuple in b is the only difference; at τ=20 it expired.
	if !EqualAt(a, b, 20) {
		t.Error("must be equal once extra tuple expired")
	}
	// Same tuples, different texp: SameTuplesAt true, EqualAt false.
	c, d := relation.New(tuple.IntCols("x")), relation.New(tuple.IntCols("x"))
	MustInsertInts(c, 5, 1)
	MustInsertInts(d, 7, 1)
	if EqualAt(c, d, 0) {
		t.Error("different texp must break EqualAt")
	}
	if !SameTuplesAt(c, d, 0) {
		t.Error("same tuples must satisfy SameTuplesAt")
	}
}
