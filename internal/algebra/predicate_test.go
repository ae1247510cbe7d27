package algebra

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"expdb/internal/relation/reltest"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// opaque is a predicate of a type the toolkit does not know: it has Holds
// and String and nothing else, as a caller of the façade may write one.
type opaque struct{ col int }

func (p opaque) Holds(t tuple.Tuple) bool {
	v, _ := t[p.col].Int64()
	return v%2 == 0
}

func (p opaque) String() string { return fmt.Sprintf("even($%d)", p.col+1) }

func eq(col int, k int64) ColConst { return ColConst{Col: col, Op: OpEq, Const: value.Int(k)} }

// TestPredicateToolkit runs Cols, MapCols, Conjuncts and AndOf over every
// shape, nested ones and unknown ones included. A renumbering is checked by
// what it means: p holds on t exactly when MapCols(p, c ↦ c+3) holds on t
// with three columns put in front.
func TestPredicateToolkit(t *testing.T) {
	lt := ColCol{Left: 0, Right: 2, Op: OpLt}
	for _, tc := range []struct {
		p         Predicate
		cols      []int  // what Cols visits, in order; nil and !known for a type it does not know
		known     bool   // Cols and MapCols see all of p
		conjuncts string // Conjuncts(p), joined by " | "
	}{
		{True{}, nil, true, "TRUE"},
		{eq(1, 1), []int{1}, true, "$2 = 1"},
		{lt, []int{0, 2}, true, "$1 < $3"},
		{Not{Pred: eq(2, 0)}, []int{2}, true, "NOT ($3 = 0)"},
		{And{Preds: []Predicate{eq(0, 1), lt}}, []int{0, 0, 2}, true, "$1 = 1 | $1 < $3"},
		{Or{Preds: []Predicate{eq(0, 1), lt}}, []int{0, 0, 2}, true, "($1 = 1) OR ($1 < $3)"},
		{And{}, nil, true, ""},
		{And{Preds: []Predicate{eq(0, 1), And{Preds: []Predicate{Not{Pred: eq(1, 2)}, Or{Preds: []Predicate{lt, True{}}}}}}},
			[]int{0, 1, 0, 2}, true, "$1 = 1 | NOT ($2 = 2) | ($1 < $3) OR (TRUE)"},
		{Not{Pred: Or{Preds: []Predicate{And{Preds: []Predicate{eq(2, 3), lt}}, Not{Pred: eq(1, 0)}}}},
			[]int{2, 0, 2, 1}, true, "NOT ((($3 = 3) AND ($1 < $3)) OR (NOT ($2 = 0)))"},
		{opaque{col: 1}, nil, false, "even($2)"},
		{And{Preds: []Predicate{eq(0, 1), Or{Preds: []Predicate{opaque{col: 2}, eq(1, 1)}}}},
			[]int{0}, false, "$1 = 1 | (even($3)) OR ($2 = 1)"},
	} {
		var cols []int
		known := Cols(tc.p, func(c int) bool { cols = append(cols, c); return true })
		if known != tc.known || !slices.Equal(cols, tc.cols) {
			t.Errorf("Cols(%s) visits %v, %v; want %v, %v", tc.p, cols, known, tc.cols, tc.known)
		}
		var parts []string
		for _, c := range Conjuncts(tc.p) {
			parts = append(parts, c.String())
		}
		if got := strings.Join(parts, " | "); got != tc.conjuncts {
			t.Errorf("Conjuncts(%s) = %s, want %s", tc.p, got, tc.conjuncts)
		}

		shifted, ok := MapCols(tc.p, func(c int) (int, bool) { return c + 3, true })
		if ok != tc.known || (shifted == nil) == ok {
			t.Fatalf("MapCols(%s) = %v, %v; want a predicate exactly when known (%v)", tc.p, shifted, ok, tc.known)
		}
		if ok {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 200; i++ {
				row := tuple.Ints(rng.Int63n(4), rng.Int63n(4), rng.Int63n(4))
				padded := append(tuple.Ints(9, 9, 9), row...)
				if tc.p.Holds(row) != shifted.Holds(padded) {
					t.Fatalf("MapCols(%s) = %s: holds on %v differs", tc.p, shifted, row)
				}
				if AndOf(Conjuncts(tc.p)).Holds(row) != tc.p.Holds(row) {
					t.Fatalf("AndOf(Conjuncts(%s)) differs on %v", tc.p, row)
				}
			}
		}

		// A refused column stops both walks.
		refuses2 := slices.Contains(tc.cols, 2)
		var seen []int
		if got := Cols(tc.p, func(c int) bool { seen = append(seen, c); return c != 2 }); got != (tc.known && !refuses2) {
			t.Errorf("Cols(%s) with column 3 refused = %v", tc.p, got)
		}
		if refuses2 && seen[len(seen)-1] != 2 {
			t.Errorf("Cols(%s) went on past the refused column: %v", tc.p, seen)
		}
		if m, ok := MapCols(tc.p, func(c int) (int, bool) { return c, c != 2 }); ok != (tc.known && !refuses2) || ok && m.String() != tc.p.String() || !ok && m != nil {
			t.Errorf("MapCols(%s) with column 3 refused = %v, %v", tc.p, m, ok)
		}
	}
	if got := AndOf(nil); got != (True{}) {
		t.Errorf("AndOf() = %s, want TRUE", got)
	}
	if got := AndOf([]Predicate{eq(0, 1), lt}).String(); got != "($1 = 1) AND ($1 < $3)" {
		t.Errorf("AndOf of two = %s", got)
	}
}

// TestUnknownPredicateStaysPut: a predicate the toolkit cannot see into is
// accepted by NewSelect and NewJoin and evaluated as written, and no rewrite
// moves or renumbers it — alone or inside a conjunction.
func TestUnknownPredicateStaysPut(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r, s := randRel(rng, "R"), randRel(rng, "S")
	d, err := NewDiff(r, s)
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJoin(And{Preds: []Predicate{ColCol{Left: 0, Right: 2, Op: OpEq}, opaque{col: 3}}}, r, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pred  Predicate
		child Expr
	}{
		{opaque{col: 0}, d},
		{opaque{col: 1}, NewProduct(r, s)},
		{And{Preds: []Predicate{eq(0, 1), opaque{col: 3}}}, NewProduct(r, s)},
		{Or{Preds: []Predicate{opaque{col: 0}, eq(1, 2)}}, &Project{Cols: []int{1, 0}, Child: r}},
		{opaque{col: 0}, j},
	} {
		sel, err := NewSelect(tc.pred, tc.child)
		if err != nil {
			t.Fatalf("NewSelect(%s): %v", tc.pred, err)
		}
		if got := PushDownSelections(sel); got.String() != sel.String() {
			t.Errorf("%s was rewritten to %s", sel, got)
		}
		for tau := xtime.Time(0); tau <= 20; tau += 4 {
			want, _ := refEval(sel, tau)
			got, err := EvalStream(sel, tau)
			if err != nil {
				t.Fatal(err)
			}
			if !reltest.EqualAt(got, want, tau) {
				t.Fatalf("%s at %v:\n%s\nwant\n%s", sel, tau, got.Render(tau), want.Render(tau))
			}
		}
	}
	if _, err := NewSelect(And{Preds: []Predicate{eq(5, 1), opaque{col: 0}}}, r); err == nil {
		t.Error("NewSelect accepted column 6 of a two-column relation")
	}
}
