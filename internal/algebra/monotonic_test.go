package algebra

import (
	"testing"

	"expdb/internal/relation"
	"expdb/internal/relation/reltest"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// polRel builds the paper's Figure 1(a) Politics table at time 0.
func polRel() *relation.Relation {
	r := relation.New(tuple.IntCols("UID", "Deg"))
	reltest.MustInsertInts(r, 10, 1, 25)
	reltest.MustInsertInts(r, 15, 2, 25)
	reltest.MustInsertInts(r, 10, 3, 35)
	return r
}

// elRel builds the paper's Figure 1(b) Elections table at time 0.
func elRel() *relation.Relation {
	r := relation.New(tuple.IntCols("UID", "Deg"))
	reltest.MustInsertInts(r, 5, 1, 75)
	reltest.MustInsertInts(r, 3, 2, 85)
	reltest.MustInsertInts(r, 2, 4, 90)
	return r
}

func pol() Expr { return NewBase("Pol", polRel()) }
func el() Expr  { return NewBase("El", elRel()) }

func mustEval(t *testing.T, e Expr, tau xtime.Time) *relation.Relation {
	t.Helper()
	rel, err := EvalStream(e, tau)
	if err != nil {
		t.Fatalf("EvalStream(%s) at %v: %v", e, tau, err)
	}
	return rel
}

func mustTexp(t *testing.T, e Expr, tau xtime.Time) xtime.Time {
	t.Helper()
	x, err := ExprTexp(e, tau)
	if err != nil {
		t.Fatalf("ExprTexp(%s) at %v: %v", e, tau, err)
	}
	return x
}

// wantRows asserts that rel's visible rows at tau are exactly want
// (tuple and expiration time).
func wantRows(t *testing.T, rel *relation.Relation, tau xtime.Time, want []relation.Row) {
	t.Helper()
	got := rel.Rows(tau)
	if len(got) != len(want) {
		t.Fatalf("at %v: got %d rows, want %d\n%s", tau, len(got), len(want), rel.Render(tau))
	}
	for _, w := range want {
		texp, ok := rel.Texp(w.Tuple)
		if !ok || texp <= tau {
			t.Errorf("at %v: missing tuple %v", tau, w.Tuple)
			continue
		}
		if texp != w.Texp {
			t.Errorf("at %v: tuple %v has texp %v, want %v", tau, w.Tuple, texp, w.Texp)
		}
	}
}

func row(texp xtime.Time, vs ...int64) relation.Row {
	return relation.Row{Tuple: tuple.Ints(vs...), Texp: texp}
}

// TestFigure2Projection reproduces Figure 2(c)/(d): πexp_2(Pol).
func TestFigure2Projection(t *testing.T) {
	p, err := NewProject([]int{1}, pol())
	if err != nil {
		t.Fatal(err)
	}
	// At time 0: {⟨25⟩, ⟨35⟩}; ⟨25⟩ inherits the max lifetime 15 of its
	// two duplicates (formula (3)).
	wantRows(t, mustEval(t, p, 0), 0, []relation.Row{row(15, 25), row(10, 35)})
	// At time 10 (Figure 2(d)): only ⟨25⟩ remains.
	wantRows(t, mustEval(t, p, 10), 10, []relation.Row{row(15, 25)})
	// A projection of a base relation never expires as an expression.
	if got := mustTexp(t, p, 0); got != xtime.Infinity {
		t.Errorf("texp(π(Pol)) = %v, want ∞", got)
	}
}

// TestFigure2Join reproduces Figure 2(e)–(g): Pol ⋈exp_{1=3} El.
func TestFigure2Join(t *testing.T) {
	j, err := EquiJoin(pol(), 0, el(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Time 0: two matches; each carries the min of the participants.
	wantRows(t, mustEval(t, j, 0), 0, []relation.Row{
		{Tuple: tuple.Ints(1, 25, 1, 75), Texp: 5}, // min(10, 5)
		{Tuple: tuple.Ints(2, 25, 2, 85), Texp: 3}, // min(15, 3)
	})
	// Time 3 (Figure 2(f)): ⟨2,25,2,85⟩ has expired.
	wantRows(t, mustEval(t, j, 3), 3, []relation.Row{
		{Tuple: tuple.Ints(1, 25, 1, 75), Texp: 5},
	})
	// Time 5 (Figure 2(g)): the join is empty.
	if got := mustEval(t, j, 5).CountAt(5); got != 0 {
		t.Errorf("join at 5 has %d rows, want 0", got)
	}
}

// TestMaterialiseThenExpireEqualsRecompute is the narrative around Figure
// 2: "the properly expired materialised query result at any time τ > 0
// looks exactly as if the query had been computed at time τ".
func TestMaterialiseThenExpireEqualsRecompute(t *testing.T) {
	proj, err := NewProject([]int{1}, pol())
	if err != nil {
		t.Fatal(err)
	}
	join, err := EquiJoin(pol(), 0, el(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Expr{proj, join} {
		mat := mustEval(t, e, 0)
		for tau := xtime.Time(0); tau <= 20; tau++ {
			fresh := mustEval(t, e, tau)
			if !reltest.EqualAt(fresh, mat, tau) {
				t.Errorf("%s: materialised-at-0 diverges from recompute at %v:\nmat:\n%s\nfresh:\n%s",
					e, tau, mat.Render(tau), fresh.Render(tau))
			}
		}
	}
}

func TestSelectRetainsTexp(t *testing.T) {
	s, err := NewSelect(ColConst{Col: 1, Op: OpGt, Const: value.Int(30)}, pol())
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, mustEval(t, s, 0), 0, []relation.Row{row(10, 3, 35)})
	// Selection applies expτ: at time 10 the row is gone.
	if mustEval(t, s, 10).CountAt(10) != 0 {
		t.Error("expired row visible through selection")
	}
}

func TestSelectPredicateValidation(t *testing.T) {
	if _, err := NewSelect(ColConst{Col: 7, Op: OpEq, Const: value.Int(1)}, pol()); err == nil {
		t.Error("out-of-range predicate accepted")
	}
	if _, err := NewProject([]int{0, 5}, pol()); err == nil {
		t.Error("out-of-range projection accepted")
	}
}

func TestProductMinRule(t *testing.T) {
	p := NewProduct(pol(), el())
	rel := mustEval(t, p, 0)
	if got := rel.CountAt(0); got != 9 {
		t.Fatalf("|Pol × El| = %d, want 9", got)
	}
	// ⟨2,25⟩@15 × ⟨4,90⟩@2 → texp 2.
	texp, ok := rel.Texp(tuple.Ints(2, 25, 4, 90))
	if !ok || texp != 2 {
		t.Errorf("product texp = %v, %v; want 2", texp, ok)
	}
}

func TestUnionMaxRule(t *testing.T) {
	// R and S share ⟨1, 25⟩ with texps 10 and 20: union keeps 20.
	r := relation.New(tuple.IntCols("UID", "Deg"))
	reltest.MustInsertInts(r, 10, 1, 25)
	reltest.MustInsertInts(r, 4, 9, 9)
	s := relation.New(tuple.IntCols("UID", "Deg"))
	reltest.MustInsertInts(s, 20, 1, 25)
	reltest.MustInsertInts(s, 7, 8, 8)
	u, err := NewUnion(NewBase("R", r), NewBase("S", s))
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, mustEval(t, u, 0), 0, []relation.Row{
		row(20, 1, 25), row(4, 9, 9), row(7, 8, 8),
	})
	// Expired tuples do not contribute their texp: at τ=12 the R copy is
	// dead; the S copy alone defines the result.
	wantRows(t, mustEval(t, u, 12), 12, []relation.Row{row(20, 1, 25)})
}

func TestUnionCompatibilityChecked(t *testing.T) {
	one := relation.New(tuple.IntCols("a"))
	two := relation.New(tuple.IntCols("a", "b"))
	if _, err := NewUnion(NewBase("one", one), NewBase("two", two)); err == nil {
		t.Error("incompatible union accepted")
	}
	if _, err := NewIntersect(NewBase("one", one), NewBase("two", two)); err == nil {
		t.Error("incompatible intersection accepted")
	}
	if _, err := NewDiff(NewBase("one", one), NewBase("two", two)); err == nil {
		t.Error("incompatible difference accepted")
	}
}

func TestIntersectMinRule(t *testing.T) {
	r := relation.New(tuple.IntCols("UID"))
	reltest.MustInsertInts(r, 10, 1)
	reltest.MustInsertInts(r, 3, 2)
	s := relation.New(tuple.IntCols("UID"))
	reltest.MustInsertInts(s, 6, 1)
	reltest.MustInsertInts(s, 9, 3)
	x, err := NewIntersect(NewBase("R", r), NewBase("S", s))
	if err != nil {
		t.Fatal(err)
	}
	// ⟨1⟩ is in both: min(10, 6) = 6 (formula (6)).
	wantRows(t, mustEval(t, x, 0), 0, []relation.Row{row(6, 1)})
}

func TestJoinMatchesProductSelectRewrite(t *testing.T) {
	// Formula (5): R ⋈exp_p S = σexp_p′(R ×exp S). The hash-join node must
	// coincide with the literal rewrite.
	j, err := EquiJoin(pol(), 0, el(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelect(ColCol{Left: 0, Right: 2, Op: OpEq}, NewProduct(pol(), el()))
	if err != nil {
		t.Fatal(err)
	}
	for tau := xtime.Time(0); tau <= 16; tau++ {
		a, b := mustEval(t, j, tau), mustEval(t, sel, tau)
		if !reltest.EqualAt(a, b, tau) {
			t.Fatalf("join ≠ σ(×) at %v:\n%s\nvs\n%s", tau, a.Render(tau), b.Render(tau))
		}
	}
}

func TestJoinNonEquiFallsBackToNestedLoop(t *testing.T) {
	j, err := NewJoin(ColCol{Left: 1, Right: 3, Op: OpLt}, pol(), el())
	if err != nil {
		t.Fatal(err)
	}
	rel := mustEval(t, j, 0)
	// Every Pol degree (25/25/35) is below every El degree (75/85/90): all
	// 9 combinations qualify.
	if got := rel.CountAt(0); got != 9 {
		t.Errorf("non-equi join rows = %d, want 9", got)
	}
}

func TestMonotonicFlagAndTexp(t *testing.T) {
	j, _ := EquiJoin(pol(), 0, el(), 0)
	if !j.Monotonic() {
		t.Error("join of base relations must be monotonic")
	}
	d, _ := NewDiff(pol(), el())
	if d.Monotonic() {
		t.Error("difference must be non-monotonic")
	}
	s := &Select{Pred: True{}, Child: d}
	if s.Monotonic() {
		t.Error("selection over difference must not report monotonic")
	}
	// All-monotonic expressions have texp ∞ (§2.3).
	if got := mustTexp(t, j, 0); got != xtime.Infinity {
		t.Errorf("texp(join) = %v, want ∞", got)
	}
}

// TestTheorem1 sweeps the claim expτ′(e) = expτ′(expτ(e)) across
// materialisation times for monotonic expressions over the example
// database.
func TestTheorem1(t *testing.T) {
	join, _ := EquiJoin(pol(), 0, el(), 0)
	proj, _ := NewProject([]int{1}, pol())
	sel, _ := NewSelect(ColConst{Col: 1, Op: OpGe, Const: value.Int(25)}, pol())
	union, _ := NewUnion(pol(), el())
	inter, _ := NewIntersect(pol(), el())
	prod := NewProduct(pol(), el())
	exprs := []Expr{join, proj, sel, union, inter, prod}
	for _, e := range exprs {
		for tau := xtime.Time(0); tau <= 16; tau++ {
			mat := mustEval(t, e, tau)
			for tau2 := tau; tau2 <= 18; tau2++ {
				fresh := mustEval(t, e, tau2)
				if !reltest.EqualAt(fresh, mat, tau2) {
					t.Fatalf("Theorem 1 violated for %s: materialise at %v, check at %v", e, tau, tau2)
				}
			}
		}
	}
}

func TestValidityOfMonotonicIsFromTau(t *testing.T) {
	j, _ := EquiJoin(pol(), 0, el(), 0)
	v, err := Validity(j, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []xtime.Time{4, 5, 100} {
		if !v.Contains(tm) {
			t.Errorf("monotonic validity must contain %v", tm)
		}
	}
	if v.Contains(3) {
		t.Error("validity must start at the materialisation time")
	}
}
