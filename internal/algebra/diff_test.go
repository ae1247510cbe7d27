package algebra

import (
	"fmt"
	"testing"

	"expdb/internal/interval"
	"expdb/internal/relation"
	"expdb/internal/relation/reltest"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// PaperValidity returns the closed form (12) as the paper's prose intends
// it — "valid until the first tuple should appear at texp_S(t), and after
// all critical tuples have expired":
//
//	I(R − S) = [τ,∞[ − [min{texp_S(t)}, max{texp_R(t)}[ over critical t.
//
// (Formula (12) as printed uses texp_S for the upper bound too, which
// would declare the materialisation valid while a critical tuple is still
// missing from it; the brute-force property tests confirm the prose
// reading. PaperValidity is kept for comparison with the refined
// per-tuple Validity, which additionally recovers gaps between critical
// windows.)
func (d *Diff) PaperValidity(tau xtime.Time) (interval.Set, error) {
	crit, err := d.CriticalSet(tau)
	if err != nil {
		return interval.Set{}, err
	}
	if len(crit) == 0 {
		return interval.From(tau), nil
	}
	lo, hi := xtime.Infinity, xtime.Time(0)
	for _, c := range crit {
		lo = xtime.Min(lo, c.InS)
		hi = xtime.Max(hi, c.InR)
	}
	return interval.From(tau).Subtract(interval.NewSet(interval.Interval{Start: lo, End: hi})), nil
}

// Helper returns the helper relation R(R −exp S) of Theorem 3:
// {r | r ∈ expτ(R) ∧ r ∈ expτ(S)} with texp_*(t) = texp_S(t). When a
// helper tuple expires (in S), it is due for insertion into the
// materialised difference with expiration texp_R(t); views drive this
// through a patch queue, extending the materialisation's lifetime to ∞.
func (d *Diff) Helper(tau xtime.Time) ([]CriticalRow, error) {
	var rows []CriticalRow
	_, err := d.run(tau, func(relation.Row) {}, func(h CriticalRow) { rows = append(rows, h) })
	return rows, err
}

// projUID returns πexp_1(e): the UID column of Pol/El.
func projUID(t *testing.T, e Expr) Expr {
	t.Helper()
	p, err := NewProject([]int{0}, e)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// diffUID builds the paper's Figure 3(b)–(d) expression
// πexp_1(Pol) −exp πexp_1(El).
func diffUID(t *testing.T) *Diff {
	t.Helper()
	d, err := NewDiff(projUID(t, pol()), projUID(t, el()))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFigure3Difference reproduces Figure 3(b)–(d): the recomputed
// difference grows monotonically before time 10.
func TestFigure3Difference(t *testing.T) {
	d := diffUID(t)
	// Time 0: only ⟨3⟩ (UIDs 1 and 2 are in both; 4 only in El).
	wantRows(t, mustEval(t, d, 0), 0, []relation.Row{row(10, 3)})
	// Time 3: ⟨2⟩ reappears (its El tuple expired at 3).
	wantRows(t, mustEval(t, d, 3), 3, []relation.Row{row(15, 2), row(10, 3)})
	// Time 5: ⟨1⟩ reappears as well (Figure 3(d)).
	wantRows(t, mustEval(t, d, 5), 5, []relation.Row{row(10, 1), row(15, 2), row(10, 3)})
}

// TestFigure3InvalidFrom3 checks the paper's conclusion: "the expression
// is invalid from time 3 onwards" — texp(e) = 3 for the materialisation at
// time 0 (formula (11)).
func TestFigure3InvalidFrom3(t *testing.T) {
	d := diffUID(t)
	if got := mustTexp(t, d, 0); got != 3 {
		t.Fatalf("texp(Pol − El) = %v, want 3", got)
	}
	// Materialised at time 3 the first critical tuple is ⟨1⟩ at 5.
	if got := mustTexp(t, d, 3); got != 5 {
		t.Fatalf("texp at 3 = %v, want 5", got)
	}
	// Materialised at time 5 no critical tuples remain: texp = ∞.
	if got := mustTexp(t, d, 5); got != xtime.Infinity {
		t.Fatalf("texp at 5 = %v, want ∞", got)
	}
}

// TestTable2Cases exercises the lifetime analysis of Table 2 case by case.
func TestTable2Cases(t *testing.T) {
	r := relation.New(tuple.IntCols("v"))
	s := relation.New(tuple.IntCols("v"))
	reltest.MustInsertInts(r, 10, 1) // case (1): only in R → texp_*(t) = texp_R(t)
	reltest.MustInsertInts(s, 10, 2) // case (2): only in S → not in result, no effect
	reltest.MustInsertInts(r, 9, 3)  // case (3a): in both with texp_R > texp_S
	reltest.MustInsertInts(s, 4, 3)
	reltest.MustInsertInts(r, 2, 5) // case (3b): in both with texp_R ≤ texp_S
	reltest.MustInsertInts(s, 8, 5)
	d, err := NewDiff(NewBase("R", r), NewBase("S", s))
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, mustEval(t, d, 0), 0, []relation.Row{row(10, 1)})
	// Only case (3a) limits the expression: texp(e) = texp_S(⟨3⟩) = 4.
	if got := mustTexp(t, d, 0); got != 4 {
		t.Errorf("texp = %v, want 4", got)
	}
	crit, err := d.CriticalSet(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(crit) != 1 || !crit[0].Tuple.Equal(tuple.Ints(3)) || crit[0].InS != 4 || crit[0].InR != 9 {
		t.Errorf("critical set = %+v", crit)
	}
}

// TestDiffValidityExactAgainstBruteForce compares the refined validity
// intervals with a direct materialise-vs-recompute sweep.
func TestDiffValidityExactAgainstBruteForce(t *testing.T) {
	d := diffUID(t)
	mat := mustEval(t, d, 0)
	v, err := Validity(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	for tau := xtime.Time(0); tau <= 20; tau++ {
		fresh := mustEval(t, d, tau)
		matches := reltest.EqualAt(fresh, mat, tau)
		if v.Contains(tau) != matches {
			t.Errorf("validity claims %v at %v but brute force says %v (I = %s)",
				v.Contains(tau), tau, matches, v)
		}
	}
}

// TestDiffValidityShape checks the interval structure for the paper's
// example: invalid exactly while critical tuples should be visible.
// Critical tuples: ⟨1⟩ (El 5 → Pol 10) and ⟨2⟩ (El 3 → Pol 15).
func TestDiffValidityShape(t *testing.T) {
	d := diffUID(t)
	v, err := Validity(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := interval.From(0).Subtract(interval.NewSet(
		interval.Interval{Start: 5, End: 10}, // ⟨1⟩ missing
		interval.Interval{Start: 3, End: 15}, // ⟨2⟩ missing
	))
	if !v.Equal(want) {
		t.Errorf("validity = %s, want %s", v, want)
	}
	// The literal paper formula (12) is coarser but must be a subset.
	pv, err := d.PaperValidity(0)
	if err != nil {
		t.Fatal(err)
	}
	if !pv.Intersect(v).Equal(pv) {
		t.Errorf("paper validity %s not contained in refined %s", pv, v)
	}
}

// TestHelperRelationTheorem3 checks the helper relation R(R −exp S): all
// tuples alive in both arguments, keyed by texp_S, due for insertion with
// texp_R.
func TestHelperRelationTheorem3(t *testing.T) {
	d := diffUID(t)
	rows, err := d.Helper(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("|helper| = %d, want 2 (= |R ∩ S|)", len(rows))
	}
	byUID := map[int64]CriticalRow{}
	for _, r := range rows {
		byUID[r.Tuple[0].AsInt()] = r
	}
	if r := byUID[1]; r.InS != 5 || r.InR != 10 {
		t.Errorf("helper ⟨1⟩ = %+v, want InS=5 InR=10", r)
	}
	if r := byUID[2]; r.InS != 3 || r.InR != 15 {
		t.Errorf("helper ⟨2⟩ = %+v, want InS=3 InR=15", r)
	}
}

// TestPatchedDiffEqualsRecompute replays helper expirations into the
// materialisation and checks Theorem 3: with patching, recomputation is
// never needed (the expression behaves as if texp(e) = ∞).
func TestPatchedDiffEqualsRecompute(t *testing.T) {
	d := diffUID(t)
	mat := mustEval(t, d, 0)
	patches, err := d.Helper(0)
	if err != nil {
		t.Fatal(err)
	}
	for tau := xtime.Time(0); tau <= 20; tau++ {
		// Apply due patches: a helper tuple expired in S at InS ≤ tau is
		// inserted with expiration texp_R.
		for _, p := range patches {
			if p.InS <= tau {
				mat.Insert(p.Tuple, p.InR)
			}
		}
		fresh := mustEval(t, d, tau)
		if !reltest.EqualAt(fresh, mat, tau) {
			t.Fatalf("patched materialisation diverges at %v:\nmat:\n%s\nfresh:\n%s",
				tau, mat.Render(tau), fresh.Render(tau))
		}
	}
}

func TestDiffOfIdenticalRelationsNeverInvalid(t *testing.T) {
	// "operations on relations all of whose tuples have the same
	// expiration time always result in expressions with infinite
	// expiration time" (§2.7).
	r := relation.New(tuple.IntCols("v"))
	s := relation.New(tuple.IntCols("v"))
	for i := int64(0); i < 5; i++ {
		reltest.MustInsertInts(r, 7, i)
		reltest.MustInsertInts(s, 7, i)
	}
	d, err := NewDiff(NewBase("R", r), NewBase("S", s))
	if err != nil {
		t.Fatal(err)
	}
	if got := mustTexp(t, d, 0); got != xtime.Infinity {
		t.Errorf("texp = %v, want ∞", got)
	}
	v, err := Validity(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(interval.From(0)) {
		t.Errorf("validity = %s, want [0, inf[", v)
	}
}

func TestDiffEmptyRight(t *testing.T) {
	s := relation.New(tuple.IntCols("UID"))
	d, err := NewDiff(projUID(t, pol()), NewBase("empty", s))
	if err != nil {
		t.Fatal(err)
	}
	// R − ∅ = R with original texps; never invalid.
	wantRows(t, mustEval(t, d, 0), 0, []relation.Row{row(10, 1), row(15, 2), row(10, 3)})
	if got := mustTexp(t, d, 0); got != xtime.Infinity {
		t.Errorf("texp = %v, want ∞", got)
	}
}

// TestDiffScansWhatItsLeftMeets holds R − S with S built only as S ⋉ R
// (Diff.right, over a base with column arrays) to the same difference over
// the same rows in a base without arrays, which collects S whole: rows,
// texps, texp(e), the critical set, the validity and the births Materialize
// keeps, at instants on both sides of S's expirations. S keeps an array
// for k only (m holds a NULL), under a π that keeps k, one that moves it to
// the second column, and a σ with a conjunct that is no interval. A left
// side whose keys are all INTs must build less of S; one with a NULL, a
// FLOAT or a FLOAT equal to an INT of S must build all of it.
func TestDiffScansWhatItsLeftMeets(t *testing.T) {
	base := func(arrays bool) *Base {
		r := relation.New(tuple.IntCols("k", "m"))
		for _, x := range []struct {
			k    int64
			m    value.Value
			texp xtime.Time
		}{{1, value.Int(5), 4}, {2, value.Int(5), 9}, {3, value.Int(5), 6}, {3, value.Int(7), 12},
			{4, value.Int(7), 3}, {5, value.Int(5), 20}, {6, value.Int(7), 7}, {7, value.Int(5), 2}, {8, value.Null, 5}} {
			r.Insert(tuple.T(value.Int(x.k), x.m), x.texp)
		}
		if arrays {
			r.EnableIntArrays()
		}
		return NewBase("S", r)
	}
	must := func(e Expr, err error) Expr {
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	rights := map[string]func(*Base) Expr{
		"π keeps k": func(b *Base) Expr { return must(NewProject([]int{0}, b)) },
		"π moves k": func(b *Base) Expr { return must(NewProject([]int{1, 0}, b)) },
		"σ": func(b *Base) Expr {
			return must(NewSelect(And{Preds: []Predicate{ColConst{Col: 0, Op: OpGe, Const: value.Int(2)},
				ColConst{Col: 0, Op: OpNe, Const: value.Int(6)}}}, b))
		},
	}
	lefts := map[string][]value.Value{
		"INTs":      {value.Int(1), value.Int(3), value.Int(4), value.Int(6)},
		"NULL":      {value.Int(1), value.Null, value.Int(6)},
		"FLOAT":     {value.Int(1), value.Float(22.5), value.Int(6)},
		"FLOAT 3.0": {value.Int(1), value.Float(3), value.Int(6)},
	}
	for rn, right := range rights {
		for ln, keys := range lefts {
			arity := right(base(false)).Schema().Arity()
			l := relation.New(right(base(false)).Schema())
			for i, k := range append(keys, value.Int(100)) {
				tp := tuple.T(k)
				if arity == 2 && rn == "π moves k" {
					tp = tuple.T(value.Int(int64(5+2*(i%2))), k)
				} else if arity == 2 {
					tp = tuple.T(k, value.Int(int64(5+2*(i%2))))
				}
				l.Insert(tp, xtime.Time(20-4*i))
			}
			left := NewBase("R", l)
			pushed := must(NewDiff(left, right(base(true)))).(*Diff)
			whole := must(NewDiff(left, right(base(false)))).(*Diff)
			name := rn + ", left " + ln
			for _, tau := range []xtime.Time{0, 1, 3, 5, 8} {
				r, _, _ := collect(left, tau)
				s, _, err := pushed.right(r, tau)
				if err != nil {
					t.Fatal(err)
				}
				all := mustEval(t, pushed.Right, tau)
				if got, want := s.CountAt(tau), all.CountAt(tau); ln == "INTs" && got >= want || ln != "INTs" && got != want {
					t.Errorf("%s at %v: S built with %d of its %d rows", name, tau, got, want)
				}
				for _, what := range []func(d *Diff) (string, error){
					func(d *Diff) (string, error) {
						rel, err := EvalStream(d, tau)
						return rel.Render(tau), err
					},
					func(d *Diff) (string, error) { x, err := ExprTexp(d, tau); return fmt.Sprint(x), err },
					func(d *Diff) (string, error) { c, err := d.CriticalSet(tau); return fmt.Sprint(c), err },
					func(d *Diff) (string, error) { v, err := Validity(d, tau); return fmt.Sprint(v), err },
					func(d *Diff) (string, error) {
						ev, err := Materialize(d, tau)
						return fmt.Sprint(ev.Rel.Render(tau), ev.Texp, ev.Births.Rows()), err
					},
				} {
					got, err1 := what(pushed)
					want, err2 := what(whole)
					if err1 != nil || err2 != nil || got != want {
						t.Errorf("%s at %v: with S ⋉ R\n%s (%v), with S\n%s (%v)", name, tau, got, err1, want, err2)
					}
				}
			}
		}
	}
}
