package view

import (
	"fmt"
	"math/rand"
	"testing"

	"expdb/internal/algebra"
	"expdb/internal/relation"
	"expdb/internal/relation/reltest"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// budgetDiff builds a difference with exactly three critical tuples
// appearing at times 4, 6 and 8.
func budgetDiff(t *testing.T) *algebra.Diff {
	t.Helper()
	r := relation.New(tuple.IntCols("v"))
	s := relation.New(tuple.IntCols("v"))
	reltest.MustInsertInts(r, 20, 1)
	reltest.MustInsertInts(s, 4, 1)
	reltest.MustInsertInts(r, 20, 2)
	reltest.MustInsertInts(s, 6, 2)
	reltest.MustInsertInts(r, 20, 3)
	reltest.MustInsertInts(s, 8, 3)
	reltest.MustInsertInts(r, 20, 9) // never in S: plain result tuple
	d, err := algebra.NewDiff(algebra.NewBase("R", r), algebra.NewBase("S", s))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPatchBudgetTruncatesQueue(t *testing.T) {
	v, err := New("b", budgetDiff(t), WithPatchBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Materialize(0); err != nil {
		t.Fatal(err)
	}
	if v.PendingPatches() != 2 {
		t.Fatalf("pending = %d, want 2", v.PendingPatches())
	}
	// Patchable through the first two events; invalid at the third (8).
	if v.Texp() != 8 {
		t.Fatalf("texp = %v, want 8 (first unqueued critical event)", v.Texp())
	}
}

func TestPatchBudgetStillCorrect(t *testing.T) {
	d := budgetDiff(t)
	v, err := New("b", d, WithPatchBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Materialize(0); err != nil {
		t.Fatal(err)
	}
	recomputed := 0
	for tau := xtime.Time(0); tau <= 22; tau++ {
		rel, info, err := v.Read(tau)
		if err != nil {
			t.Fatal(err)
		}
		if info.Source == SourceRecomputed {
			recomputed++
		}
		fresh, err := algebra.EvalStream(d, tau)
		if err != nil {
			t.Fatal(err)
		}
		if !reltest.EqualAt(fresh, rel, tau) {
			t.Fatalf("budgeted view diverges at %v:\nview:\n%s\nfresh:\n%s",
				tau, rel.Render(tau), fresh.Render(tau))
		}
	}
	if recomputed == 0 {
		t.Fatal("exhausted budget must force at least one recomputation")
	}
	if recomputed > 2 {
		t.Fatalf("recomputed %d times; budget 2 of 3 events needs at most 1-2", recomputed)
	}
}

func TestUnlimitedBudgetNeverRecomputes(t *testing.T) {
	d := budgetDiff(t)
	v, err := New("b", d, WithPatching())
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Materialize(0); err != nil {
		t.Fatal(err)
	}
	for tau := xtime.Time(0); tau <= 22; tau++ {
		if _, info, err := v.Read(tau); err != nil || info.Source != SourceMaterialised {
			t.Fatalf("at %v: %v %v", tau, info, err)
		}
	}
	if v.Stats().Recomputations != 0 {
		t.Fatalf("stats: %+v", v.Stats())
	}
}

func TestPatchBudgetValidation(t *testing.T) {
	if _, err := New("b", budgetDiff(t), WithPatchBudget(0)); err == nil {
		t.Error("zero budget accepted")
	}
	polR := relation.New(tuple.IntCols("v"))
	if _, err := New("b", algebra.NewBase("R", polR), WithPatchBudget(1)); err == nil {
		t.Error("budgeted patching accepted for non-difference root")
	}
}

// TestPatchBudgetRandom: for random data and budgets, budgeted views stay
// correct and never recompute more than (critical events / budget) times.
func TestPatchBudgetRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		r := relation.New(tuple.IntCols("v"))
		s := relation.New(tuple.IntCols("v"))
		for i := 0; i < 20; i++ {
			reltest.MustInsertInts(r, xtime.Time(1+rng.Intn(30)), int64(rng.Intn(12)))
			reltest.MustInsertInts(s, xtime.Time(1+rng.Intn(30)), int64(rng.Intn(12)))
		}
		d, err := algebra.NewDiff(algebra.NewBase("R", r), algebra.NewBase("S", s))
		if err != nil {
			t.Fatal(err)
		}
		budget := 1 + rng.Intn(4)
		v, err := New("b", d, WithPatchBudget(budget))
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Materialize(0); err != nil {
			t.Fatal(err)
		}
		for tau := xtime.Time(0); tau <= 32; tau++ {
			rel, _, err := v.Read(tau)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := algebra.EvalStream(d, tau)
			if err != nil {
				t.Fatal(err)
			}
			if !reltest.EqualAt(fresh, rel, tau) {
				t.Fatalf("trial %d budget %d: diverges at %v", trial, budget, tau)
			}
		}
	}
}

// futureDB is a seeded pol(uid, deg, score FLOAT) and el(uid, deg): lifetimes
// up to 30 and a few rows that never expire, duplicate uids, scores that are
// often zero (a sum that does not change across a slice) and degrees shared
// by few rows (groups that empty early).
func futureDB(seed int64) (pol, el *algebra.Base) {
	rng := rand.New(rand.NewSource(seed))
	texp := func() xtime.Time {
		if rng.Intn(12) == 0 {
			return xtime.Infinity
		}
		return xtime.Time(1 + rng.Intn(30))
	}
	p := relation.New(tuple.Schema{Cols: []tuple.Column{tuple.Col("uid", value.KindInt), tuple.Col("deg", value.KindInt), tuple.Col("score", value.KindFloat)}})
	e := relation.New(tuple.IntCols("uid", "deg"))
	for i := 0; i < 60; i++ {
		score := value.Float(0)
		if rng.Intn(3) > 0 {
			score = value.Float(rng.Float64() * 10)
		}
		p.Insert(tuple.T(value.Int(int64(rng.Intn(12))), value.Int(int64(rng.Intn(6))), score), texp())
		if i%2 == 0 {
			e.Insert(tuple.Ints(int64(rng.Intn(12)), int64(rng.Intn(6))), texp())
		}
	}
	return algebra.NewBase("pol", p), algebra.NewBase("el", e)
}

// futureShapes are the roots that keep their future: GROUP BY deg (and one
// global aggregation) under every function singly and two at once, and
// π_uid(pol) − π_uid(el).
func futureShapes(t *testing.T, seed int64) map[string]algebra.Expr {
	t.Helper()
	pol, el := futureDB(seed)
	must := func(e algebra.Expr, err error) algebra.Expr {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	count := algebra.AggFunc{Kind: algebra.AggCount, Col: -1}
	sumF, sumI := algebra.AggFunc{Kind: algebra.AggSum, Col: 2}, algebra.AggFunc{Kind: algebra.AggSum, Col: 0}
	minU, maxU := algebra.AggFunc{Kind: algebra.AggMin, Col: 0}, algebra.AggFunc{Kind: algebra.AggMax, Col: 0}
	avg := algebra.AggFunc{Kind: algebra.AggAvg, Col: 2}
	shapes := map[string]algebra.Expr{}
	for name, funcs := range map[string][]algebra.AggFunc{
		"count": {count}, "sum float": {sumF}, "sum int": {sumI}, "min": {minU}, "max": {maxU}, "avg": {avg},
		"count+min": {count, minU}, "max+sum float": {maxU, sumF},
	} {
		shapes[name] = must(algebra.GroupBy([]int{1}, funcs, algebra.PolicyExact, pol))
	}
	shapes["global count+avg"] = must(algebra.GroupBy(nil, []algebra.AggFunc{count, avg}, algebra.PolicyExact, pol))
	shapes["diff"] = must(algebra.NewDiff(must(algebra.NewProject([]int{0}, pol)), must(algebra.NewProject([]int{0}, el))))
	return shapes
}

// born lists, by brute force, the instants in (from, until] at which a
// recomputation of e shows a tuple the one a tick earlier does not — once per
// tuple, in order: the change points a stored future has to cover.
func born(t *testing.T, e algebra.Expr, from, until xtime.Time) []xtime.Time {
	t.Helper()
	var at []xtime.Time
	prev, err := algebra.EvalStream(e, from)
	if err != nil {
		t.Fatal(err)
	}
	for tau := from + 1; tau <= until; tau++ {
		cur, err := algebra.EvalStream(e, tau)
		if err != nil {
			t.Fatal(err)
		}
		cur.AliveAt(tau, func(row relation.Row) {
			if !prev.Contains(row.Tuple, tau) {
				at = append(at, tau)
			}
		})
		prev = cur
	}
	return at
}

// TestStoredFutureEqualsRecomputation is the one oracle for views that keep
// their future. At every instant over the horizon such a view equals an
// evaluation from scratch, in tuples and per-tuple expiration times; shows no
// expired row; never recomputes; holds no more rows than were alive when it
// last applied a birth; and stamps every read with a window that opens no
// earlier than the last birth, is true at its last instant and no longer. Under a budget of k it recomputes exactly
// at the (k+1)-th change point after each materialisation and nowhere else.
func TestStoredFutureEqualsRecomputation(t *testing.T) {
	const horizon = 33
	for seed := int64(1); seed <= 4; seed++ {
		for name, e := range futureShapes(t, seed) {
			for _, budget := range []int{0, 1, 3} {
				opt := WithPatching()
				if budget > 0 {
					opt = WithPatchBudget(budget)
				}
				v, err := New(name, e, opt)
				if err != nil {
					t.Fatal(err)
				}
				if err := v.Materialize(0); err != nil {
					t.Fatal(err)
				}
				label := func(tau xtime.Time) string {
					return fmt.Sprintf("seed %d, %s, budget %d, τ=%v", seed, name, budget, tau)
				}
				// recomputeAt is where the budget runs out: the (k+1)-th birth
				// after the last materialisation.
				recomputeAt := func(matAt xtime.Time) xtime.Time {
					if b := born(t, e, matAt, horizon); budget > 0 && len(b) > budget {
						return b[budget]
					}
					return xtime.Infinity
				}
				next, held := recomputeAt(0), v.ev.Rel.Len()
				for tau := xtime.Time(0); tau <= horizon; tau++ {
					rel, info, err := v.Read(tau)
					if err != nil {
						t.Fatal(err)
					}
					fresh, err := algebra.Evaluate(e, tau)
					if err != nil {
						t.Fatal(err)
					}
					if !reltest.EqualAt(rel, fresh.Rel, tau) {
						t.Fatalf("%s: the view reads\n%sa recomputation gives\n%s", label(tau), rel.Render(tau), fresh.Rel.Render(tau))
					}
					for _, row := range rel.RowsSorted(0) {
						if row.Texp <= tau {
							t.Fatalf("%s: row %v is shown expired", label(tau), row)
						}
					}
					if want := tau == next; (info.Source == SourceRecomputed) != want {
						t.Fatalf("%s: source %v; the budget runs out at %v", label(tau), info.Source, next)
					} else if want {
						next = recomputeAt(tau)
					}
					// Rows dead at the last birth are gone: live + one batch.
					if info.PatchesApplied > 0 || info.Source == SourceRecomputed {
						held = fresh.Rel.CountAt(tau)
					}
					if v.ev.Rel.Len() > held {
						t.Fatalf("%s: the materialisation holds %d rows, %d were alive at its last birth", label(tau), v.ev.Rel.Len(), held)
					}
					// The stamp: nothing born since At, true at Until − 1, false
					// at Until.
					if !info.Validity.Contains(tau) || len(born(t, e, info.Validity.At, tau)) > 0 {
						t.Fatalf("%s: stamped %v, births at %v", label(tau), info.Validity, born(t, e, info.Validity.At, tau))
					}
					last := xtime.Min(info.Validity.ValidUntil, horizon+1) - 1
					if at, _ := algebra.Evaluate(e, last); !reltest.EqualAt(rel, at.Rel, last) {
						t.Fatalf("%s: stamped %v, but at %v the rows are\n%sand the answer\n%s", label(tau), info.Validity, last, rel.Render(last), at.Rel.Render(last))
					}
					if until := info.Validity.ValidUntil; until <= horizon {
						if at, _ := algebra.Evaluate(e, until); reltest.EqualAt(rel, at.Rel, until) {
							t.Fatalf("%s: stamped %v, but the rows are still the answer at %v", label(tau), info.Validity, until)
						}
					}
				}
				if budget == 0 && v.Stats().Recomputations != 0 {
					t.Fatalf("seed %d, %s: %+v", seed, name, v.Stats())
				}
			}
		}
	}
}
