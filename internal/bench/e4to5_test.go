package bench

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"expdb/internal/algebra"
	"expdb/internal/relation"
	"expdb/internal/relation/reltest"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// aggWorkload builds a partitioned table ⟨grp, val, id⟩. Lifetimes are
// drawn from ten coarse steps so that time-sliced sets (tuples sharing an
// expiration time, §2.6.1) hold several tuples each; values come from a
// small symmetric domain including zeros, so neutral slices occur
// naturally for sum (zero sums) and avg (slice mean = partition mean).
func aggWorkload(groups, perGroup, maxLife int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(tuple.IntCols("grp", "val", "id"))
	step := maxLife / 10
	if step == 0 {
		step = 1
	}
	id := int64(0)
	for g := 0; g < groups; g++ {
		for i := 0; i < perGroup; i++ {
			val := []int64{-10, 0, 0, 10, 10, 20}[rng.Intn(6)]
			texp := xtime.Time((1 + rng.Intn(10)) * step)
			r.Insert(tuple.Ints(int64(g), val, id), texp)
			id++
		}
	}
	return r
}

// runE4 compares the three aggregate expiration policies per aggregate
// function: the mean lifetime of materialised group rows (larger is
// better — less maintenance) and the number of whole-expression
// invalidations over the workload's horizon.
func runE4(w io.Writer) error {
	const (
		groups   = 50
		perGroup = 20
		maxLife  = 100
	)
	base := aggWorkload(groups, perGroup, maxLife, 7)
	funcs := []algebra.AggFunc{
		{Kind: algebra.AggMin, Col: 1},
		{Kind: algebra.AggMax, Col: 1},
		{Kind: algebra.AggSum, Col: 1},
		{Kind: algebra.AggAvg, Col: 1},
		{Kind: algebra.AggCount, Col: -1},
	}
	policies := []algebra.AggPolicy{algebra.PolicyNaive, algebra.PolicyNeutral, algebra.PolicyExact}
	t := newTable("f", "policy", "mean row lifetime", "invalidations", "vs naive")
	for _, f := range funcs {
		var naiveLife float64
		for _, policy := range policies {
			gb, err := algebra.GroupBy([]int{0}, []algebra.AggFunc{f}, policy,
				algebra.NewBase("T", base))
			if err != nil {
				return err
			}
			mat, err := algebra.EvalStream(gb, 0)
			if err != nil {
				return err
			}
			life := float64(totalRemainingLifetime(mat, 0)) / float64(mat.CountAt(0))
			invalidations, err := countInvalidations(gb, xtime.Time(maxLife))
			if err != nil {
				return err
			}
			gain := ""
			if policy == algebra.PolicyNaive {
				naiveLife = life
			} else if naiveLife > 0 {
				gain = fmt.Sprintf("%+.0f%%", 100*(life-naiveLife)/naiveLife)
			}
			t.add(f, policy, fmt.Sprintf("%.1f", life), invalidations, gain)
		}
	}
	t.write(w)
	fmt.Fprintln(w, "shape: neutral-set and exact policies extend lifetimes for min/max/sum/avg;")
	fmt.Fprintln(w, "count strictly follows formula (8), as the paper states (Table 1).")
	return nil
}

// totalRemainingLifetime is Σ (texp − tau) over the rows of expτ(r) with a
// finite texp: how long a materialisation stays maintainable.
func totalRemainingLifetime(r *relation.Relation, tau xtime.Time) int64 {
	var total int64
	r.AliveAt(tau, func(row relation.Row) {
		if row.Texp.IsFinite() {
			total += int64(row.Texp - tau)
		}
	})
	return total
}

func TestTotalRemainingLifetime(t *testing.T) {
	r := relation.New(tuple.IntCols("uid", "deg"))
	reltest.MustInsertInts(r, 10, 1, 25)
	reltest.MustInsertInts(r, 15, 2, 25)
	reltest.MustInsertInts(r, xtime.Infinity, 3, 35) // a row that never expires adds nothing
	if got := totalRemainingLifetime(r, 0); got != 25 {
		t.Errorf("at 0: %d, want 10 + 15", got)
	}
	if got := totalRemainingLifetime(r, 12); got != 3 {
		t.Errorf("at 12: %d, want 15 − 12 (the row expired at 10 is not alive)", got)
	}
}

// countInvalidations walks the horizon: every time the materialised
// expression reaches its texp(e) it is re-materialised, counting one
// invalidation.
func countInvalidations(e algebra.Expr, horizon xtime.Time) (int, error) {
	invalidations := 0
	texp, err := algebra.ExprTexp(e, 0)
	if err != nil {
		return 0, err
	}
	for tau := xtime.Time(0); tau <= horizon; tau++ {
		if tau >= texp {
			invalidations++
			texp, err = algebra.ExprTexp(e, tau)
			if err != nil {
				return 0, err
			}
		}
	}
	return invalidations, nil
}

// diffWorkload builds two overlapping single-column tables; overlap and
// lifetime skew control the size of the critical set of Table 2.
func diffWorkload(n int, overlap float64, seed int64) (r, s *relation.Relation) {
	rng := rand.New(rand.NewSource(seed))
	r = relation.New(tuple.IntCols("v"))
	s = relation.New(tuple.IntCols("v"))
	for i := 0; i < n; i++ {
		rTexp := xtime.Time(1 + rng.Intn(100))
		r.Insert(tuple.Ints(int64(i)), rTexp)
		if rng.Float64() < overlap {
			s.Insert(tuple.Ints(int64(i)), xtime.Time(1+rng.Intn(100)))
		} else {
			s.Insert(tuple.Ints(int64(i+n)), xtime.Time(1+rng.Intn(100)))
		}
	}
	return r, s
}

// runE5 reproduces the Table 2 lifetime analysis at scale: how overlap
// drives the critical set, texp(e) (formula (11)) and the recomputation
// count of a maintained difference.
func runE5(w io.Writer) error {
	const n = 2000
	t := newTable("overlap", "|critical|", "texp(e)", "recomputations over horizon", "validity intervals")
	for _, overlap := range []float64{0, 0.25, 0.5, 0.75, 1} {
		r, s := diffWorkload(n, overlap, 11)
		d, err := algebra.NewDiff(algebra.NewBase("R", r), algebra.NewBase("S", s))
		if err != nil {
			return err
		}
		crit, err := d.CriticalSet(0)
		if err != nil {
			return err
		}
		texp, err := algebra.ExprTexp(d, 0)
		if err != nil {
			return err
		}
		recomps, err := countInvalidations(d, 100)
		if err != nil {
			return err
		}
		validity, err := algebra.Validity(d, 0)
		if err != nil {
			return err
		}
		t.add(fmt.Sprintf("%.2f", overlap), len(crit), texp, recomps, len(validity.Intervals()))
	}
	t.write(w)
	fmt.Fprintln(w, "shape: more overlap → larger critical set (case 3a of Table 2) → earlier texp(e)")
	fmt.Fprintln(w, "and more recomputations; zero overlap never invalidates.")
	return nil
}
