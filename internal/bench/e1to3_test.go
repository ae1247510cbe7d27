package bench

import (
	"fmt"
	"io"

	"expdb/internal/algebra"
	"expdb/internal/relation"
	"expdb/internal/relation/reltest"
	"expdb/internal/tuple"
	"expdb/internal/workload"
	"expdb/internal/xtime"
)

// figure1 rebuilds the paper's example database.
func figure1() (pol, el *relation.Relation) {
	pol = relation.New(tuple.IntCols("UID", "Deg"))
	reltest.MustInsertInts(pol, 10, 1, 25)
	reltest.MustInsertInts(pol, 15, 2, 25)
	reltest.MustInsertInts(pol, 10, 3, 35)
	el = relation.New(tuple.IntCols("UID", "Deg"))
	reltest.MustInsertInts(el, 5, 1, 75)
	reltest.MustInsertInts(el, 3, 2, 85)
	reltest.MustInsertInts(el, 2, 4, 90)
	return pol, el
}

// runE1 reproduces Figures 1 and 2: the example database, the projection
// πexp_2(Pol) and the join Pol ⋈exp_{1=3} El at the paper's sample times,
// checking cell by cell that the expired materialisation equals
// recomputation.
func runE1(w io.Writer) error {
	pol, el := figure1()
	fmt.Fprintln(w, "Figure 1(a) — relation Pol at time 0:")
	fmt.Fprint(w, indent(pol.Render(-1)))
	fmt.Fprintln(w, "Figure 1(b) — relation El at time 0:")
	fmt.Fprint(w, indent(el.Render(-1)))

	proj, err := algebra.NewProject([]int{1}, algebra.NewBase("Pol", pol))
	if err != nil {
		return err
	}
	join, err := algebra.EquiJoin(algebra.NewBase("Pol", pol), 0, algebra.NewBase("El", el), 0)
	if err != nil {
		return err
	}
	projMat, err := algebra.EvalStream(proj, 0)
	if err != nil {
		return err
	}
	joinMat, err := algebra.EvalStream(join, 0)
	if err != nil {
		return err
	}
	for _, fig := range []struct {
		name string
		at   xtime.Time
		mat  *relation.Relation
	}{
		{"Figure 2(c): πexp_2(Pol) at 0", 0, projMat},
		{"Figure 2(d): πexp_2(Pol) at 10", 10, projMat},
		{"Figure 2(e): Pol ⋈ El at 0", 0, joinMat},
		{"Figure 2(f): Pol ⋈ El at 3", 3, joinMat},
		{"Figure 2(g): Pol ⋈ El at 5", 5, joinMat},
	} {
		fmt.Fprintf(w, "%s:\n%s", fig.name, indent(fig.mat.Render(fig.at)))
	}
	// Exhaustive equality sweep, the Figure 2 narrative.
	for tau := xtime.Time(0); tau <= 20; tau++ {
		for _, e := range []algebra.Expr{proj, join} {
			fresh, err := algebra.EvalStream(e, tau)
			if err != nil {
				return err
			}
			mat := projMat
			if e == algebra.Expr(join) {
				mat = joinMat
			}
			if !reltest.EqualAt(fresh, mat, tau) {
				return fmt.Errorf("materialisation diverged at %v for %s", tau, e)
			}
		}
	}
	fmt.Fprintln(w, "sweep 0..20: materialise-at-0 == recompute at every tick ✓")
	return nil
}

// runE2 sizes Theorem 1's workload: the news-service join over growing
// user counts. What serving it from the materialisation saves against
// recomputing it is timed by BenchmarkE1MonotonicMaintenance and
// BenchmarkE2TheoremOne in the root package.
func runE2(w io.Writer) error {
	t := newTable("users", "|join|")
	for _, n := range []int{100, 1000, 10000} {
		pol, el := workload.NewsService(n, 42)
		join, err := algebra.EquiJoin(algebra.NewBase("Pol", pol), 0, algebra.NewBase("El", el), 0)
		if err != nil {
			return err
		}
		mat, err := algebra.EvalStream(join, 0)
		if err != nil {
			return err
		}
		t.add(n, mat.CountAt(0))
	}
	t.write(w)
	fmt.Fprintln(w, "shape: maintenance of monotonic views costs only the expiration filter (Theorem 1);")
	fmt.Fprintln(w, "recomputation scales with the base data and re-runs the join.")
	return nil
}

// runE3 reproduces Figure 3: the histogram that invalidates at time 10
// and the difference that grows before time 10.
func runE3(w io.Writer) error {
	pol, el := figure1()
	hist, err := algebra.GroupBy([]int{1},
		[]algebra.AggFunc{{Kind: algebra.AggCount, Col: -1}}, algebra.PolicyExact,
		algebra.NewBase("Pol", pol))
	if err != nil {
		return err
	}
	histMat, err := algebra.EvalStream(hist, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 3(a): πexp_2,3(agg_{2},count(Pol)) at 0:\n%s", indent(histMat.Render(0)))
	histTexp, err := algebra.ExprTexp(hist, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "texp(histogram) = %s — invalid from 10 on, as the paper derives\n\n", histTexp)

	p1, err := algebra.NewProject([]int{0}, algebra.NewBase("Pol", pol))
	if err != nil {
		return err
	}
	p2, err := algebra.NewProject([]int{0}, algebra.NewBase("El", el))
	if err != nil {
		return err
	}
	diff, err := algebra.NewDiff(p1, p2)
	if err != nil {
		return err
	}
	for _, at := range []xtime.Time{0, 3, 5} {
		fresh, err := algebra.EvalStream(diff, at)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Figure 3(%c): π1(Pol) − π1(El) recomputed at %v:\n%s",
			'b'+byte(at/2), at, indent(fresh.Render(at)))
	}
	t := newTable("τ", "|recomputed|", "note")
	prev := -1
	for tau := xtime.Time(0); tau <= 10; tau++ {
		fresh, err := algebra.EvalStream(diff, tau)
		if err != nil {
			return err
		}
		n := fresh.CountAt(tau)
		note := ""
		if prev >= 0 && n > prev {
			note = "grew — materialisations cannot anticipate this"
		}
		t.add(tau, n, note)
		prev = n
	}
	t.write(w)
	diffTexp, err := algebra.ExprTexp(diff, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "texp(difference) = %s — \"the expression is invalid from time 3 onwards\"\n", diffTexp)
	return nil
}
