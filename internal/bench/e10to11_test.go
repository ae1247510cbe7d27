package bench

import (
	"fmt"
	"io"

	"expdb/internal/algebra"
	"expdb/internal/view"
	"expdb/internal/workload"
	"expdb/internal/xtime"
)

// runE10 sweeps the §3.4.2 patch budget: the trade-off between up-front
// transfer (patches shipped with the materialisation) and future
// communication (re-fetches when the bounded queue runs dry).
func runE10(w io.Writer) error {
	t := newTable("patch budget", "refetches", "patches applied", "bytes in", "msgs out")
	for _, budget := range []int{0, 400, 100, 25, 5, 1 << 30} {
		label := fmt.Sprint(budget)
		switch budget {
		case 0:
			label = "none (texp only)"
		case 1 << 30:
			label = "unlimited (Theorem 3)"
		}
		run, err := remoteDiff(200, budget != 0, budget, false)
		if err != nil {
			return err
		}
		t.add(label, run.refetches, run.patches, kB(run.BytesReceived), run.MessagesSent)
	}
	t.write(w)
	fmt.Fprintln(w, "shape: larger budgets trade up-front bytes for fewer re-fetches — the §3.4.2")
	fmt.Fprintln(w, "trade-off; the unlimited queue recovers Theorem 3 (zero re-fetches).")
	return nil
}

// runE11 is the per-operator recomputation ablation (§3.1, "act on a
// per-operator basis"): a volatile difference stacked on an expensive
// monotonic join, maintained by whole-expression recomputation versus the
// incremental per-operator maintainer.
func runE11(w io.Writer) error {
	const users = 2000
	const horizon = 100
	pol, el := workload.NewsService(users, 5)
	build := func() (algebra.Expr, error) {
		join, err := algebra.EquiJoin(algebra.NewBase("Pol", pol), 0, algebra.NewBase("El", el), 0)
		if err != nil {
			return nil, err
		}
		joinUID, err := algebra.NewProject([]int{0}, join)
		if err != nil {
			return nil, err
		}
		polUID, err := algebra.NewProject([]int{0}, algebra.NewBase("Pol", pol))
		if err != nil {
			return nil, err
		}
		return algebra.NewDiff(polUID, joinUID)
	}
	expr, err := build()
	if err != nil {
		return err
	}

	// Whole-expression maintenance: count every operator evaluation a
	// recomputing view performs (operators per recomputation = all 6).
	v, err := view.New("d", expr)
	if err != nil {
		return err
	}
	if err := v.Materialize(0); err != nil {
		return err
	}
	for tau := xtime.Time(0); tau <= horizon; tau++ {
		if _, _, err := v.Read(tau); err != nil {
			return err
		}
	}
	wholeRecomputes := v.Stats().Recomputations + 1 // + initial materialisation
	operators := 0
	algebra.Walk(expr, func(algebra.Expr) { operators++ })

	// Per-operator maintenance (§3.1): only invalid operators re-run.
	inc := view.NewIncremental(expr)
	for tau := xtime.Time(0); tau <= horizon; tau++ {
		if _, err := inc.Eval(tau); err != nil {
			return err
		}
	}
	ist := inc.Stats()

	t := newTable("strategy", "expression recomputes", "operator evaluations", "cache hits")
	t.add("whole expression", wholeRecomputes, wholeRecomputes*operators, 0)
	t.add("per-operator (§3.1)", wholeRecomputes, ist.NodeFresh, ist.NodeCached)
	t.write(w)
	fmt.Fprintf(w, "expression has %d operators; the volatile difference invalidates %d times,\n",
		operators, wholeRecomputes-1)
	fmt.Fprintln(w, "but the expensive monotonic join subtree is evaluated once under per-operator")
	fmt.Fprintln(w, "maintenance — recomputation cost tracks the invalid operator, not the plan size.")
	return nil
}
