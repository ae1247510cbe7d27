// Benchmarks timing the measurable core of every paper artifact — one
// benchmark per experiment id of DESIGN.md §3 (E1–E11). The experiments'
// deterministic reports are internal/bench's golden test; these testing.B
// benches time the hot operation each experiment is about, so regressions
// in the reproduction show up in `go test -bench=. -benchmem`.
package expdb_test

import (
	"testing"

	"expdb"
	"expdb/algebra"
	"expdb/internal/engine"
	"expdb/internal/relation"
	"expdb/internal/view"
	"expdb/internal/workload"
	"expdb/internal/xtime"
)

// newsJoin builds the scaled §2.1 join over n users.
func newsJoin(b *testing.B, n int) (algebra.Expr, *relation.Relation, *relation.Relation) {
	b.Helper()
	pol, el := workload.NewsService(n, 42)
	j, err := algebra.EquiJoin(algebra.NewBase("Pol", pol), 0, algebra.NewBase("El", el), 0)
	if err != nil {
		b.Fatal(err)
	}
	return j, pol, el
}

func newsDiff(b *testing.B, n int) algebra.Expr {
	b.Helper()
	pol, el := workload.NewsService(n, 42)
	p1, err := algebra.NewProject([]int{0}, algebra.NewBase("Pol", pol))
	if err != nil {
		b.Fatal(err)
	}
	p2, err := algebra.NewProject([]int{0}, algebra.NewBase("El", el))
	if err != nil {
		b.Fatal(err)
	}
	d, err := algebra.NewDiff(p1, p2)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkE1MonotonicMaintenance (Figures 1–2): the cost of maintaining
// a materialised monotonic result — just the expτ filter.
func BenchmarkE1MonotonicMaintenance(b *testing.B) {
	j, _, _ := newsJoin(b, 2000)
	mat, err := algebra.EvalStream(j, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.CountAt(xtime.Time(i % 200))
	}
}

// BenchmarkE2TheoremOne: recomputation cost that Theorem 1 makes
// unnecessary for monotonic expressions.
func BenchmarkE2TheoremOne(b *testing.B) {
	j, _, _ := newsJoin(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algebra.EvalStream(j, xtime.Time(i%200)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3NonMonotonic (Figure 3): evaluating the non-monotonic
// difference (the recomputation unit of the invalidation analysis).
func BenchmarkE3NonMonotonic(b *testing.B) {
	d := newsDiff(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algebra.EvalStream(d, xtime.Time(i%200)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4AggregatePolicies (Table 1): aggregation with the three
// expiration policies.
func BenchmarkE4AggregatePolicies(b *testing.B) {
	pol, _ := workload.NewsService(5000, 7)
	for _, policy := range []algebra.AggPolicy{
		algebra.PolicyNaive, algebra.PolicyNeutral, algebra.PolicyExact,
	} {
		gb, err := algebra.GroupBy([]int{1},
			[]algebra.AggFunc{{Kind: algebra.AggSum, Col: 1}}, policy,
			algebra.NewBase("Pol", pol))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(policy.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algebra.EvalStream(gb, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5DifferenceLifetime (Table 2 / formula (11)): deriving
// texp(e) of a difference, i.e. scanning for the critical set.
func BenchmarkE5DifferenceLifetime(b *testing.B) {
	d := newsDiff(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algebra.ExprTexp(d, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6PatchVsRecompute (Theorem 3): a maintenance step of a
// patched difference view versus full recomputation.
func BenchmarkE6PatchVsRecompute(b *testing.B) {
	b.Run("patched-read", func(b *testing.B) {
		d := newsDiff(b, 2000).(*algebra.Diff)
		v, err := view.New("d", d, view.WithPatching())
		if err != nil {
			b.Fatal(err)
		}
		if err := v.Materialize(0); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := v.Read(xtime.Time(i % 200)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recompute-read", func(b *testing.B) {
		d := newsDiff(b, 2000)
		v, err := view.New("d", d, view.WithMode(view.ModeAlwaysRecompute))
		if err != nil {
			b.Fatal(err)
		}
		if err := v.Materialize(0); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := v.Read(xtime.Time(i % 200)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE7EagerVsLazy (§3.2): advancing an engine through a churn-
// heavy session workload.
func BenchmarkE7EagerVsLazy(b *testing.B) {
	cfgs := []struct {
		name string
		opts []engine.Option
	}{
		{"eager", nil},
		{"lazy-16", []engine.Option{engine.WithSweep(engine.SweepLazy, 16)}},
	}
	sessions := workload.Sessions(5000, 3, 10, 200, 5)
	for _, cfg := range cfgs {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := engine.New(cfg.opts...)
				if err := e.CreateTable("s", expdb.Schema{Cols: []expdb.Column{
					{Name: "id", Kind: expdb.Int(0).Kind()},
				}}); err != nil {
					b.Fatal(err)
				}
				var horizon xtime.Time
				for _, s := range sessions {
					texp := s.Start + s.TTL
					if err := e.Insert("s", expdb.Ints(s.ID), texp); err != nil {
						b.Fatal(err)
					}
					if texp > horizon {
						horizon = texp
					}
				}
				if err := e.Advance(horizon + 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8Schroedinger (§3.3–3.4): computing the validity interval set
// I(e) of a difference.
func BenchmarkE8Schroedinger(b *testing.B) {
	d := newsDiff(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algebra.Validity(d, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Rewrites (§3.1): applying the selection push-down rewrite to
// a plan.
func BenchmarkE9Rewrites(b *testing.B) {
	d := newsDiff(b, 100)
	sel, err := algebra.NewSelect(algebra.ColConst{
		Col: 0, Op: algebra.OpLt, Const: expdb.Int(50),
	}, d)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if algebra.PushDownSelections(sel) == nil {
			b.Fatal("nil plan")
		}
	}
}

// BenchmarkE10PatchBudget (§3.4.2): one maintenance step of a budgeted
// patched view (queue pop + possible recomputation amortised in).
func BenchmarkE10PatchBudget(b *testing.B) {
	d := newsDiff(b, 2000).(*algebra.Diff)
	v, err := view.New("d", d, view.WithPatchBudget(64))
	if err != nil {
		b.Fatal(err)
	}
	if err := v.Materialize(0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := v.Read(xtime.Time(i % 200)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11Incremental (§3.1): per-operator maintenance of a stacked
// plan versus whole-expression recomputation (compare with
// BenchmarkE3NonMonotonic).
func BenchmarkE11Incremental(b *testing.B) {
	d := newsDiff(b, 2000)
	inc := view.NewIncremental(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inc.Eval(xtime.Time(i % 200)); err != nil {
			b.Fatal(err)
		}
	}
}
