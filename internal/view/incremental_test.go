package view

import (
	"math/rand"
	"testing"

	"expdb/internal/algebra"
	"expdb/internal/index"
	"expdb/internal/relation"
	"expdb/internal/relation/reltest"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// stackedExpr builds π₁(Pol) − π₁(Pol ⋈ El): an expensive monotonic
// subtree (the join) under a volatile difference. Pol tuples outlive
// their join counterparts (which inherit El's short lifetimes via the min
// rule), so the difference has critical tuples and invalidates.
func stackedExpr(t *testing.T) (algebra.Expr, algebra.Expr) {
	t.Helper()
	polR, elR := figure1DB()
	join, err := algebra.EquiJoin(algebra.NewBase("Pol", polR), 0, algebra.NewBase("El", elR), 0)
	if err != nil {
		t.Fatal(err)
	}
	joinUID, err := algebra.NewProject([]int{0}, join)
	if err != nil {
		t.Fatal(err)
	}
	polUID, err := algebra.NewProject([]int{0}, algebra.NewBase("Pol", polR))
	if err != nil {
		t.Fatal(err)
	}
	d, err := algebra.NewDiff(polUID, joinUID)
	if err != nil {
		t.Fatal(err)
	}
	return d, join
}

func TestIncrementalMatchesDirectEval(t *testing.T) {
	expr, _ := stackedExpr(t)
	inc := NewIncremental(expr)
	for tau := xtime.Time(0); tau <= 20; tau++ {
		got, err := inc.Eval(tau)
		if err != nil {
			t.Fatal(err)
		}
		want, err := algebra.EvalStream(expr, tau)
		if err != nil {
			t.Fatal(err)
		}
		if !reltest.EqualAt(want, got, tau) {
			t.Fatalf("incremental diverges at %v:\ninc:\n%s\ndirect:\n%s",
				tau, got.Render(tau), want.Render(tau))
		}
	}
}

func TestIncrementalCachesValidSubtrees(t *testing.T) {
	expr, _ := stackedExpr(t)
	inc := NewIncremental(expr)
	if _, err := inc.Eval(0); err != nil {
		t.Fatal(err)
	}
	first := inc.Stats()
	if first.NodeFresh == 0 {
		t.Fatal("first eval must compute nodes")
	}
	// Re-evaluating within the validity window touches no operator.
	if _, err := inc.Eval(1); err != nil {
		t.Fatal(err)
	}
	second := inc.Stats()
	if second.NodeFresh != first.NodeFresh {
		t.Fatalf("valid re-eval recomputed operators: %+v -> %+v", first, second)
	}
	if second.NodeCached == first.NodeCached {
		t.Fatal("valid re-eval did not hit the cache")
	}
}

func TestIncrementalRecomputesOnlyInvalidOperators(t *testing.T) {
	expr, _ := stackedExpr(t)
	inc := NewIncremental(expr)
	if _, err := inc.Eval(0); err != nil {
		t.Fatal(err)
	}
	fresh0 := inc.Stats().NodeFresh
	texp, err := inc.Texp()
	if err != nil {
		t.Fatal(err)
	}
	if texp == xtime.Infinity {
		t.Fatal("difference over overlapping data must invalidate")
	}
	// Evaluate past the invalidation: the diff (and only what depends on
	// invalid nodes) recomputes; fully-valid monotonic subtrees stay
	// cached.
	if _, err := inc.Eval(texp); err != nil {
		t.Fatal(err)
	}
	delta := inc.Stats().NodeFresh - fresh0
	if delta == 0 {
		t.Fatal("invalid root was not recomputed")
	}
	if delta >= fresh0 {
		t.Fatalf("recomputed %d of %d operators — no caching happened", delta, fresh0)
	}
}

func TestIncrementalInvalidate(t *testing.T) {
	polR, _ := figure1DB()
	base := algebra.NewBase("Pol", polR)
	inc := NewIncremental(base)
	if _, err := inc.Eval(0); err != nil {
		t.Fatal(err)
	}
	// An out-of-band insert is invisible to the cache...
	polR.Insert(tuple.Ints(9, 99), 50)
	got, err := inc.Eval(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Contains(tuple.Ints(9, 99), 1) {
		t.Fatal("cache unexpectedly saw the insert")
	}
	// ...until Invalidate drops the cached materialisations.
	inc.Invalidate()
	got, err = inc.Eval(1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Contains(tuple.Ints(9, 99), 1) {
		t.Fatal("Invalidate did not refresh the cache")
	}
}

// TestIncrementalRandom cross-checks the per-operator maintainer against
// direct evaluation over random expressions and times.
func TestIncrementalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		r1 := randomRel(rng)
		r2 := randomRel(rng)
		p1, err := algebra.NewProject([]int{0}, algebra.NewBase("R", r1))
		if err != nil {
			t.Fatal(err)
		}
		p2, err := algebra.NewProject([]int{0}, algebra.NewBase("S", r2))
		if err != nil {
			t.Fatal(err)
		}
		var expr algebra.Expr
		switch trial % 3 {
		case 0:
			expr, err = algebra.NewDiff(p1, p2)
		case 1:
			expr, err = algebra.NewAgg([]int{0},
				[]algebra.AggFunc{{Kind: algebra.AggCount, Col: -1}},
				algebra.PolicyExact, p1)
		default:
			var u algebra.Expr
			u, err = algebra.NewUnion(p1, p2)
			if err != nil {
				t.Fatal(err)
			}
			expr, err = algebra.NewDiff(u, p2)
		}
		if err != nil {
			t.Fatal(err)
		}
		inc := NewIncremental(expr)
		for tau := xtime.Time(0); tau <= 30; tau += xtime.Time(1 + rng.Intn(3)) {
			got, err := inc.Eval(tau)
			if err != nil {
				t.Fatal(err)
			}
			want, err := algebra.EvalStream(expr, tau)
			if err != nil {
				t.Fatal(err)
			}
			if !reltest.EqualAt(want, got, tau) {
				t.Fatalf("trial %d: incremental diverges at %v for %s", trial, tau, expr)
			}
		}
	}
}

func randomRel(rng *rand.Rand) *relation.Relation {
	r := relation.New(tuple.IntCols("a", "b"))
	for i := 0; i < 3+rng.Intn(10); i++ {
		r.Insert(tuple.Ints(int64(rng.Intn(6)), int64(rng.Intn(6))),
			xtime.Time(1+rng.Intn(25)))
	}
	return r
}

// TestIncrementalWalksIndexScans: views now store physical plans, so the
// per-operator maintainer meets index probes. An IndexScan reports its
// table as its child; the maintainer must descend through it and still
// match direct evaluation, rows and texp(e), at every tick.
func TestIncrementalWalksIndexScans(t *testing.T) {
	polR, elR := figure1DB()
	polR.AttachIndex("pol_deg", index.NewHash([]int{1}))
	deg25 := algebra.ColConst{Col: 1, Op: algebra.OpEq, Const: value.Int(25)}
	probe := algebra.NewIndexScan(algebra.NewBase("Pol", polR), "pol_deg", deg25, nil)
	probe.Eq = []value.Value{value.Int(25)}
	probe.EqKey = tuple.Tuple(probe.Eq).Key()
	polUID, err := algebra.NewProject([]int{0}, probe)
	if err != nil {
		t.Fatal(err)
	}
	elUID, err := algebra.NewProject([]int{0}, algebra.NewBase("El", elR))
	if err != nil {
		t.Fatal(err)
	}
	expr, err := algebra.NewDiff(polUID, elUID)
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(expr)
	for tau := xtime.Time(0); tau <= 16; tau++ {
		got, err := inc.Eval(tau)
		if err != nil {
			t.Fatal(err)
		}
		want, err := algebra.EvalStream(expr, tau)
		if err != nil {
			t.Fatal(err)
		}
		if !reltest.EqualAt(want, got, tau) {
			t.Fatalf("incremental diverges at %v:\ninc:\n%s\ndirect:\n%s", tau, got.Render(tau), want.Render(tau))
		}
		gotTexp, err := inc.Texp()
		if err != nil {
			t.Fatal(err)
		}
		if wantTexp, _ := algebra.ExprTexp(expr, tau); tau >= gotTexp || gotTexp > wantTexp {
			// The cached root may have been materialised earlier, so its
			// texp(e) is a still-open window no later than a fresh one.
			t.Fatalf("at %v: incremental texp %v, direct %v", tau, gotTexp, wantTexp)
		}
	}
	if st := inc.Stats(); st.NodeCached == 0 || st.NodeFresh <= 5 {
		t.Fatalf("stats %+v: want cached reads and more than one full evaluation", st)
	}
}
