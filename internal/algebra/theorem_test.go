package algebra

import (
	"math/rand"
	"testing"

	"expdb/internal/index"
	"expdb/internal/relation"
	"expdb/internal/relation/reltest"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// randRel builds a random 2-column relation over a tiny value domain so
// that overlaps (shared tuples across relations, duplicate projections,
// joinable keys) are common. A hash index on the first column serves
// IndexScan.
func randRel(rng *rand.Rand, name string) *Base {
	r := relation.New(tuple.IntCols("a", "b"))
	r.AttachIndex(name+"_a", index.NewHash([]int{0}))
	if name != "S" { // S scans tuples, the others their column arrays
		r.EnableIntArrays()
	}
	n := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		texp := xtime.Time(1 + rng.Intn(20))
		if rng.Intn(8) == 0 {
			texp = xtime.Infinity
		}
		reltest.MustInsertInts(r, texp, int64(rng.Intn(4)), int64(rng.Intn(4)))
	}
	return NewBase(name, r)
}

// randExpr builds a random expression of the given depth over the bases —
// each carrying a hash index named after it on its first column — with
// kernelPred predicates. With monotonicOnly it draws only operators (1)–(6)
// and IndexScan. Draw 0 is a σ that always fits, so a spent fuzz input ends
// every tree.
func randExpr(rng *rand.Rand, bases []*Base, depth int, monotonicOnly bool) Expr {
	if depth == 0 {
		return bases[rng.Intn(len(bases))]
	}
	child := func() Expr { return randExpr(rng, bases, depth-1, monotonicOnly) }
	limit := 9
	if monotonicOnly {
		limit = 7
	}
	for {
		var e Expr
		var err error
		switch rng.Intn(limit) {
		case 0:
			c := child()
			e, err = NewSelect(kernelPred(rng, c.Schema().Arity(), 2), c)
		case 1:
			c := child()
			e, err = NewProject(randCols(rng, c.Schema().Arity()), c)
		case 2:
			e = NewProduct(child(), child())
		case 3:
			e, err = NewUnion(child(), child())
		case 4:
			e, err = NewIntersect(child(), child())
		case 5:
			l, r := child(), child()
			la, ra := l.Schema().Arity(), r.Schema().Arity()
			pred := kernelPred(rng, la+ra, 1)
			if rng.Intn(2) == 0 { // an equality across the sides: a hash join
				pred = And{Preds: []Predicate{ColCol{Left: rng.Intn(la), Right: la + rng.Intn(ra), Op: OpEq}, pred}}
			}
			var j *Join
			if j, err = NewJoin(pred, l, r); err == nil {
				j.BuildLeft, e = rng.Intn(2) == 0, j
			}
		case 6:
			b, v := bases[rng.Intn(len(bases))], kernelValue(rng)
			s := NewIndexScan(b, []string{b.Name + "_a", "dropped"}[rng.Intn(2)], ColConst{Col: 0, Op: OpEq, Const: v}, nil)
			s.Eq, s.EqKey = []value.Value{v}, tuple.T(v).Key()
			e = s
		case 7:
			e, err = NewDiff(child(), child())
		default:
			c := child()
			arity := c.Schema().Arity()
			f := AggFunc{Kind: AggKind(rng.Intn(5)), Col: rng.Intn(arity)}
			if f.Kind == AggCount && rng.Intn(2) == 0 {
				f.Col = -1
			}
			group, policy := []int{rng.Intn(arity)}[:rng.Intn(2)], AggPolicy(rng.Intn(3))
			if rng.Intn(2) == 0 {
				e, err = NewAgg(group, []AggFunc{f}, policy, c)
			} else {
				e, err = GroupBy(group, []AggFunc{f}, policy, c)
			}
		}
		if err == nil && e.Schema().Arity() <= 6 {
			return e
		}
	}
}

// randPred draws a predicate over arity columns: a comparison or, while
// depth lasts, an And, Or or Not of smaller ones — so the rewrites renumber
// through every connective, nested ones included.
func randPred(rng *rand.Rand, arity, depth int) Predicate {
	c, kinds := rng.Intn(arity), 2
	if depth > 0 {
		kinds = 5
	}
	sub := func() Predicate { return randPred(rng, arity, depth-1) }
	switch rng.Intn(kinds) {
	case 0:
		return ColConst{Col: c, Op: CmpOp(rng.Intn(6)), Const: value.Int(int64(rng.Intn(4)))}
	case 1:
		return ColCol{Left: c, Right: rng.Intn(arity), Op: CmpOp(rng.Intn(6))}
	case 2:
		return And{Preds: []Predicate{sub(), sub()}}
	case 3:
		return Or{Preds: []Predicate{sub(), sub()}}
	default:
		return Not{Pred: sub()}
	}
}

func randCols(rng *rand.Rand, arity int) []int {
	n := 1 + rng.Intn(arity)
	cols := make([]int, n)
	for i := range cols {
		cols[i] = rng.Intn(arity)
	}
	return cols
}

// TestTheorem1Random: for random monotonic expressions,
// expτ′(e) = expτ′(expτ(e)) for all τ ≤ τ′ — including per-tuple
// expiration times (the property that makes remote maintenance free).
func TestTheorem1Random(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		bases := []*Base{randRel(rng, "R"), randRel(rng, "S"), randRel(rng, "T")}
		e := randExpr(rng, bases, 1+rng.Intn(3), true)
		tau := xtime.Time(rng.Intn(10))
		mat, err := EvalStream(e, tau)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for tau2 := tau; tau2 <= 24; tau2++ {
			if fresh, _ := refEval(e, tau2); !reltest.EqualAt(fresh, mat, tau2) {
				t.Fatalf("trial %d: Theorem 1 violated for %s (materialised %v, checked %v)\nmat:\n%s\nfresh:\n%s",
					trial, e, tau, tau2, mat.Render(tau2), fresh.Render(tau2))
			}
		}
	}
}

// TestTheorem2Random: for random expressions including aggregation and
// difference, the materialisation matches recomputation at every τ′ with
// τ ≤ τ′ < texp(e).
func TestTheorem2Random(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		bases := []*Base{randRel(rng, "R"), randRel(rng, "S"), randRel(rng, "T")}
		e := randExpr(rng, bases, 1+rng.Intn(3), false)
		tau := xtime.Time(rng.Intn(10))
		ev, err := Evaluate(e, tau)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		mat, texp := ev.Rel, ev.Texp
		if texp <= tau {
			t.Fatalf("trial %d: texp(e) = %v not after materialisation time %v", trial, texp, tau)
		}
		for tau2 := tau; tau2 <= 24 && tau2 < texp; tau2++ {
			if fresh, _ := refEval(e, tau2); !reltest.EqualAt(fresh, mat, tau2) {
				t.Fatalf("trial %d: Theorem 2 violated for %s (materialised %v, texp %v, checked %v)\nmat:\n%s\nfresh:\n%s",
					trial, e, tau, texp, tau2, mat.Render(tau2), fresh.Render(tau2))
			}
		}
	}
}
