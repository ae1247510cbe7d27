package algebra

import (
	"math/rand"
	"strings"
	"testing"

	"expdb/internal/relation"
	"expdb/internal/relation/reltest"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// TestPushDownThroughDiffExtendsLifetime demonstrates the §3.1 objective:
// pushing a selection below a difference shrinks the critical set
// {t | t ∈ R ∧ t ∈ S ∧ texp_R(t) > texp_S(t)} and postpones recomputation.
func TestPushDownThroughDiffExtendsLifetime(t *testing.T) {
	r := relation.New(tuple.IntCols("v"))
	s := relation.New(tuple.IntCols("v"))
	// Critical tuple ⟨1⟩ with small texp_S — but filtered out by the
	// selection v >= 10.
	reltest.MustInsertInts(r, 20, 1)
	reltest.MustInsertInts(s, 2, 1)
	// Critical tuple ⟨10⟩ that survives the selection.
	reltest.MustInsertInts(r, 20, 10)
	reltest.MustInsertInts(s, 8, 10)
	d, err := NewDiff(NewBase("R", r), NewBase("S", s))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelect(ColConst{Col: 0, Op: OpGe, Const: value.Int(10)}, d)
	if err != nil {
		t.Fatal(err)
	}
	// Original plan: texp(σ(R−S)) = texp(R−S) = 2 (the filtered-out
	// critical tuple still forces early invalidation).
	if got := mustTexp(t, sel, 0); got != 2 {
		t.Fatalf("texp(original) = %v, want 2", got)
	}
	rewritten := PushDownSelections(sel)
	// Rewritten: σ(R) − σ(S) has only ⟨10⟩ critical → texp = 8.
	if got := mustTexp(t, rewritten, 0); got != 8 {
		t.Fatalf("texp(rewritten) = %v, want 8 (got plan %s)", got, rewritten)
	}
	// And the shapes: the top node must now be the difference.
	if _, ok := rewritten.(*Diff); !ok {
		t.Errorf("rewritten plan is %s, want difference on top", rewritten)
	}
}

func TestPushDownThroughProductSplitsConjuncts(t *testing.T) {
	e := NewProduct(pol(), el())
	pred := And{Preds: []Predicate{
		ColConst{Col: 1, Op: OpGe, Const: value.Int(25)}, // left only
		ColConst{Col: 3, Op: OpGe, Const: value.Int(80)}, // right only
		ColCol{Left: 0, Right: 2, Op: OpEq},              // mixed: must stay above
	}}
	sel, err := NewSelect(pred, e)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := PushDownSelections(sel)
	str := rewritten.String()
	// The mixed conjunct stays on top; the product's children become
	// selections.
	top, ok := rewritten.(*Select)
	if !ok {
		t.Fatalf("top of %s is not a selection", str)
	}
	prod, ok := top.Child.(*Product)
	if !ok {
		t.Fatalf("child of top selection is not the product: %s", str)
	}
	if _, ok := prod.Left.(*Select); !ok {
		t.Errorf("left conjunct not pushed: %s", str)
	}
	if _, ok := prod.Right.(*Select); !ok {
		t.Errorf("right conjunct not pushed: %s", str)
	}
	if !strings.Contains(str, "σ") {
		t.Errorf("plan lost selections: %s", str)
	}
}

func TestPushDownThroughProjectionRemaps(t *testing.T) {
	p, err := NewProject([]int{1, 0}, pol()) // (Deg, UID)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelect(ColConst{Col: 0, Op: OpEq, Const: value.Int(25)}, p)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := PushDownSelections(sel)
	// σ[$1=25](π[2,1](Pol)) → π[2,1](σ[$2=25](Pol)).
	top, ok := rewritten.(*Project)
	if !ok {
		t.Fatalf("top is %s, want projection", rewritten)
	}
	inner, ok := top.Child.(*Select)
	if !ok {
		t.Fatalf("projection child is %s, want selection", rewritten)
	}
	cc, ok := inner.Pred.(ColConst)
	if !ok || cc.Col != 1 {
		t.Fatalf("predicate not remapped: %s", rewritten)
	}
}

func TestPushDownThroughAggOnGroupColumns(t *testing.T) {
	a, err := NewAgg([]int{1}, []AggFunc{countStar()}, PolicyExact, pol())
	if err != nil {
		t.Fatal(err)
	}
	// Predicate on the group column (Deg): pushable.
	selGroup, err := NewSelect(ColConst{Col: 1, Op: OpEq, Const: value.Int(25)}, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := PushDownSelections(selGroup).(*Agg); !ok {
		t.Errorf("group-column selection not pushed below aggregation: %s",
			PushDownSelections(selGroup))
	}
	// Predicate on a non-group column (UID): must stay above.
	selOther, err := NewSelect(ColConst{Col: 0, Op: OpEq, Const: value.Int(1)}, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := PushDownSelections(selOther).(*Select); !ok {
		t.Errorf("non-group selection wrongly pushed: %s", PushDownSelections(selOther))
	}
}

// TestRewriteEquivalenceRandom: rewriting preserves results and per-tuple
// expiration times at every evaluation instant.
func TestRewriteEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		bases := []*Base{randRel(rng, "R"), randRel(rng, "S"), randRel(rng, "T")}
		inner := randExpr(rng, bases, 1+rng.Intn(2), false)
		pred := randPred(rng, inner.Schema().Arity(), 3)
		e, err := NewSelect(pred, inner)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rewritten := PushDownSelections(e)
		for tau := xtime.Time(0); tau <= 22; tau += 2 {
			a, _ := refEval(e, tau)
			b, err := EvalStream(rewritten, tau)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !reltest.EqualAt(a, b, tau) {
				t.Fatalf("trial %d at %v: rewrite changed semantics\noriginal %s:\n%s\nrewritten %s:\n%s",
					trial, tau, e, a.Render(tau), rewritten, b.Render(tau))
			}
		}
	}
}

// TestRewriteNeverShortensLifetime: pushing selections down may only delay
// (never advance) invalidation.
func TestRewriteNeverShortensLifetime(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		bases := []*Base{randRel(rng, "R"), randRel(rng, "S")}
		inner := randExpr(rng, bases, 1+rng.Intn(2), false)
		pred := randPred(rng, inner.Schema().Arity(), 3)
		e, err := NewSelect(pred, inner)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rewritten := PushDownSelections(e)
		before := mustTexp(t, e, 0)
		after := mustTexp(t, rewritten, 0)
		if after < before {
			t.Fatalf("trial %d: rewrite shortened texp from %v to %v\noriginal %s\nrewritten %s",
				trial, before, after, e, rewritten)
		}
	}
}

func TestCriticalSetShrinks(t *testing.T) {
	d := diffUID(t)
	sel, err := NewSelect(ColConst{Col: 0, Op: OpEq, Const: value.Int(1)}, d)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := PushDownSelections(sel).(*Diff)
	critBefore, err := d.CriticalSet(0)
	if err != nil {
		t.Fatal(err)
	}
	critAfter, err := rewritten.CriticalSet(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(critBefore) != 2 || len(critAfter) != 1 {
		t.Errorf("critical sets: before %d (want 2), after %d (want 1)",
			len(critBefore), len(critAfter))
	}
}
