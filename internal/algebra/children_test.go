package algebra

import (
	"testing"

	"expdb/internal/relation"
	"expdb/internal/relation/reltest"
	"expdb/internal/tuple"
	"expdb/internal/value"
)

// TestReplaceChildrenPreservesSemantics rebuilds every node kind with the
// evaluated-and-wrapped children and checks that evaluation is unchanged —
// the soundness requirement of per-operator recomputation.
func TestReplaceChildrenPreservesSemantics(t *testing.T) {
	sel, err := NewSelect(ColConst{Col: 1, Op: OpGe, Const: value.Int(25)}, pol())
	if err != nil {
		t.Fatal(err)
	}
	proj, err := NewProject([]int{1}, pol())
	if err != nil {
		t.Fatal(err)
	}
	un, err := NewUnion(pol(), el())
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewIntersect(pol(), el())
	if err != nil {
		t.Fatal(err)
	}
	jn, err := EquiJoin(pol(), 0, el(), 0)
	if err != nil {
		t.Fatal(err)
	}
	df, err := NewDiff(pol(), el())
	if err != nil {
		t.Fatal(err)
	}
	ag, err := NewAgg([]int{1}, []AggFunc{{Kind: AggCount, Col: -1}}, PolicyExact, pol())
	if err != nil {
		t.Fatal(err)
	}
	exprs := []Expr{sel, proj, NewProduct(pol(), el()), un, in, jn, df, ag}
	for _, e := range exprs {
		// Evaluate children at time 0 and wrap the snapshots as bases.
		children := e.Children()
		replaced := make([]Expr, len(children))
		for i, c := range children {
			rel, err := EvalStream(c, 0)
			if err != nil {
				t.Fatal(err)
			}
			replaced[i] = NewBase("cached", rel)
		}
		rebuilt, err := ReplaceChildren(e, replaced)
		if err != nil {
			t.Fatalf("%T: %v", e, err)
		}
		want, _ := refEval(e, 0)
		got, err := EvalStream(rebuilt, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reltest.EqualAt(want, got, 0) {
			t.Errorf("%T: rebuilt node evaluates differently", e)
		}
	}
}

func TestReplaceChildrenArityChecked(t *testing.T) {
	d, err := NewDiff(pol(), el())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplaceChildren(d, []Expr{pol()}); err == nil {
		t.Error("wrong child count accepted")
	}
	// Base has no children; replacing with none returns it unchanged.
	b := NewBase("x", relation.New(tuple.IntCols("a")))
	got, err := ReplaceChildren(b, nil)
	if err != nil || got != b {
		t.Errorf("base replacement = %v, %v", got, err)
	}
}
