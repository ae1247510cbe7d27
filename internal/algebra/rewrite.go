package algebra

import "slices"

// Rewrites (§3.1 of the paper): algebraic equivalences that postpone the
// time a recomputation has to take place. The headline rule pushes
// selections below the non-monotonic difference operator, which shrinks
// the critical set {t | t ∈ R ∧ t ∈ S ∧ texp_R(t) > texp_S(t)} and thereby
// moves texp(e) later; pushing below monotonic operators reduces the work
// per recomputation. All rules preserve both the result *and* the derived
// expiration times, which the property tests verify.

// PushDownSelections rewrites e by pushing every selection as far towards
// the leaves as equivalence permits and returns the rewritten expression.
// The input expression is not modified; unchanged subtrees are shared.
func PushDownSelections(e Expr) Expr {
	switch n := e.(type) {
	case *Select:
		child := PushDownSelections(n.Child)
		return pushSelect(n.Pred, child)
	case *Project:
		return &Project{Cols: n.Cols, Child: PushDownSelections(n.Child)}
	case *Product:
		return &Product{Left: PushDownSelections(n.Left), Right: PushDownSelections(n.Right)}
	case *Union:
		return &Union{Left: PushDownSelections(n.Left), Right: PushDownSelections(n.Right)}
	case *Join:
		return &Join{Pred: n.Pred, Left: PushDownSelections(n.Left), Right: PushDownSelections(n.Right),
			BuildLeft: n.BuildLeft}
	case *Intersect:
		return &Intersect{Left: PushDownSelections(n.Left), Right: PushDownSelections(n.Right)}
	case *Diff:
		return &Diff{Left: PushDownSelections(n.Left), Right: PushDownSelections(n.Right)}
	case *Agg:
		return &Agg{GroupCols: n.GroupCols, Funcs: n.Funcs, Policy: n.Policy,
			Child: PushDownSelections(n.Child)}
	default:
		return e
	}
}

// pushSelect places σ_pred above child, first trying to sink it through
// child's operator. A predicate Cols cannot see into stays where it is.
func pushSelect(pred Predicate, child Expr) Expr {
	if !Cols(pred, func(int) bool { return true }) {
		return &Select{Pred: pred, Child: child}
	}
	switch n := child.(type) {
	case *Select:
		// σp(σq(e)) = σ(p ∧ q)(e): merge and retry as one predicate.
		return pushSelect(And{Preds: []Predicate{pred, n.Pred}}, n.Child)
	case *Project:
		// σp(π_cols(e)) = π_cols(σ_p′(e)) with p′ renumbered through cols.
		if p2, ok := MapCols(pred, func(c int) (int, bool) {
			if c < 0 || c >= len(n.Cols) {
				return 0, false
			}
			return n.Cols[c], true
		}); ok {
			return &Project{Cols: n.Cols, Child: pushSelect(p2, n.Child)}
		}
	case *Union, *Intersect, *Diff:
		// σp(R op S) = σp(R) op σp(S): p filters both sides alike, so the
		// max (∪) and min (∩) of a tuple's times are those of the tuples
		// kept. Under − it is the rule §3.1 motivates — it shrinks the
		// critical set to the selected tuples only.
		kids := child.Children()
		for i, k := range kids {
			kids[i] = pushSelect(pred, k)
		}
		out, _ := ReplaceChildren(child, kids)
		return out
	case *Product:
		if e, ok := pushThroughBinary(pred, n.Left, n.Right, func(l, r Expr) Expr {
			return &Product{Left: l, Right: r}
		}); ok {
			return e
		}
	case *Join:
		if e, ok := pushThroughBinary(pred, n.Left, n.Right, func(l, r Expr) Expr {
			return &Join{Pred: n.Pred, Left: l, Right: r, BuildLeft: n.BuildLeft}
		}); ok {
			return e
		}
	case *Agg:
		// σp(agg_{G,f}(e)) = agg_{G,f}(σp(e)) when p references only
		// grouping columns: stable partitioning means whole partitions
		// are kept or dropped, so aggregate values and partition times
		// are unaffected.
		if Cols(pred, func(c int) bool { return slices.Contains(n.GroupCols, c) }) {
			return &Agg{GroupCols: n.GroupCols, Funcs: n.Funcs, Policy: n.Policy,
				Child: pushSelect(pred, n.Child)}
		}
	}
	return &Select{Pred: pred, Child: child}
}

// pushThroughBinary distributes the conjuncts of pred over the two sides
// of a product-like operator: conjuncts referencing only left columns sink
// left, only right columns sink right (renumbered), mixed ones stay above.
// The split is one level deep: a nested ∧ moves as one conjunct, since
// splitting it would change the plan string the result cache keys on.
func pushThroughBinary(pred Predicate, left, right Expr, rebuild func(l, r Expr) Expr) (Expr, bool) {
	la := left.Schema().Arity()
	conjuncts := []Predicate{pred}
	if and, ok := pred.(And); ok {
		conjuncts = and.Preds
	}
	var toLeft, toRight, keep []Predicate
	for _, c := range conjuncts {
		lo, hi := la, -1
		Cols(c, func(col int) bool { lo, hi = min(lo, col), max(hi, col); return true })
		switch {
		case hi < la:
			toLeft = append(toLeft, c)
		case lo >= la:
			c, _ = MapCols(c, func(col int) (int, bool) { return col - la, true })
			toRight = append(toRight, c)
		default:
			keep = append(keep, c)
		}
	}
	if len(toLeft) == 0 && len(toRight) == 0 {
		return nil, false
	}
	l, r := left, right
	if len(toLeft) > 0 {
		l = pushSelect(AndOf(toLeft), l)
	}
	if len(toRight) > 0 {
		r = pushSelect(AndOf(toRight), r)
	}
	out := rebuild(l, r)
	if len(keep) > 0 {
		out = &Select{Pred: AndOf(keep), Child: out}
	}
	return out, true
}
