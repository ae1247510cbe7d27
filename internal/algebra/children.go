package algebra

import "fmt"

// ReplaceChildren returns a copy of e whose direct subexpressions are
// children, in the order Children() reports them. It is the structural
// hook for per-operator recomputation (§3.1): a maintainer can substitute
// cached materialisations (wrapped as Base leaves) for still-valid
// subtrees and re-evaluate only the invalid operator.
func ReplaceChildren(e Expr, children []Expr) (Expr, error) {
	if need := arity(e); len(children) != need {
		return nil, fmt.Errorf("algebra: %T needs %d children, got %d", e, need, len(children))
	}
	switch n := e.(type) {
	case *Base:
		return n, nil
	case *Select:
		return &Select{Pred: n.Pred, Child: children[0]}, nil
	case *Project:
		return &Project{Cols: n.Cols, Child: children[0]}, nil
	case *Product:
		return &Product{Left: children[0], Right: children[1]}, nil
	case *Union:
		return &Union{Left: children[0], Right: children[1]}, nil
	case *Join:
		return &Join{Pred: n.Pred, Left: children[0], Right: children[1], BuildLeft: n.BuildLeft}, nil
	case *IndexScan:
		if b, ok := children[0].(*Base); ok {
			out := *n
			out.Base = b
			out.children = []Expr{b}
			return &out, nil
		}
		// The substituted child is no longer a bare table leaf (e.g. a
		// cached materialisation): the probe no longer applies, but the
		// node is equivalent to σ[Full](child) by construction.
		if n.Full == nil {
			return children[0], nil
		}
		return &Select{Pred: n.Full, Child: children[0]}, nil
	case *Intersect:
		return &Intersect{Left: children[0], Right: children[1]}, nil
	case *Diff:
		return &Diff{Left: children[0], Right: children[1]}, nil
	case *Agg:
		return &Agg{GroupCols: n.GroupCols, Funcs: n.Funcs, Policy: n.Policy, Child: children[0]}, nil
	default:
		return nil, fmt.Errorf("algebra: ReplaceChildren: unsupported node %T", e)
	}
}

// arity is len(e.Children()) without the slice Children allocates.
func arity(e Expr) int {
	switch e.(type) {
	case *Base:
		return 0
	case *Product, *Union, *Join, *Intersect, *Diff:
		return 2
	}
	return 1
}
