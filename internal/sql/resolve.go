package sql

import (
	"errors"
	"fmt"
	"strings"

	"expdb/internal/algebra"
	"expdb/internal/trace"
	"expdb/internal/tuple"
	"expdb/internal/view"
	"expdb/internal/xtime"
)

// scope maps column references to 0-based indices of the current
// intermediate schema during planning: the columns of its FROM sources,
// in order. It names the sources' schemas and copies no column.
type scope []scopeSource

type scopeSource struct {
	table  string // source name ("" never matches a qualifier)
	schema tuple.Schema
}

// resolve returns the index of ref, insisting on uniqueness for
// unqualified names.
func (sc scope) resolve(ref ColRef) (int, error) {
	found, off := -1, 0
	for _, src := range sc {
		for i, c := range src.schema.Cols {
			if !strings.EqualFold(c.Name, ref.Name) {
				continue
			}
			if ref.Table != "" && !strings.EqualFold(src.table, ref.Table) {
				continue
			}
			if found >= 0 {
				return 0, fmt.Errorf("sql: column %s is ambiguous", refString(ref))
			}
			found = off + i
		}
		off += len(src.schema.Cols)
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: unknown column %s", refString(ref))
	}
	return found, nil
}

func refString(ref ColRef) string {
	if ref.Table != "" {
		return ref.Table + "." + ref.Name
	}
	return ref.Name
}

// condToPredicate lowers a parsed condition into an algebra predicate
// over the scope's schema.
func condToPredicate(c Cond, sc scope) (algebra.Predicate, error) {
	switch n := c.(type) {
	case *Compare:
		return compareToPredicate(n, sc)
	case *LogicalAnd:
		preds := make([]algebra.Predicate, len(n.Conds))
		for i, sub := range n.Conds {
			p, err := condToPredicate(sub, sc)
			if err != nil {
				return nil, err
			}
			preds[i] = p
		}
		return algebra.And{Preds: preds}, nil
	case *LogicalOr:
		preds := make([]algebra.Predicate, len(n.Conds))
		for i, sub := range n.Conds {
			p, err := condToPredicate(sub, sc)
			if err != nil {
				return nil, err
			}
			preds[i] = p
		}
		return algebra.Or{Preds: preds}, nil
	case *LogicalNot:
		p, err := condToPredicate(n.Cond, sc)
		if err != nil {
			return nil, err
		}
		return algebra.Not{Pred: p}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported condition %T", c)
	}
}

var cmpOps = map[string]algebra.CmpOp{
	"=": algebra.OpEq, "<>": algebra.OpNe, "<": algebra.OpLt,
	"<=": algebra.OpLe, ">": algebra.OpGt, ">=": algebra.OpGe,
}

var flipped = map[string]string{
	"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<=",
}

func compareToPredicate(n *Compare, sc scope) (algebra.Predicate, error) {
	op, ok := cmpOps[n.Op]
	if !ok {
		return nil, fmt.Errorf("sql: unknown operator %q", n.Op)
	}
	switch {
	case n.Left.Col != nil && n.Right.Col != nil:
		l, err := sc.resolve(*n.Left.Col)
		if err != nil {
			return nil, err
		}
		r, err := sc.resolve(*n.Right.Col)
		if err != nil {
			return nil, err
		}
		return algebra.ColCol{Left: l, Right: r, Op: op}, nil
	case n.Left.Col != nil && n.Right.Lit != nil:
		l, err := sc.resolve(*n.Left.Col)
		if err != nil {
			return nil, err
		}
		return algebra.ColConst{Col: l, Op: op, Const: *n.Right.Lit}, nil
	case n.Left.Lit != nil && n.Right.Col != nil:
		// Normalise "5 < x" to "x > 5".
		r, err := sc.resolve(*n.Right.Col)
		if err != nil {
			return nil, err
		}
		return algebra.ColConst{Col: r, Op: cmpOps[flipped[n.Op]], Const: *n.Left.Lit}, nil
	default:
		// Two literals: fold to a constant predicate.
		if op.Test(n.Left.Lit.Compare(*n.Right.Lit)) {
			return algebra.True{}, nil
		}
		return algebra.Not{Pred: algebra.True{}}, nil
	}
}

// planSelect lowers a SELECT into an algebra expression over the engine's
// base relations (or view snapshots, whose reads it records in p).
func (s *Session) planSelect(p *Plan, sel *Select) (algebra.Expr, error) {
	expr, src, err := s.planFrom(p, sel.From)
	if err != nil {
		return nil, err
	}
	sc := append(make(scope, 0, 4), src)
	for i := range sel.Joins {
		j := &sel.Joins[i]
		right, src, err := s.planFrom(p, j.Table)
		if err != nil {
			return nil, err
		}
		sc = append(sc, src)
		// The ON condition may reference every table joined so far
		// (left-deep chain), so it is lowered against the widened scope.
		pred, err := condToPredicate(j.On, sc)
		if err != nil {
			return nil, err
		}
		expr, err = algebra.NewJoin(pred, expr, right)
		if err != nil {
			return nil, err
		}
	}
	if sel.Where != nil {
		pred, err := condToPredicate(sel.Where, sc)
		if err != nil {
			return nil, err
		}
		expr, err = algebra.NewSelect(pred, expr)
		if err != nil {
			return nil, err
		}
	}
	expr, err = s.planItems(sel, expr, sc)
	if err != nil {
		return nil, err
	}
	if sel.Set != nil {
		right, err := s.planSelect(p, sel.Set.Right)
		if err != nil {
			return nil, err
		}
		switch sel.Set.Op {
		case "UNION":
			return algebra.NewUnion(expr, right)
		case "EXCEPT":
			return algebra.NewDiff(expr, right)
		default:
			return algebra.NewIntersect(expr, right)
		}
	}
	return expr, nil
}

// planFrom resolves a FROM source, a table or a view, in one catalogue
// lookup: a base table becomes an algebra leaf bound to the live relation;
// a view becomes a leaf over the view's current answer (reads go through
// the view's maintenance machinery).
func (s *Session) planFrom(p *Plan, ref TableRef) (algebra.Expr, scopeSource, error) {
	rel, v, err := s.eng.Catalog().Resolve(ref.Name)
	switch {
	case rel != nil:
		return algebra.NewBase(ref.Name, rel), scopeSource{ref.Name, rel.Schema()}, nil
	case err != nil:
		return nil, scopeSource{}, fmt.Errorf("sql: %q is neither a table nor a readable view: %w", ref.Name, err)
	}
	var sp *trace.Span
	if s.span != nil {
		sp = s.span.Child("read view " + ref.Name)
	}
	rel, info, err := s.eng.ReadViewTraced(v, s.tid)
	sp.End()
	if err != nil {
		// Join the table lookup's failure too, so errors.Is matches
		// ErrNoSuchTable as well as the read's error through this wrapper.
		_, tblErr := s.eng.Catalog().Table(ref.Name)
		return nil, scopeSource{}, fmt.Errorf("sql: %q is neither a table nor a readable view: %w",
			ref.Name, errors.Join(tblErr, err))
	}
	sp.Set("source", info.Source.String())
	if info.PatchesApplied > 0 {
		sp.Set("patches", fmt.Sprint(info.PatchesApplied))
	}
	p.viewAt, p.viewStamp, p.viewed = info.At, info.Validity, true
	p.Until = xtime.Min(p.Until, info.Validity.ValidUntil)
	if info.Source == view.SourceMovedBackward || info.Source == view.SourceMovedForward {
		p.moved = fmt.Errorf("sql: view %[1]s is not valid now and answers for instant %[2]s instead: read it whole (SELECT * FROM %[1]s) or REFRESH it", ref.Name, info.At)
	}
	return algebra.NewBase(ref.Name, rel), scopeSource{ref.Name, rel.Schema()}, nil
}

// planItems applies grouping/aggregation and the final projection.
func (s *Session) planItems(sel *Select, expr algebra.Expr, sc scope) (algebra.Expr, error) {
	hasAgg := false
	hasStar := false
	for _, it := range sel.Items {
		if it.Agg != nil {
			hasAgg = true
		}
		if it.Star {
			hasStar = true
		}
	}
	if hasStar {
		if len(sel.Items) != 1 || hasAgg || len(sel.GroupBy) > 0 {
			return nil, fmt.Errorf("sql: '*' cannot be combined with other select items or GROUP BY")
		}
		return expr, nil
	}
	if !hasAgg && len(sel.GroupBy) > 0 {
		return nil, fmt.Errorf("sql: GROUP BY requires an aggregate in the select list")
	}
	if !hasAgg {
		cols := make([]int, len(sel.Items))
		for i, it := range sel.Items {
			idx, err := sc.resolve(*it.Col)
			if err != nil {
				return nil, err
			}
			cols[i] = idx
		}
		return algebra.NewProject(cols, expr)
	}

	// Aggregation: group columns and aggregate functions.
	groupCols := make([]int, len(sel.GroupBy))
	groupSet := map[int]bool{}
	for i, g := range sel.GroupBy {
		idx, err := sc.resolve(g)
		if err != nil {
			return nil, err
		}
		groupCols[i] = idx
		groupSet[idx] = true
	}
	var funcs []algebra.AggFunc
	type itemPlan struct {
		isAgg bool
		col   int // group column index or function ordinal
	}
	plans := make([]itemPlan, len(sel.Items))
	for i, it := range sel.Items {
		if it.Agg == nil {
			idx, err := sc.resolve(*it.Col)
			if err != nil {
				return nil, err
			}
			if !groupSet[idx] {
				return nil, fmt.Errorf("sql: column %s must appear in GROUP BY", refString(*it.Col))
			}
			plans[i] = itemPlan{col: idx}
			continue
		}
		f := algebra.AggFunc{Col: -1}
		switch it.Agg.Func {
		case "MIN":
			f.Kind = algebra.AggMin
		case "MAX":
			f.Kind = algebra.AggMax
		case "SUM":
			f.Kind = algebra.AggSum
		case "AVG":
			f.Kind = algebra.AggAvg
		case "COUNT":
			f.Kind = algebra.AggCount
		}
		if !it.Agg.Star {
			idx, err := sc.resolve(*it.Agg.Col)
			if err != nil {
				return nil, err
			}
			f.Col = idx
		} else if it.Agg.Func != "COUNT" {
			return nil, fmt.Errorf("sql: %s requires a column", it.Agg.Func)
		}
		plans[i] = itemPlan{isAgg: true, col: len(funcs)}
		funcs = append(funcs, f)
	}
	childArity := expr.Schema().Arity()
	agg, err := algebra.NewAgg(groupCols, funcs, s.policy, expr)
	if err != nil {
		return nil, err
	}
	outCols := make([]int, len(plans))
	for i, pl := range plans {
		if pl.isAgg {
			outCols[i] = childArity + pl.col
		} else {
			outCols[i] = pl.col
		}
	}
	return algebra.NewProject(outCols, agg)
}
