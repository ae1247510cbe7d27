package algebra

import (
	"slices"

	"expdb/internal/relation"
	"expdb/internal/xtime"
)

// This file holds the evaluation pass around Expr.Stream: operators push
// rows through the tree one at a time instead of materialising a relation
// per node, and every operator hands back texp(e) of its subtree from the
// same call (see DESIGN.md "Execution engine").
//
// Correctness of streaming without per-operator duplicate elimination: a
// stream may carry several rows with equal tuples and different expiration
// times where formulas (1)–(6) hold one row with the maximum. Every
// monotonic operator either passes expiration times through (σ, π) or
// combines them with min (×, ⋈, ∩), and duplicate elimination takes max —
// and max_i min(a_i, s) = min(max_i a_i, s), so deduplicating once at the
// top (the collector, or any relation the rows are inserted into) yields
// exactly the rows and texp values the formulas define. Non-monotonic
// operators (Agg, Diff) do need set input and therefore act as pipeline
// breakers: they collect a child that may stream duplicates, once, and
// stream their own result on.
//
// texp(e) of a tree is the minimum of the event times its Agg and Diff
// nodes set — a base relation has ∞ (§2.3) and every monotonic operator
// only takes the min of its arguments (§2.6) — and each of those nodes
// learns its event time from the very partitions or critical tuples it
// produces its rows from. So the rows and texp(e) come out of one pass, a
// minimum handed up the tree beside the stream.

// collect gathers the stream of e into a relation. Its duplicate handling
// (max texp wins) is the single point of duplicate elimination for the
// monotonic pipeline below it.
func collect(e Expr, tau xtime.Time) (*relation.Relation, xtime.Time, error) {
	out := relation.New(e.Schema())
	texp, err := e.Stream(tau, func(row relation.Row) {
		out.InsertOwnedRow(row)
	})
	if err != nil {
		return nil, 0, err
	}
	return out, texp, nil
}

// EvalStream computes e at tau: Evaluate for callers that want the rows
// only.
func EvalStream(e Expr, tau xtime.Time) (*relation.Relation, error) {
	rel, _, err := collect(e, tau)
	return rel, err
}

// Evaluation is what one pass over an expression at one instant yields.
type Evaluation struct {
	// Rel holds the result with its derived per-tuple expiration times,
	// owned by the caller.
	Rel *relation.Relation
	// Texp is when Rel stops being maintainable: expired as time passes, and
	// given its Births as they fall due, it equals a recomputation at every
	// instant before (Theorems 2 and 3). Without births that is texp(e);
	// with them, the expiration of the root's arguments alone.
	Texp xtime.Time
	// Births are the rows Rel will show later: what Materialize keeps for a
	// root that HasFuture, and empty otherwise.
	Births Births
}

// Evaluate computes e at tau in one pass over the tree: the rows and texp(e)
// come from the same walk, each base relation scanned once per occurrence
// and each pipeline breaker doing its work once. It is the evaluation entry
// point of queries; the caller holds the read locks of the base relations.
func Evaluate(e Expr, tau xtime.Time) (Evaluation, error) {
	rel, texp, err := collect(e, tau)
	return Evaluation{Rel: rel, Texp: texp}, err
}

// HasFuture reports whether a materialisation of e can carry its future: a
// root difference (Theorem 3) or a GROUP BY under the exact policy (§3.4.1),
// over monotonic arguments. The naive and neutral policies keep recomputing:
// their partition times are not change points, which is what they are there
// to show.
func HasFuture(e Expr) bool {
	switch n := e.(type) {
	case *Diff:
		return n.Left.Monotonic() && n.Right.Monotonic()
	case *Project:
		a, ok := n.Grouped()
		return ok && a.Policy == PolicyExact && a.Child.Monotonic()
	}
	return false
}

// Materialize is Evaluate for a result that will be kept: for a root that
// HasFuture the same pass also yields the births, which a plain query would
// collect and sort only to throw away.
func Materialize(e Expr, tau xtime.Time) (Evaluation, error) {
	if !HasFuture(e) {
		return Evaluate(e, tau)
	}
	ev := Evaluation{Rel: relation.New(e.Schema())}
	var err error
	switch n := e.(type) {
	case *Diff:
		var crit []CriticalRow
		crit, ev.Texp, err = n.criticalSet(tau, func(key string, row relation.Row) {
			ev.Rel.InsertOwned(key, row.Tuple, row.Texp)
		})
		ev.Births = BirthsOf(crit)
	case *Project:
		_, ev.Texp, err = n.Child.(*Agg).streamGroups(tau, n.Cols, func(row relation.Row) {
			ev.Rel.InsertOwnedRow(row)
		}, &ev.Births)
		ev.Births.settle()
	}
	return ev, err
}

// Patches is the §3.4.2 size decision for a materialisation that keeps its
// future: with budget > 0 only the budget births falling due soonest are
// kept, as whole rows, and the copy is good until the first one that did not
// fit falls due; with budget ≤ 0, or room for all of them, until Texp. It
// returns the births to keep and that expiration time.
func (ev Evaluation) Patches(budget int) (Births, xtime.Time) {
	if budget <= 0 || ev.Births.Len() <= budget {
		return ev.Births, ev.Texp
	}
	rows := ev.Births.Rows()
	return BirthsOf(slices.Clone(rows[:budget])), xtime.Min(ev.Texp, rows[budget].InS)
}

// duplicateFree reports whether e streams each result tuple once, so that
// a pipeline breaker can take the stream for the set it needs.
func duplicateFree(e Expr) bool {
	switch n := e.(type) {
	case *Base, *IndexScan, *Agg, *Diff:
		return true
	case *Select:
		return duplicateFree(n.Child)
	default:
		return false
	}
}
