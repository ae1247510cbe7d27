package algebra

import (
	"slices"

	"expdb/internal/interval"
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

// Evaluation is what one pass over an expression at one instant yields, and
// the only form a kept answer takes: a view, a result-cache entry, a node of
// a per-operator maintainer and a remote copy each hold one.
type Evaluation struct {
	// Rel holds the result with its derived per-tuple expiration times,
	// owned by the caller.
	Rel *relation.Relation
	// At is the instant Rel was evaluated at.
	At xtime.Time
	// Texp is when Rel stops being maintainable: expired as time passes, and
	// given its Births as they fall due, it equals a recomputation at every
	// instant before (Theorems 2 and 3). Without births that is texp(e);
	// with them, the expiration of the root's arguments alone.
	Texp xtime.Time
	// Births are the rows Rel will show later: what Materialize keeps for a
	// root that HasFuture, and empty otherwise.
	Births Births
}

// Serve brings the materialisation to tau, applying the births due by then
// (§3.4.1), and returns an immutable O(1) snapshot of it at tau — which the
// next birth or re-materialisation leaves alone — and the number applied.
func (ev *Evaluation) Serve(tau xtime.Time) (*relation.Relation, int) {
	var n int
	ev.Rel, n = ev.Births.apply(ev.Rel, tau)
	return ev.Rel.SnapshotShared(tau), n
}

// Validity is the stamp of what Serve returned last: the rows are the answer
// since the materialisation or the last birth applied to it, and until
// texp(e) or the next pending birth, whichever comes first.
func (ev *Evaluation) Validity() interval.Validity {
	return interval.Validity{At: xtime.Max(ev.At, ev.Births.since), ValidUntil: xtime.Min(ev.Texp, ev.Births.Next())}
}

// Holds reports whether tau lies in [At, Texp): whether the materialisation,
// given its births, is the answer a recomputation at tau would give.
func (ev *Evaluation) Holds(tau xtime.Time) bool { return tau >= ev.At && tau < ev.Texp }

// Budget is the §3.4.2 size decision for a materialisation that keeps its
// future: with k > 0 only the k births falling due soonest are kept, as whole
// rows, and Texp moves back to when the first one that did not fit falls
// due; with k ≤ 0, or room for all of them, nothing changes. It returns the
// number of births dropped.
func (ev *Evaluation) Budget(k int) int {
	n := ev.Births.Len()
	if k <= 0 || n <= k {
		return 0
	}
	rows, since := ev.Births.Rows(), ev.Births.since
	ev.Births, ev.Texp = BirthsOf(slices.Clone(rows[:k])), xtime.Min(ev.Texp, rows[k].InS)
	ev.Births.since = since
	return n - k
}

// Evaluate computes e at tau in one pass over the tree: the rows and texp(e)
// come from the same walk, each base relation scanned once per occurrence
// and each pipeline breaker doing its work once. It is the evaluation entry
// point of queries; the caller holds the read locks of the base relations.
func Evaluate(e Expr, tau xtime.Time) (Evaluation, error) {
	rel, texp, err := collect(e, tau)
	return Evaluation{Rel: rel, At: tau, Texp: texp}, err
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
	ev := Evaluation{Rel: relation.New(e.Schema()), At: tau}
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
