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

// collect gathers the stream of e into a relation (sink).
func collect(e Expr, tau xtime.Time) (*relation.Relation, xtime.Time, error) {
	out, emit := sink(e)
	texp, err := e.Stream(tau, emit)
	return out, texp, err
}

// sink returns an empty relation of e's schema and the emit that gathers
// e's rows into it. Its duplicate handling (max texp wins) is the single
// point of duplicate elimination for the monotonic pipeline below it; a
// duplicate-free stream, already the set, is appended unhashed.
func sink(e Expr) (*relation.Relation, func(relation.Row)) {
	out := relation.New(e.Schema())
	if duplicateFree(e) {
		return out, out.AppendDistinct
	}
	return out, func(row relation.Row) { out.InsertOwnedRow(row) }
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
	floor  xtime.Time // see Floor
}

// Serve brings the materialisation to tau and returns an immutable O(1)
// snapshot of it at tau, which no later Serve changes, and the number of
// births applied. The births due are merged into Rel (relation.Merge), which
// drops the rows dead at tau; with none due, an answer served before is laid
// out in tuple order by the same merge once two rows are alive, and compacted
// as soon as it holds a row dead at tau: the first read after a death merges,
// every later read shares the store. An answer served the first time — a
// cache miss, a remote copy fetched once — is neither counted nor sorted.
func (ev *Evaluation) Serve(tau xtime.Time) (*relation.Relation, int) {
	born, n := ev.Births.due(tau)
	var live, dead int
	if n == 0 && ev.Rel.Shared() {
		live = ev.Rel.CountAt(tau)
		dead = ev.Rel.Len() - live
	}
	if n > 0 || dead > 0 || live > 1 && !ev.Rel.InOrder() {
		ev.Rel = ev.Rel.Merge(tau, born)
		if n+dead > 0 {
			ev.floor = xtime.Max(ev.floor, tau)
		}
	}
	return ev.Rel.SnapshotShared(tau), n
}

// Floor is the earliest instant the kept rows answer: At, or the last one
// Serve applied births or shed rows at.
func (ev *Evaluation) Floor() xtime.Time { return xtime.Max(ev.At, ev.floor) }

// Validity is the stamp of what Serve returned last: the rows are the answer
// since the materialisation or the last birth applied to it, and until
// texp(e) or the next pending birth, whichever comes first. It stamps the
// materialisation, not the store: At may lie below Floor, since Serve sheds
// rows dead at the instant it serves that a read below would still see, and
// such a read goes past the store (Holds).
func (ev *Evaluation) Validity() interval.Validity {
	return interval.Validity{At: xtime.Max(ev.At, ev.Births.since), ValidUntil: xtime.Min(ev.Texp, ev.Births.Next())}
}

// Holds reports whether tau lies in [Floor, Texp): whether the
// materialisation, given its births, is the answer a recomputation at tau
// would give.
func (ev *Evaluation) Holds(tau xtime.Time) bool { return tau >= ev.Floor() && tau < ev.Texp }

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
		crit, ev.Texp, err = n.criticalSet(tau, ev.Rel.AppendDistinct)
		ev.Births = BirthsOf(crit)
	case *Project:
		_, ev.Texp, err = n.Child.(*Agg).streamGroups(tau, n.Cols, func(row relation.Row) {
			ev.Rel.InsertOwnedRow(row)
		}, &ev.Births)
		ev.Births.settle()
	}
	return ev, err
}

// duplicateFree reports whether e streams each result tuple at most once,
// so that its stream is already the set its formulas define: a collector
// appends it, and a pipeline breaker takes it for the set it needs. Only a
// π that drops a column and ∪ derive a tuple twice; ∩, ⋈ and × concatenate
// or keep whole tuples of inputs that are sets, and the non-monotonic
// operators make one row per input row or partition of a set.
func duplicateFree(e Expr) bool {
	switch n := e.(type) {
	case *Base, *IndexScan, *Agg, *Diff:
		return true
	case *Select:
		return duplicateFree(n.Child)
	case *Intersect:
		return duplicateFree(n.Left)
	case *Join:
		return duplicateFree(n.Left) && duplicateFree(n.Right)
	case *Product:
		return duplicateFree(n.Left) && duplicateFree(n.Right)
	case *Project:
		kept := func(c int) bool { return slices.Contains(n.Cols, c) }
		if a, ok := n.Grouped(); ok {
			return !slices.ContainsFunc(a.GroupCols, func(c int) bool { return !kept(c) })
		}
		if !duplicateFree(n.Child) {
			return false
		}
		for c := range n.Child.Schema().Arity() {
			if !kept(c) {
				return false
			}
		}
		return true
	}
	return false
}
