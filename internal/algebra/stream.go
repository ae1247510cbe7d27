package algebra

import (
	"slices"

	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// This file implements the evaluation pass: operators push rows through
// the tree one at a time instead of materialising a relation per node, and
// every operator hands back texp(e) of its subtree from the same call (see
// DESIGN.md "Execution engine").
//
// Correctness of streaming without per-operator duplicate elimination: a
// stream may carry several rows with equal tuples and different expiration
// times where Eval's relations would hold one row with the maximum. Every
// monotonic operator either passes expiration times through (σ, π) or
// combines them with min (×, ⋈, ∩), and duplicate elimination takes max —
// and max_i min(a_i, s) = min(max_i a_i, s), so deduplicating once at the
// top (the collector, or any relation the rows are inserted into) yields
// exactly the rows and texp values Eval produces. Non-monotonic operators
// (Agg, Diff) do need set input and therefore act as pipeline breakers:
// they collect a child that may stream duplicates, once, and stream their
// own result on.
//
// texp(e) of a tree is the minimum of the event times its Agg and Diff
// nodes set — a base relation has ∞ (§2.3) and every monotonic operator
// only takes the min of its arguments (§2.6) — and each of those nodes
// learns its event time from the very partitions or critical tuples it
// produces its rows from. So the rows and texp(e) come out of one pass, a
// minimum handed up the tree beside the stream.

// Streamer is implemented by operators able to produce their result as a
// push stream. Stream calls emit once per result row at time tau — rows
// with equal tuples may be emitted more than once (see above) — and
// returns texp(e) of the subtree for a materialisation made at tau.
// Emitted tuples are shared storage — the immutability invariant of
// relation.Relation applies — and emit runs on the calling goroutine, so
// it needs no internal locking.
type Streamer interface {
	Stream(tau xtime.Time, emit func(relation.Row)) (xtime.Time, error)
}

// StreamExpr streams the result of e at tau into emit. Expressions that do
// not implement Streamer (wrapper nodes such as EXPLAIN ANALYZE's
// instrumentation) are evaluated and their result pushed row by row, so
// any tree streams.
func StreamExpr(e Expr, tau xtime.Time, emit func(relation.Row)) error {
	_, err := stream(e, tau, emit)
	return err
}

// stream is StreamExpr that also hands back texp(e), which a node without
// Stream is asked for separately.
func stream(e Expr, tau xtime.Time, emit func(relation.Row)) (xtime.Time, error) {
	if s, ok := e.(Streamer); ok {
		return s.Stream(tau, emit)
	}
	rel, err := e.Eval(tau)
	if err != nil {
		return 0, err
	}
	rel.AliveAt(tau, emit)
	return e.ExprTexp(tau)
}

// collect gathers the stream of e into a relation. Its duplicate handling
// (max texp wins) is the single point of duplicate elimination for the
// monotonic pipeline below it.
func collect(e Expr, tau xtime.Time) (*relation.Relation, xtime.Time, error) {
	out := relation.New(e.Schema())
	texp, err := stream(e, tau, func(row relation.Row) {
		out.InsertOwnedRow(row)
	})
	if err != nil {
		return nil, 0, err
	}
	return out, texp, nil
}

// EvalStream computes e at tau: Evaluate for callers that want the rows
// only. The result is Eval's, without the per-operator intermediate
// relations.
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
		a, ok := n.Child.(*Agg)
		return ok && a.Policy == PolicyExact && a.groupsOnly(n.Cols) && a.Child.Monotonic()
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

// Stream implements Streamer: a base scan pushes expτ(R) straight out of
// the stored relation — no snapshot, no clone. The caller must hold the
// table's read lock, exactly as for Eval.
func (b *Base) Stream(tau xtime.Time, emit func(relation.Row)) (xtime.Time, error) {
	b.Rel.AliveAt(tau, emit)
	return xtime.Infinity, nil
}

// Stream implements Streamer, formula (1): the child's rows pass through
// the compiled predicate on the calling goroutine.
func (s *Select) Stream(tau xtime.Time, emit func(relation.Row)) (xtime.Time, error) {
	holds := compile(s.Pred)
	if holds == nil {
		return stream(s.Child, tau, emit)
	}
	return stream(s.Child, tau, func(row relation.Row) {
		if holds(row.Tuple) {
			emit(row)
		}
	})
}

// Stream implements Streamer, formula (3): project each row, pass texp
// through. Duplicate merging (max) happens at the collector. Onto the
// grouping attributes and aggregate values of an aggregation — GROUP BY —
// it is one row per partition.
func (p *Project) Stream(tau xtime.Time, emit func(relation.Row)) (xtime.Time, error) {
	if a, ok := p.Child.(*Agg); ok && a.groupsOnly(p.Cols) {
		texp, _, err := a.streamGroups(tau, p.Cols, emit, nil)
		return texp, err
	}
	return stream(p.Child, tau, func(row relation.Row) {
		emit(relation.Row{Tuple: row.Tuple.Project(p.Cols), Texp: row.Texp})
	})
}

// Stream implements Streamer, formula (2): the right argument is collected
// once (deduplicated), then left rows stream through and pair with it.
func (p *Product) Stream(tau xtime.Time, emit func(relation.Row)) (xtime.Time, error) {
	r, rt, err := collect(p.Right, tau)
	if err != nil {
		return 0, err
	}
	rrows := r.Rows(tau)
	lt, err := stream(p.Left, tau, func(lr relation.Row) {
		for _, rr := range rrows {
			emit(relation.Row{Tuple: lr.Tuple.Concat(rr.Tuple), Texp: xtime.Min(lr.Texp, rr.Texp)})
		}
	})
	return xtime.Min(lt, rt), err
}

// Stream implements Streamer, formula (4): both argument streams are
// forwarded; the max-texp rule for tuples in both arguments is the
// collector's duplicate handling.
func (u *Union) Stream(tau xtime.Time, emit func(relation.Row)) (xtime.Time, error) {
	lt, err := stream(u.Left, tau, emit)
	if err != nil {
		return 0, err
	}
	rt, err := stream(u.Right, tau, emit)
	return xtime.Min(lt, rt), err
}

// Stream implements Streamer, formula (5): the right (build) side is
// collected and hash-indexed on the equi-join columns, then left (probe)
// rows stream through the index. Each probe encodes its key into one buffer
// that belongs to this call — concurrent evaluations of a shared plan never
// see each other's — and looks it up without building a string, so the probe
// side allocates per result row, not per row probed. Without equality
// conjuncts it degrades to a streamed nested loop over the hoisted build
// rows.
func (j *Join) Stream(tau xtime.Time, emit func(relation.Row)) (xtime.Time, error) {
	build, probeSide := j.Right, j.Left
	if j.BuildLeft {
		build, probeSide = j.Left, j.Right
	}
	b, bt, err := collect(build, tau)
	if err != nil {
		return 0, err
	}
	leftCols, rightCols, rest, ok := j.equiCols()
	// candidates yields the build rows a probe row may pair with; holds is
	// what of the predicate is left to test on each pair.
	var candidates func(pr relation.Row) []relation.Row
	var holds func(tuple.Tuple) bool
	if ok {
		buildCols, probeCols := rightCols, leftCols
		if j.BuildLeft {
			buildCols, probeCols = leftCols, rightCols
		}
		idx := b.BuildIndex(tau, buildCols)
		var key []byte
		candidates = func(pr relation.Row) (brows []relation.Row) {
			brows, key = idx.Probe(pr.Tuple, probeCols, key)
			return brows
		}
		holds = compileAll(rest)
	} else {
		brows := b.Rows(tau)
		candidates = func(relation.Row) []relation.Row { return brows }
		holds = compile(j.Pred)
	}
	pt, err := stream(probeSide, tau, func(pr relation.Row) {
		for _, br := range candidates(pr) {
			// The concatenation order is always left ++ right, whichever
			// side was hoisted.
			l, r := pr.Tuple, br.Tuple
			if j.BuildLeft {
				l, r = r, l
			}
			if t := l.Concat(r); holds == nil || holds(t) {
				emit(relation.Row{Tuple: t, Texp: xtime.Min(pr.Texp, br.Texp)})
			}
		}
	})
	return xtime.Min(bt, pt), err
}

// Stream implements Streamer, formula (6): the right argument is collected
// for membership probes, then left rows stream through.
func (x *Intersect) Stream(tau xtime.Time, emit func(relation.Row)) (xtime.Time, error) {
	r, rt, err := collect(x.Right, tau)
	if err != nil {
		return 0, err
	}
	lt, err := stream(x.Left, tau, func(row relation.Row) {
		if t, ok := r.Texp(row.Tuple); ok && t > tau {
			emit(relation.Row{Tuple: row.Tuple, Texp: xtime.Min(row.Texp, t)})
		}
	})
	return xtime.Min(lt, rt), err
}
