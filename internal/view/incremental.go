package view

import (
	"fmt"

	"expdb/internal/algebra"
	"expdb/internal/relation"
	"expdb/internal/xtime"
)

// Incremental maintains a materialisation *per operator* of an expression
// tree — the "act on a per-operator basis" recomputation alternative of
// §3.1. When the root invalidates, only the subtrees whose own texp has
// passed are re-evaluated; still-valid subtrees are served from their
// cached materialisations (sound by Theorem 2), so an expensive monotonic
// join under a volatile difference is computed once, not on every
// invalidation.
type Incremental struct {
	root  algebra.Expr
	nodes map[algebra.Expr]*nodeState
	stats IncStats
}

// nodeState caches one operator's materialisation.
type nodeState struct {
	mat   *relation.Relation
	matAt xtime.Time
	texp  xtime.Time // min of the node's own texp and its children's
}

// IncStats counts per-operator recomputations.
type IncStats struct {
	Evals      int // reads answered (root evaluations)
	NodeFresh  int // operator evaluations that had to run
	NodeCached int // operator evaluations served from cache
}

// NewIncremental builds a per-operator maintainer for expr.
func NewIncremental(expr algebra.Expr) *Incremental {
	return &Incremental{root: expr, nodes: make(map[algebra.Expr]*nodeState)}
}

// Stats returns the recomputation counters.
func (inc *Incremental) Stats() IncStats { return inc.stats }

// Eval returns the expression result at tau, recomputing only invalid
// operators. The returned relation is shared with the cache; callers must
// not mutate it (take a Snapshot to keep one).
func (inc *Incremental) Eval(tau xtime.Time) (*relation.Relation, error) {
	inc.stats.Evals++
	st, err := inc.eval(inc.root, tau)
	if err != nil {
		return nil, err
	}
	return st.mat, nil
}

// Texp returns the current root expiration time (valid after an Eval).
func (inc *Incremental) Texp() (xtime.Time, error) {
	st, ok := inc.nodes[inc.root]
	if !ok {
		return 0, fmt.Errorf("view: incremental maintainer not evaluated yet")
	}
	return st.texp, nil
}

func (inc *Incremental) eval(e algebra.Expr, tau xtime.Time) (*nodeState, error) {
	if st, ok := inc.nodes[e]; ok && tau >= st.matAt && tau < st.texp {
		// Theorem 2: the cached materialisation, filtered by expτ, equals
		// recomputation while τ < texp(e).
		inc.stats.NodeCached++
		return st, nil
	}
	inc.stats.NodeFresh++
	children := e.Children()
	texp := xtime.Infinity
	rebuilt := e
	if len(children) > 0 {
		replaced := make([]algebra.Expr, len(children))
		for i, c := range children {
			cst, err := inc.eval(c, tau)
			if err != nil {
				return nil, err
			}
			texp = xtime.Min(texp, cst.texp)
			replaced[i] = algebra.NewBase(fmt.Sprintf("cached%d", i), cst.mat)
		}
		var err error
		rebuilt, err = algebra.ReplaceChildren(e, replaced)
		if err != nil {
			return nil, err
		}
	}
	// The rebuilt node sees its children as base relations (texp ∞), so
	// the pass's texp reflects only this operator's own invalidation; the
	// children's lifetimes are folded in via min.
	ev, err := algebra.Evaluate(rebuilt, tau)
	if err != nil {
		return nil, err
	}
	st := &nodeState{mat: ev.Rel, matAt: tau, texp: xtime.Min(texp, ev.Texp)}
	inc.nodes[e] = st
	return st, nil
}

// Invalidate drops every cached materialisation (e.g. after base-data
// updates, which are outside the paper's no-update assumption).
func (inc *Incremental) Invalidate() {
	inc.nodes = make(map[algebra.Expr]*nodeState)
}
