package algebra

import (
	"fmt"

	"expdb/internal/interval"
	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// Expr is an algebra expression over expiration-time-enabled relations.
//
// Evaluating an expression at time τ applies expτ to every base relation
// (only unexpired tuples participate) and derives per-tuple expiration
// times according to the operator formulas (1)–(10) of the paper. Every
// expression also knows
//
//   - texp(e): a lower bound on the time when a materialisation computed
//     now becomes incorrect (∞ for monotonic expressions, §2.3/§2.6), and
//   - I(e): the set of intervals during which such a materialisation is
//     valid — the Schrödinger semantics of §3.4, a superset of
//     [now, texp(e)[.
type Expr interface {
	// Schema returns the result schema.
	Schema() tuple.Schema
	// Monotonic reports whether the expression consists solely of
	// monotonic operators ((1)–(6)); materialisations of such expressions
	// never require recomputation (Theorem 1).
	Monotonic() bool
	// Stream computes the expression at time tau: emit gets each result row
	// with its derived expiration time — equal tuples possibly more than
	// once (see stream.go) — on the calling goroutine, the tuples shared
	// and immutable, and Stream returns texp(e) for a materialisation made
	// at tau. The caller holds the read locks of the base relations.
	Stream(tau xtime.Time, emit func(relation.Row)) (xtime.Time, error)
	// ExprTexp returns texp(e) for a materialisation computed at tau.
	ExprTexp(tau xtime.Time) (xtime.Time, error)
	// Validity returns I(e) for a materialisation computed at tau.
	Validity(tau xtime.Time) (interval.Set, error)
	// Children returns the direct subexpressions.
	Children() []Expr
	fmt.Stringer
}

// Base is a leaf expression: a reference to a stored relation. Base
// relations never expire as expressions: texp(R) = ∞ (§2.3).
type Base struct {
	Name string
	Rel  *relation.Relation
}

// NewBase wraps a stored relation as an expression leaf.
func NewBase(name string, rel *relation.Relation) *Base {
	return &Base{Name: name, Rel: rel}
}

// Schema implements Expr.
func (b *Base) Schema() tuple.Schema { return b.Rel.Schema() }

// Monotonic implements Expr.
func (b *Base) Monotonic() bool { return true }

// Stream implements Expr: a base scan pushes expτ(R) straight out of the
// stored relation — no snapshot, no clone.
func (b *Base) Stream(tau xtime.Time, emit func(relation.Row)) (xtime.Time, error) {
	b.Rel.AliveAt(tau, emit)
	return xtime.Infinity, nil
}

// ExprTexp implements Expr: the expiration time of a base relation is
// defined to be infinity.
func (b *Base) ExprTexp(xtime.Time) (xtime.Time, error) { return xtime.Infinity, nil }

// Validity implements Expr: a base relation is valid from the query time
// on.
func (b *Base) Validity(tau xtime.Time) (interval.Set, error) {
	return interval.From(tau), nil
}

// Children implements Expr.
func (b *Base) Children() []Expr { return nil }

func (b *Base) String() string { return b.Name }

// monotonicValidity computes I(e) for a monotonic operator over children:
// [τ, ∞[ intersected with the children's validity (which matters when a
// monotonic operator is stacked on a non-monotonic subexpression).
func monotonicValidity(tau xtime.Time, children ...Expr) (interval.Set, error) {
	v := interval.From(tau)
	for _, c := range children {
		cv, err := c.Validity(tau)
		if err != nil {
			return interval.Set{}, err
		}
		v = v.Intersect(cv)
	}
	return v, nil
}

// minChildTexp combines texp of children with min, the rule the paper
// gives for every monotonic operator.
func minChildTexp(tau xtime.Time, children ...Expr) (xtime.Time, error) {
	t := xtime.Infinity
	for _, c := range children {
		ct, err := c.ExprTexp(tau)
		if err != nil {
			return 0, err
		}
		t = xtime.Min(t, ct)
	}
	return t, nil
}

// Window derives the uniform validity stamp of e at tau: the half-open
// window [tau, texp(e)) during which a result materialised at tau stays
// correct. Every operator folds its own expiration rule into ExprTexp —
// min-combining for monotonic operators (Theorem 1), χ/ν change points
// for aggregates — so Window is the one call sites need to stamp any
// query result, cacheable or not, with the same validity semantics.
func Window(e Expr, tau xtime.Time) (interval.Validity, error) {
	texp, err := e.ExprTexp(tau)
	if err != nil {
		return interval.Validity{}, err
	}
	return interval.Validity{At: tau, ValidUntil: texp}, nil
}

// Walk visits e and all subexpressions depth-first, parents before
// children.
func Walk(e Expr, fn func(Expr)) {
	fn(e)
	for _, c := range e.Children() {
		Walk(c, fn)
	}
}

// IsMonotonic re-derives monotonicity structurally; exposed for tests and
// planners.
func IsMonotonic(e Expr) bool {
	mono := true
	Walk(e, func(x Expr) {
		switch x.(type) {
		case *Diff, *Agg:
			mono = false
		}
	})
	return mono
}
