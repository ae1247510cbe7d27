package algebra

import (
	"fmt"
	"slices"

	"expdb/internal/interval"
	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// Expr is an algebra expression over expiration-time-enabled relations.
//
// Evaluating an expression at time τ applies expτ to every base relation
// (only unexpired tuples participate) and derives per-tuple expiration
// times according to the operator formulas (1)–(10) of the paper. The same
// pass yields texp(e), a lower bound on the time when a materialisation
// computed at τ becomes incorrect (∞ for monotonic expressions, §2.3/§2.6);
// ExprTexp reads it without the rows, and Validity derives I(e), the set of
// intervals during which the materialisation is valid (§3.4).
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

// Children implements Expr.
func (b *Base) Children() []Expr { return nil }

func (b *Base) String() string { return b.Name }

// Walk visits e and all subexpressions depth-first, parents before
// children.
func Walk(e Expr, fn func(Expr)) {
	fn(e)
	for _, c := range e.Children() {
		Walk(c, fn)
	}
}

// LockPlan returns the distinct base relations of e in ascending
// Relation.LockOrder, in buf's array while it has room: the order in which
// a reader spanning several tables takes their read locks, since a pending
// writer blocks later readers and two unordered readers could cycle. A
// plan reads a handful of tables, so the dedup is linear and the sort an
// insertion sort: with buf on the caller's stack only Children allocates.
func LockPlan(e Expr, buf []*relation.Relation) []*relation.Relation {
	rels := appendBases(e, buf[:0])
	for i := 1; i < len(rels); i++ {
		for j := i; j > 0 && rels[j].LockOrder() < rels[j-1].LockOrder(); j-- {
			rels[j], rels[j-1] = rels[j-1], rels[j]
		}
	}
	return rels
}

// appendBases appends the base relations of e that rels lacks.
func appendBases(e Expr, rels []*relation.Relation) []*relation.Relation {
	if b, ok := e.(*Base); ok {
		if b.Rel == nil || slices.Contains(rels, b.Rel) {
			return rels
		}
		return append(rels, b.Rel)
	}
	for _, k := range e.Children() {
		rels = appendBases(k, rels)
	}
	return rels
}

// ExprTexp is texp(e) for a materialisation computed at tau: what
// e.Stream(tau, …) returns, read without keeping the rows. A monotonic
// subtree is ∞ (§2.3, §2.6) and is not evaluated; a difference and an
// aggregation take the walk their rows come from (formulas (11) and (9));
// every other operator is the min over its children. The caller holds the
// read locks of the base relations.
func ExprTexp(e Expr, tau xtime.Time) (xtime.Time, error) {
	if e.Monotonic() {
		return xtime.Infinity, nil
	}
	switch n := e.(type) {
	case *Diff:
		return n.Stream(tau, func(relation.Row) {})
	case *Agg:
		texp, _, err := n.fold(tau, func(*partition) {})
		return texp, err
	}
	texp := xtime.Infinity
	for _, c := range e.Children() {
		ct, err := ExprTexp(c, tau)
		if err != nil {
			return 0, err
		}
		texp = xtime.Min(texp, ct)
	}
	return texp, nil
}

// Validity is I(e) for a materialisation computed at tau — the Schrödinger
// semantics of §3.4: the instants from tau on at which it, expired as time
// passes, equals a recomputation, a superset of [tau, texp(e)[. Only a
// difference and an aggregation remove instants of their own; every node
// intersects its children's sets, starting from [tau, ∞[. The caller holds
// the read locks of the base relations.
func Validity(e Expr, tau xtime.Time) (interval.Set, error) {
	v := interval.From(tau)
	if e.Monotonic() {
		return v, nil
	}
	var err error
	switch n := e.(type) {
	case *Diff:
		v, err = n.validity(tau)
	case *Agg:
		v, err = n.validity(tau)
	}
	for _, c := range e.Children() {
		if err != nil {
			return interval.Set{}, err
		}
		var cv interval.Set
		cv, err = Validity(c, tau)
		v = v.Intersect(cv)
	}
	return v, err
}
