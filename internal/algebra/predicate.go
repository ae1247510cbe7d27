// Package algebra implements the expiration-time-aware relational algebra
// of "Expiration Times for Data Management" (ICDE 2006, §2): the monotonic
// operators select, project, Cartesian product and union (formulas
// (1)–(4)), the derived join and intersection ((5)–(6)), and the
// non-monotonic aggregation ((7)–(9), Table 1) and difference ((10)–(11),
// Table 2) with their recomputation machinery (validity intervals, patch
// queues, rewrites — §3).
package algebra

import (
	"fmt"
	"strings"

	"expdb/internal/tuple"
	"expdb/internal/value"
)

// CmpOp is a comparison operator in a selection predicate. The paper's
// predicates use equality only (j = k, j = a); the implementation
// generalises to the full comparison set, which leaves all operator
// properties (monotonicity in particular) intact because predicates remain
// functions of a single tuple.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	default:
		return ">="
	}
}

// Test reports whether a comparison that came out c (negative, zero or
// positive, as value.Compare returns it) satisfies op.
func (op CmpOp) Test(c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// Predicate is a boolean condition over a single tuple — the p of
// σexp_p(R). Implementations must be pure (no state, no time dependence);
// that purity is what makes selection monotonic. The rewrites and the
// planner see the columns of the six types below through Cols and MapCols;
// a predicate of any other type is evaluated where it is written and never
// pushed, renumbered or reordered.
type Predicate interface {
	// Holds reports whether the predicate is satisfied by t.
	Holds(t tuple.Tuple) bool
	String() string
}

// ColCol compares two attributes of a tuple: the paper's correlated
// selection "j = k" generalised to any comparison.
type ColCol struct {
	Left, Right int // 0-based column indexes
	Op          CmpOp
}

// Holds implements Predicate.
func (p ColCol) Holds(t tuple.Tuple) bool {
	return p.Op.Test(t[p.Left].Compare(t[p.Right]))
}

func (p ColCol) String() string {
	return fmt.Sprintf("$%d %s $%d", p.Left+1, p.Op, p.Right+1)
}

// ColConst compares an attribute with a constant: the paper's uncorrelated
// selection "j = a".
type ColConst struct {
	Col   int // 0-based
	Op    CmpOp
	Const value.Value
}

// Holds implements Predicate.
func (p ColConst) Holds(t tuple.Tuple) bool {
	return p.Op.Test(t[p.Col].Compare(p.Const))
}

func (p ColConst) String() string {
	return fmt.Sprintf("$%d %s %s", p.Col+1, p.Op, p.Const)
}

// And is the ∧-composition of predicates.
type And struct{ Preds []Predicate }

// Holds implements Predicate.
func (p And) Holds(t tuple.Tuple) bool {
	for _, q := range p.Preds {
		if !q.Holds(t) {
			return false
		}
	}
	return true
}

func (p And) String() string { return joinPreds(p.Preds, " AND ") }

// Or is the ∨-composition of predicates.
type Or struct{ Preds []Predicate }

// Holds implements Predicate.
func (p Or) Holds(t tuple.Tuple) bool {
	for _, q := range p.Preds {
		if q.Holds(t) {
			return true
		}
	}
	return false
}

func (p Or) String() string { return joinPreds(p.Preds, " OR ") }

// Not negates a predicate.
type Not struct{ Pred Predicate }

// Holds implements Predicate.
func (p Not) Holds(t tuple.Tuple) bool { return !p.Pred.Holds(t) }

func (p Not) String() string { return "NOT (" + p.Pred.String() + ")" }

// True is the always-true predicate.
type True struct{}

// Holds implements Predicate.
func (True) Holds(tuple.Tuple) bool { return true }

func (True) String() string { return "TRUE" }

func joinPreds(ps []Predicate, sep string) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = "(" + p.String() + ")"
	}
	return strings.Join(parts, sep)
}

// Cols calls fn with each column p references, depth first, and stops at
// the first one fn refuses. It reports whether it got through: false when fn
// refused a column or p holds a type this file does not define.
func Cols(p Predicate, fn func(col int) bool) bool {
	var ps []Predicate
	switch q := p.(type) {
	case True:
		return true
	case ColConst:
		return fn(q.Col)
	case ColCol:
		return fn(q.Left) && fn(q.Right)
	case Not:
		return Cols(q.Pred, fn)
	case And:
		ps = q.Preds
	case Or:
		ps = q.Preds
	default:
		return false
	}
	for _, c := range ps {
		if !Cols(c, fn) {
			return false
		}
	}
	return true
}

// MapCols renumbers p, column c becoming f(c): the one renumbering the
// rewrites and the planner do — through π, into ×'s right side, across a
// reordered join chain. It reports false, and no predicate, when f refuses a
// column or p holds a type this file does not define.
func MapCols(p Predicate, f func(col int) (int, bool)) (Predicate, bool) {
	switch q := p.(type) {
	case True:
		return q, true
	case ColConst:
		if c, ok := f(q.Col); ok {
			q.Col = c
			return q, true
		}
	case ColCol:
		l, okl := f(q.Left)
		r, okr := f(q.Right)
		if okl && okr {
			q.Left, q.Right = l, r
			return q, true
		}
	case Not:
		if r, ok := MapCols(q.Pred, f); ok {
			return Not{Pred: r}, true
		}
	case And:
		if ps, ok := mapEach(q.Preds, f); ok {
			return And{Preds: ps}, true
		}
	case Or:
		if ps, ok := mapEach(q.Preds, f); ok {
			return Or{Preds: ps}, true
		}
	}
	return nil, false
}

func mapEach(ps []Predicate, f func(col int) (int, bool)) ([]Predicate, bool) {
	out := make([]Predicate, len(ps))
	for i, p := range ps {
		var ok bool
		if out[i], ok = MapCols(p, f); !ok {
			return nil, false
		}
	}
	return out, true
}

// fits reports whether p references no column at or past arity; a part of
// p that Cols cannot see into is taken as it is.
func fits(p Predicate, arity int) bool {
	ok := true
	Cols(p, func(c int) bool { ok = c < arity; return ok })
	return ok
}

// Conjuncts splits p at every ∧, nested ones included: the parts whose
// conjunction is p.
func Conjuncts(p Predicate) []Predicate {
	and, ok := p.(And)
	if !ok {
		return []Predicate{p}
	}
	var out []Predicate
	for _, c := range and.Preds {
		out = append(out, Conjuncts(c)...)
	}
	return out
}

// AndOf conjoins ps: True for none, the predicate itself for one.
func AndOf(ps []Predicate) Predicate {
	switch len(ps) {
	case 0:
		return True{}
	case 1:
		return ps[0]
	}
	return And{Preds: ps}
}
