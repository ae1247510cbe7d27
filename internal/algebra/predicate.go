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

func (op CmpOp) eval(c int) bool {
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
// that purity is what makes selection monotonic.
type Predicate interface {
	// Holds reports whether the predicate is satisfied by t.
	Holds(t tuple.Tuple) bool
	// MaxCol returns the largest 0-based column index referenced, used to
	// validate predicates against schemas and to split them across
	// product arguments during rewriting.
	MaxCol() int
	// MinCol returns the smallest referenced column index (0 when the
	// predicate references no columns).
	MinCol() int
	// Shift returns the predicate with every column index shifted by d —
	// needed when pushing predicates through products.
	Shift(d int) Predicate
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
	return p.Op.eval(t[p.Left].Compare(t[p.Right]))
}

// MaxCol implements Predicate.
func (p ColCol) MaxCol() int { return max(p.Left, p.Right) }

// MinCol implements Predicate.
func (p ColCol) MinCol() int { return min(p.Left, p.Right) }

// Shift implements Predicate.
func (p ColCol) Shift(d int) Predicate {
	return ColCol{Left: p.Left + d, Right: p.Right + d, Op: p.Op}
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
	return p.Op.eval(t[p.Col].Compare(p.Const))
}

// MaxCol implements Predicate.
func (p ColConst) MaxCol() int { return p.Col }

// MinCol implements Predicate.
func (p ColConst) MinCol() int { return p.Col }

// Shift implements Predicate.
func (p ColConst) Shift(d int) Predicate {
	return ColConst{Col: p.Col + d, Op: p.Op, Const: p.Const}
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

// MaxCol implements Predicate.
func (p And) MaxCol() int {
	m := -1
	for _, q := range p.Preds {
		m = max(m, q.MaxCol())
	}
	return m
}

// MinCol implements Predicate.
func (p And) MinCol() int {
	m := -1
	for _, q := range p.Preds {
		if m == -1 || q.MinCol() < m {
			m = q.MinCol()
		}
	}
	if m == -1 {
		return 0
	}
	return m
}

// Shift implements Predicate.
func (p And) Shift(d int) Predicate {
	out := make([]Predicate, len(p.Preds))
	for i, q := range p.Preds {
		out[i] = q.Shift(d)
	}
	return And{Preds: out}
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

// MaxCol implements Predicate.
func (p Or) MaxCol() int {
	m := -1
	for _, q := range p.Preds {
		m = max(m, q.MaxCol())
	}
	return m
}

// MinCol implements Predicate.
func (p Or) MinCol() int {
	m := -1
	for _, q := range p.Preds {
		if m == -1 || q.MinCol() < m {
			m = q.MinCol()
		}
	}
	if m == -1 {
		return 0
	}
	return m
}

// Shift implements Predicate.
func (p Or) Shift(d int) Predicate {
	out := make([]Predicate, len(p.Preds))
	for i, q := range p.Preds {
		out[i] = q.Shift(d)
	}
	return Or{Preds: out}
}

func (p Or) String() string { return joinPreds(p.Preds, " OR ") }

// Not negates a predicate.
type Not struct{ Pred Predicate }

// Holds implements Predicate.
func (p Not) Holds(t tuple.Tuple) bool { return !p.Pred.Holds(t) }

// MaxCol implements Predicate.
func (p Not) MaxCol() int { return p.Pred.MaxCol() }

// MinCol implements Predicate.
func (p Not) MinCol() int { return p.Pred.MinCol() }

// Shift implements Predicate.
func (p Not) Shift(d int) Predicate { return Not{Pred: p.Pred.Shift(d)} }

func (p Not) String() string { return "NOT (" + p.Pred.String() + ")" }

// True is the always-true predicate.
type True struct{}

// Holds implements Predicate.
func (True) Holds(tuple.Tuple) bool { return true }

// MaxCol implements Predicate.
func (True) MaxCol() int { return -1 }

// MinCol implements Predicate.
func (True) MinCol() int { return 0 }

// Shift implements Predicate.
func (True) Shift(int) Predicate { return True{} }

func (True) String() string { return "TRUE" }

func joinPreds(ps []Predicate, sep string) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = "(" + p.String() + ")"
	}
	return strings.Join(parts, sep)
}
