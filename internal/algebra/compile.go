package algebra

import (
	"math"

	"expdb/internal/tuple"
)

// compile turns p into the test a streaming operator runs once per row.
// Holds stays the definition of every predicate; compile only changes what a
// row pays for it, and only for the shapes a scan spends its time in:
//
//   - nil and True compile to nil — no test, no closure, no allocation;
//   - a conjunction is flattened, and its comparisons of a column with an
//     INT constant by =, <, <=, > or >= fold into one closed interval
//     [lo, hi] per column. A row passes an interval when its value v is an
//     INT with uint64(v−lo) ≤ uint64(hi−lo): one subtraction and one
//     unsigned compare, whatever the number of bounds. Contradictory bounds
//     leave an empty interval, which no INT passes. The kind is checked per
//     value, not taken from the schema: Schema.Validate lets a FLOAT or NULL
//     into an INT column, and such a row takes Holds of the whole
//     conjunction, with its coercion and kind ranking;
//   - the other conjuncts (<>, ColCol, Or, Not, non-INT constants) run
//     their Holds after the intervals.
//
// An operator compiles at the start of each evaluation and keeps the closure
// on its own stack: nothing is cached on the plan node, so plans stay
// immutable values that sessions, views and the result cache share freely.
func compile(p Predicate) func(tuple.Tuple) bool {
	var c conjunction
	c.add(p)
	for _, r := range c.ranges {
		if r.lo > r.hi {
			col := r.col
			return func(t tuple.Tuple) bool {
				if _, ok := t[col].Int64(); ok {
					return false
				}
				return p.Holds(t)
			}
		}
	}
	ranges, rest := c.ranges, c.rest
	switch {
	case len(ranges) == 0 && len(rest) == 0:
		return nil
	case len(ranges) == 0 && len(rest) == 1:
		return rest[0]
	}
	return func(t tuple.Tuple) bool {
		for _, r := range ranges {
			v, ok := t[r.col].Int64()
			if !ok {
				return p.Holds(t)
			}
			if uint64(v-r.lo) > uint64(r.hi-r.lo) {
				return false
			}
		}
		for _, holds := range rest {
			if !holds(t) {
				return false
			}
		}
		return true
	}
}

// conjunction is a predicate taken apart for compile: an interval per
// column that INT bounds restrict, and the Holds of everything else.
type conjunction struct {
	ranges []intRange
	rest   []func(tuple.Tuple) bool
}

// intRange is the closed interval [lo, hi] an INT in column col must lie
// in; lo > hi when its bounds contradict each other.
type intRange struct {
	col    int
	lo, hi int64
}

func (c *conjunction) add(p Predicate) {
	switch p := p.(type) {
	case nil, True:
	case And:
		for _, q := range p.Preds {
			c.add(q)
		}
	case ColConst:
		if k, ok := p.Const.Int64(); ok && p.Op != OpNe {
			c.narrow(p.Col, p.Op, k)
			return
		}
		c.rest = append(c.rest, p.Holds)
	default:
		c.rest = append(c.rest, p.Holds)
	}
}

// narrow intersects column col's interval with the INTs v for which v op k.
func (c *conjunction) narrow(col int, op CmpOp, k int64) {
	i := 0
	for i < len(c.ranges) && c.ranges[i].col != col {
		i++
	}
	if i == len(c.ranges) {
		c.ranges = append(c.ranges, intRange{col: col, lo: math.MinInt64, hi: math.MaxInt64})
	}
	r := &c.ranges[i]
	switch op {
	case OpEq:
		r.lo, r.hi = max(r.lo, k), min(r.hi, k)
	case OpLe:
		r.hi = min(r.hi, k)
	case OpGe:
		r.lo = max(r.lo, k)
	case OpLt:
		if k == math.MinInt64 {
			r.lo, r.hi = math.MaxInt64, math.MinInt64
		} else {
			r.hi = min(r.hi, k-1)
		}
	case OpGt:
		if k == math.MaxInt64 {
			r.lo, r.hi = math.MaxInt64, math.MinInt64
		} else {
			r.lo = max(r.lo, k+1)
		}
	}
}
