package algebra

import (
	"math"

	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
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
	return c.test(p)
}

// test is the per-row test of c, which add took apart from p: nil when c
// tests nothing.
func (c *conjunction) test(p Predicate) func(tuple.Tuple) bool {
	for _, r := range c.ranges {
		if r.Lo > r.Hi {
			col := r.Col
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
			v, ok := t[r.Col].Int64()
			if !ok {
				return p.Holds(t)
			}
			if uint64(v-r.Lo) > uint64(r.Hi-r.Lo) {
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
// column that INT bounds restrict (Lo > Hi when they contradict each
// other), and the Holds of everything else.
type conjunction struct {
	ranges []relation.IntRange
	rest   []func(tuple.Tuple) bool
}

// scan streams σ[p](b) at tau (every row alive when p is nil), less the
// rows whose column in.Col holds no INT of in when in is not nil; that
// column must have an array. The intervals of p over columns with an array
// run in the relation's kernel (Relation.ScanInts), in slot order, and only
// the rows that pass them reach the test of the rest of p.
func (b *Base) scan(tau xtime.Time, p Predicate, in *relation.IntSet, emit func(relation.Row)) {
	var c conjunction
	c.add(p)
	kernel := 0 // c.ranges[:kernel] are over columns with an array
	for i, r := range c.ranges {
		if b.Rel.HasIntArray(r.Col) {
			c.ranges[kernel], c.ranges[i] = r, c.ranges[kernel]
			kernel++
		}
	}
	ranges := c.ranges[:kernel]
	c.ranges = c.ranges[kernel:]
	holds := c.test(p)
	if holds == nil {
		b.Rel.ScanInts(tau, ranges, in, emit)
		return
	}
	b.Rel.ScanInts(tau, ranges, in, func(row relation.Row) {
		if holds(row.Tuple) {
			emit(row)
		}
	})
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
	for i < len(c.ranges) && c.ranges[i].Col != col {
		i++
	}
	if i == len(c.ranges) {
		c.ranges = append(c.ranges, relation.IntRange{Col: col, Lo: math.MinInt64, Hi: math.MaxInt64})
	}
	r := &c.ranges[i]
	switch op {
	case OpEq:
		r.Lo, r.Hi = max(r.Lo, k), min(r.Hi, k)
	case OpLe:
		r.Hi = min(r.Hi, k)
	case OpGe:
		r.Lo = max(r.Lo, k)
	case OpLt:
		if k == math.MinInt64 {
			r.Lo, r.Hi = math.MaxInt64, math.MinInt64
		} else {
			r.Hi = min(r.Hi, k-1)
		}
	case OpGt:
		if k == math.MaxInt64 {
			r.Lo, r.Hi = math.MaxInt64, math.MinInt64
		} else {
			r.Lo = max(r.Lo, k+1)
		}
	}
}
