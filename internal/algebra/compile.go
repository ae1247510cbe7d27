package algebra

import "expdb/internal/tuple"

// compile turns p into the test a streaming operator runs once per row.
// Holds stays the definition of every predicate; compile only changes what a
// row pays for it, and only for the shapes a scan spends its time in:
//
//   - nil and True compile to nil — no test, no closure, no allocation;
//   - a comparison of a column with an INT constant reads the attribute in
//     place and compares machine integers whenever that row's value is an
//     INT. The kind is checked per value, not taken from the schema:
//     Schema.Validate lets a FLOAT or NULL into an INT column, and those
//     rows take Holds with its coercion and kind ranking;
//   - a conjunction is its compiled conjuncts, nested ones flattened;
//   - anything else is p.Holds.
//
// An operator compiles at the start of each evaluation and keeps the closure
// on its own stack: nothing is cached on the plan node, so plans stay
// immutable values that sessions, views and the result cache share freely.
func compile(p Predicate) func(tuple.Tuple) bool {
	switch p := p.(type) {
	case nil, True:
		return nil
	case And:
		return compileAll(p.Preds)
	case ColConst:
		if c, ok := p.Const.Int64(); ok {
			col, op := p.Col, p.Op
			return func(t tuple.Tuple) bool {
				if v, ok := t[col].Int64(); ok {
					return op.holdsInt(v, c)
				}
				return p.Holds(t)
			}
		}
	}
	return p.Holds
}

// compileAll compiles the conjunction of ps (an empty one is true).
func compileAll(ps []Predicate) func(tuple.Tuple) bool {
	tests := appendCompiled(nil, ps)
	switch len(tests) {
	case 0:
		return nil
	case 1:
		return tests[0]
	}
	return func(t tuple.Tuple) bool {
		for _, holds := range tests {
			if !holds(t) {
				return false
			}
		}
		return true
	}
}

func appendCompiled(tests []func(tuple.Tuple) bool, ps []Predicate) []func(tuple.Tuple) bool {
	for _, p := range ps {
		if and, ok := p.(And); ok {
			tests = appendCompiled(tests, and.Preds)
		} else if holds := compile(p); holds != nil {
			tests = append(tests, holds)
		}
	}
	return tests
}

// holdsInt is op.eval(Compare) for two INTs.
func (op CmpOp) holdsInt(a, b int64) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	default:
		return a >= b
	}
}
