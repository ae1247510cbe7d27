// Package algebra is the public surface of expdb's expiration-time-aware
// relational algebra (§2 of "Expiration Times for Data Management", ICDE
// 2006): expression constructors for the monotonic operators σ, π, ×, ∪,
// ⋈, ∩ and the non-monotonic − and aggregation, plus the §3.1 rewrites.
//
// Expressions evaluate against live relations: Stream(τ, emit) applies
// expτ to every base relation and pushes the result rows with their derived
// per-tuple expiration times, returning the paper's texp(e) — when a
// materialisation computed at τ invalidates — and Evaluate collects them.
// ExprTexp(e, τ) reads texp(e) from the same pass without the rows;
// Validity(e, τ) is the Schrödinger interval set I(e).
package algebra

import (
	ialg "expdb/internal/algebra"
)

// Core types, re-exported from the implementation.
type (
	// Expr is an algebra expression.
	Expr = ialg.Expr
	// Base is a leaf referencing a stored relation.
	Base = ialg.Base
	// Select is σexp_p (formula (1)).
	Select = ialg.Select
	// Project is πexp (formula (3)).
	Project = ialg.Project
	// Product is ×exp (formula (2)).
	Product = ialg.Product
	// Union is ∪exp (formula (4)).
	Union = ialg.Union
	// Join is the derived ⋈exp (formula (5)).
	Join = ialg.Join
	// Intersect is the derived ∩exp (formula (6)).
	Intersect = ialg.Intersect
	// Diff is the non-monotonic −exp (formula (10), Table 2).
	Diff = ialg.Diff
	// Agg is the non-monotonic aggregation (formulas (7)–(9), Table 1).
	Agg = ialg.Agg
	// AggFunc is one aggregate function application.
	AggFunc = ialg.AggFunc
	// AggKind selects min/max/sum/count/avg.
	AggKind = ialg.AggKind
	// AggPolicy selects the aggregate expiration rule.
	AggPolicy = ialg.AggPolicy
	// Predicate is a selection/join condition.
	Predicate = ialg.Predicate
	// ColCol compares two attributes.
	ColCol = ialg.ColCol
	// ColConst compares an attribute with a constant.
	ColConst = ialg.ColConst
	// And, Or, Not, True compose predicates.
	And = ialg.And
	// Or is the ∨-composition.
	Or = ialg.Or
	// Not negates a predicate.
	Not = ialg.Not
	// True always holds.
	True = ialg.True
	// CmpOp is a comparison operator.
	CmpOp = ialg.CmpOp
	// CriticalRow is one element of a difference's critical set.
	CriticalRow = ialg.CriticalRow
	// Evaluation is what Evaluate returns and what a kept answer is: rows,
	// the instant they were evaluated at, texp(e) and the rows born later.
	Evaluation = ialg.Evaluation
)

// Comparison operators.
const (
	OpEq = ialg.OpEq
	OpNe = ialg.OpNe
	OpLt = ialg.OpLt
	OpLe = ialg.OpLe
	OpGt = ialg.OpGt
	OpGe = ialg.OpGe
)

// Aggregate function kinds.
const (
	AggMin   = ialg.AggMin
	AggMax   = ialg.AggMax
	AggSum   = ialg.AggSum
	AggCount = ialg.AggCount
	AggAvg   = ialg.AggAvg
)

// Aggregate expiration policies, in increasing precision (§2.6.1).
const (
	PolicyNaive   = ialg.PolicyNaive
	PolicyNeutral = ialg.PolicyNeutral
	PolicyExact   = ialg.PolicyExact
)

// Constructors.
var (
	// NewBase wraps a stored relation as an expression leaf.
	NewBase = ialg.NewBase
	// NewSelect builds σexp_p(child).
	NewSelect = ialg.NewSelect
	// NewProject builds πexp_cols(child) (0-based columns).
	NewProject = ialg.NewProject
	// NewProduct builds left ×exp right.
	NewProduct = ialg.NewProduct
	// NewUnion builds left ∪exp right.
	NewUnion = ialg.NewUnion
	// NewJoin builds a join with an arbitrary predicate over the
	// concatenated schema.
	NewJoin = ialg.NewJoin
	// EquiJoin builds left ⋈ right on leftCol = rightCol.
	EquiJoin = ialg.EquiJoin
	// NewIntersect builds left ∩exp right.
	NewIntersect = ialg.NewIntersect
	// NewDiff builds left −exp right.
	NewDiff = ialg.NewDiff
	// NewAgg builds an aggregation node (Klug form: input tuples extended
	// with aggregate values).
	NewAgg = ialg.NewAgg
	// GroupBy builds the SQL GROUP BY shape: one row per partition.
	GroupBy = ialg.GroupBy
	// PushDownSelections applies the §3.1 rewrites.
	PushDownSelections = ialg.PushDownSelections
	// Walk visits an expression tree depth-first.
	Walk = ialg.Walk
	// ExprTexp is texp(e): when a materialisation computed at τ
	// invalidates (∞ for a monotonic expression).
	ExprTexp = ialg.ExprTexp
	// Validity is the Schrödinger interval set I(e) of a materialisation
	// computed at τ (§3.4).
	Validity = ialg.Validity
	// Evaluate computes an expression's rows and its texp(e) in one pass
	// through the pipelined streaming executor.
	Evaluate = ialg.Evaluate
	// EvalStream is Evaluate for callers that want the rows only.
	EvalStream = ialg.EvalStream
)
