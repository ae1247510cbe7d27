package algebra

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"expdb/internal/interval"
	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// AggKind identifies one of the five standard SQL aggregate functions of
// the paper's family F (§2.6.1).
type AggKind uint8

// Aggregate function kinds.
const (
	AggMin AggKind = iota
	AggMax
	AggSum
	AggCount
	AggAvg
)

// String returns the SQL name of the kind.
func (k AggKind) String() string {
	switch k {
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	default:
		return "avg"
	}
}

// AggFunc is an aggregate function applied to one attribute — the paper's
// subscripted min_i, sum_i, … For AggCount a negative Col means COUNT(*).
type AggFunc struct {
	Kind AggKind
	Col  int // 0-based attribute; ignored (may be -1) for COUNT(*)
}

// String renders e.g. "sum($2)".
func (f AggFunc) String() string {
	if f.Kind == AggCount && f.Col < 0 {
		return "count(*)"
	}
	return fmt.Sprintf("%s($%d)", f.Kind, f.Col+1)
}

// AggPolicy selects how expiration times of aggregation results are
// derived (§2.6.1 presents them in increasing order of precision).
type AggPolicy uint8

const (
	// PolicyNaive is formula (8): each result tuple carries the minimum
	// expiration time of its partition — correct but conservative.
	PolicyNaive AggPolicy = iota
	// PolicyNeutral ignores the lifetimes of time-sliced neutral subsets
	// (Table 1) and uses the contributing set of Definition 2; count
	// strictly follows (8), as the paper notes.
	PolicyNeutral
	// PolicyExact computes the change-point functions χ and ν (formula
	// (9)) from the partition's future values: tuples expire exactly when
	// the aggregate value changes or the partition empties.
	PolicyExact
)

// String names the policy.
func (p AggPolicy) String() string {
	switch p {
	case PolicyNaive:
		return "naive"
	case PolicyNeutral:
		return "neutral"
	default:
		return "exact"
	}
}

// Agg is the non-monotonic aggregation operator aggexp_{j1..jn,f}(R),
// formula (8) built on Klug's framework: every unexpired input tuple is
// extended with the aggregate value(s) of the partition it belongs to
// under the stable partitioning φexp (formula (7)); the usual GROUP BY
// result is a projection over it (see GroupBy).
//
// Supporting several aggregate functions in one node is a conservative
// extension of the paper's single f: each result tuple carries all
// aggregate values and the partition's expiration time is the minimum of
// the per-function times, so with exactly one function the semantics
// coincide with the paper's.
//
// Per-tuple expiration refines the paper's partition-level assignment to
// min(texp_R(r), T_P), where T_P is the partition time of the chosen
// policy: the r-part of a result tuple cannot outlive r itself (a
// recomputation would no longer produce the tuple), while GROUP BY
// projections still inherit exactly T_P because projection takes the
// maximum over duplicates (formula (3)) and the longest-lived tuple of a
// partition has texp_R(r) ≥ T_P.
//
// Everything the node can be asked — its rows, texp(e), I(e), the §3.4.1
// change count — is read off one walk over the child (fold): the rows,
// the partition times and texp(e) are the same partitions seen once, which
// is how the paper defines them.
type Agg struct {
	GroupCols []int // 0-based grouping attributes j1..jn (may be empty: one global partition)
	Funcs     []AggFunc
	Policy    AggPolicy
	Child     Expr
}

// NewAgg builds an aggregation node.
func NewAgg(groupCols []int, funcs []AggFunc, policy AggPolicy, child Expr) (*Agg, error) {
	arity := child.Schema().Arity()
	for _, c := range groupCols {
		if c < 0 || c >= arity {
			return nil, fmt.Errorf("algebra: group column %d out of range for %s", c+1, child.Schema())
		}
	}
	if len(funcs) == 0 {
		return nil, fmt.Errorf("algebra: aggregation needs at least one aggregate function")
	}
	for _, f := range funcs {
		if f.Kind == AggCount && f.Col < 0 {
			continue
		}
		if f.Col < 0 || f.Col >= arity {
			return nil, fmt.Errorf("algebra: aggregate %s out of range for %s", f, child.Schema())
		}
	}
	return &Agg{GroupCols: groupCols, Funcs: funcs, Policy: policy, Child: child}, nil
}

// GroupBy builds the common SQL shape π_{groupCols, aggregates}(agg(...)):
// one row per partition, carrying the group columns and the aggregate
// values, with expiration time exactly the partition time T_P.
func GroupBy(groupCols []int, funcs []AggFunc, policy AggPolicy, child Expr) (Expr, error) {
	a, err := NewAgg(groupCols, funcs, policy, child)
	if err != nil {
		return nil, err
	}
	arity := child.Schema().Arity()
	cols := make([]int, 0, len(groupCols)+len(funcs))
	cols = append(cols, groupCols...)
	for i := range funcs {
		cols = append(cols, arity+i)
	}
	return NewProject(cols, a)
}

// Schema implements Expr: the child schema extended with one column per
// aggregate function.
func (a *Agg) Schema() tuple.Schema {
	child := a.Child.Schema()
	cols := make([]tuple.Column, 0, child.Arity()+len(a.Funcs))
	cols = append(cols, child.Cols...)
	for _, f := range a.Funcs {
		cols = append(cols, tuple.Column{Name: a.funcColName(f), Kind: a.funcKind(f)})
	}
	return tuple.Schema{Cols: cols}
}

func (a *Agg) funcColName(f AggFunc) string {
	if f.Kind == AggCount && f.Col < 0 {
		return "count"
	}
	return f.Kind.String() + "_" + a.Child.Schema().Cols[f.Col].Name
}

func (a *Agg) funcKind(f AggFunc) value.Kind {
	switch f.Kind {
	case AggCount:
		return value.KindInt
	case AggAvg:
		return value.KindFloat
	default:
		return a.Child.Schema().Cols[f.Col].Kind
	}
}

// Monotonic implements Expr: aggregation is non-monotonic.
func (a *Agg) Monotonic() bool { return false }

// partition is φexp_{j1..jn}(R, r) for one equivalence class (formula (7)),
// as fold hands it on: the rows in expiration order, so that the
// time-sliced sets of §2.6.1 — the tuples sharing one expiration time —
// are the contiguous runs rows[runs[k]:runs[k+1]], with every aggregate
// function's value over each suffix of slices already taken.
type partition struct {
	rows []relation.Row
	runs []int // start of each time slice in rows
	// vals holds, function after function, f over rows[runs[k]:] for every
	// slice k: the value at τ (k = 0) and the value a recomputation returns
	// once slices 0..k−1 have expired.
	vals []value.Value
	time xtime.Time // T_P under the node's policy
}

// suffix returns the values of function i over each suffix of slices.
func (p *partition) suffix(i int) []value.Value {
	return p.vals[i*len(p.runs) : (i+1)*len(p.runs)]
}

// value is function i over the whole partition: the aggregate at τ.
func (p *partition) value(i int) value.Value { return p.vals[i*len(p.runs)] }

// last is the latest expiration time in the partition: when it empties.
func (p *partition) last() xtime.Time { return p.rows[len(p.rows)-1].Texp }

// byTexp puts a partition in expiration order. Ties may fall either way:
// count, min, max and exact sums do not depend on the order of a slice.
func byTexp(a, b relation.Row) int { return cmp.Compare(a.Texp, b.Texp) }

// byTexpThenTuple is the canonical order of a partition that feeds an
// inexact floating-point sum, where the order of the additions shows in the
// last bits: one order, whatever the iteration order of the storage below.
func byTexpThenTuple(a, b relation.Row) int {
	if c := cmp.Compare(a.Texp, b.Texp); c != 0 {
		return c
	}
	return a.Tuple.Compare(b.Tuple)
}

// fold is the one function that walks the aggregation's child. A
// duplicate-free child streams straight into the partitions, filed in a
// tuple.Set by their group columns; any other is collected into a set first
// (a streamed duplicate would be counted twice). Each partition is put in
// texp order once and handed to visit, scratch, with its aggregate values
// and T_P. fold returns texp(e) of the subtree — the child's, lowered to
// every T_P part of its partition outlives (a recomputation shows tuples
// the materialisation lost: the first case of the χ analysis; a partition
// that empties at T_P invalidates nothing, §2.6.1) — and beside it the
// child's own, what remains of texp(e) for a materialisation with a future.
func (a *Agg) fold(tau xtime.Time, visit func(*partition)) (texp, child xtime.Time, err error) {
	var (
		parts  [][]relation.Row
		groups tuple.Set
		sums   []int   // the columns a sum or avg adds up
		mag    float64 // their values' magnitudes added up; ∞ once one is a FLOAT
	)
	for _, f := range a.Funcs {
		if f.Kind == AggSum || f.Kind == AggAvg {
			sums = append(sums, f.Col)
		}
	}
	add := func(row relation.Row) {
		var buf [tuple.KeyBuf]byte
		key := row.Tuple.AppendKeyCols(buf[:0], a.GroupCols)
		h := tuple.Hash(key)
		i, ok := groups.Find(h, func(i int) bool {
			var other [tuple.KeyBuf]byte
			return bytes.Equal(parts[i][0].Tuple.AppendKeyCols(other[:0], a.GroupCols), key)
		})
		if !ok {
			i = len(parts)
			groups.Add(h, i)
			parts = append(parts, nil)
		}
		parts[i] = append(parts[i], row)
		for _, c := range sums {
			if v := row.Tuple[c]; v.Kind() == value.KindFloat {
				mag = math.Inf(1)
			} else {
				mag += math.Abs(v.AsFloat())
			}
		}
	}
	if duplicateFree(a.Child) {
		child, err = a.Child.Stream(tau, add)
	} else {
		var in *relation.Relation
		if in, child, err = collect(a.Child, tau); err == nil {
			in.AliveAt(tau, add)
		}
	}
	if err != nil {
		return 0, 0, err
	}
	texp = child
	// The float64 additions of an avg, and of the neutral policy's sums, are
	// exact in any order unless a FLOAT takes part or the magnitudes add up
	// to 2⁵³, past which float64 skips integers.
	order := byTexp
	if mag >= 1<<53 {
		order = byTexpThenTuple
	}
	var p partition
	for _, rows := range parts {
		slices.SortFunc(rows, order)
		p.rows, p.runs = rows, p.runs[:0]
		for i := range rows {
			if i == 0 || rows[i].Texp != rows[i-1].Texp {
				p.runs = append(p.runs, i)
			}
		}
		n := len(a.Funcs) * len(p.runs)
		p.vals = slices.Grow(p.vals[:0], n)[:n]
		p.time = xtime.Infinity
		for i, f := range a.Funcs {
			vals := p.suffix(i)
			f.suffixes(&p, vals)
			p.time = xtime.Min(p.time, a.funcTime(f, &p, vals))
		}
		if p.last() > p.time {
			texp = xtime.Min(texp, p.time)
		}
		visit(&p)
	}
	return texp, child, nil
}

// running is one aggregate function folded over tuples one at a time.
type running struct {
	count, nNum, sumI int64
	sumF              float64
	isFloat, haveBest bool
	best              value.Value
}

// add folds t in. NULLs count for count(*) only (§2.4).
func (s *running) add(f AggFunc, t tuple.Tuple) {
	if f.Col < 0 {
		s.count++
		return
	}
	v := t[f.Col]
	if v.IsNull() {
		return
	}
	switch f.Kind {
	case AggCount:
		s.count++
	case AggSum, AggAvg:
		s.nNum++
		if v.Kind() == value.KindFloat {
			s.isFloat = true
		}
		s.sumI += v.AsInt()
		s.sumF += v.AsFloat()
	case AggMin:
		if !s.haveBest || v.Compare(s.best) < 0 {
			s.best, s.haveBest = v, true
		}
	case AggMax:
		if !s.haveBest || v.Compare(s.best) > 0 {
			s.best, s.haveBest = v, true
		}
	}
}

// value is f over the tuples added so far, at least one: NULL when none of
// them carried a value.
func (s *running) value(f AggFunc) value.Value {
	switch {
	case f.Kind == AggCount:
		return value.Int(s.count)
	case f.Kind == AggMin || f.Kind == AggMax:
		return s.best // the zero Value is NULL
	case s.nNum == 0:
		return value.Null
	case f.Kind == AggAvg:
		return value.Float(s.sumF / float64(s.nNum))
	case s.isFloat:
		return value.Float(s.sumF)
	default:
		return value.Int(s.sumI)
	}
}

// suffixes sets vals[k] to f over p.rows[p.runs[k]:] for every slice k in
// one sweep from the longest-lived row down. Every value is then a prefix
// of the same fold: vals[0] is the aggregate at τ and vals[k] is, bit for
// bit, what evaluating after slice k−1 expired returns — no value is
// derived from another by subtraction, which floats would not survive.
func (f AggFunc) suffixes(p *partition, vals []value.Value) {
	var s running
	k := len(p.runs) - 1
	for i := len(p.rows) - 1; i >= 0; i-- {
		s.add(f, p.rows[i].Tuple)
		if i == p.runs[k] {
			vals[k] = s.value(f)
			k--
		}
	}
}

// funcTime is the partition time function f alone would set under the
// node's policy; vals are f's suffix values.
func (a *Agg) funcTime(f AggFunc, p *partition, vals []value.Value) xtime.Time {
	switch {
	case a.Policy == PolicyNaive, a.Policy == PolicyNeutral && f.Kind == AggCount:
		// Formula (8): the minimum expiration time in the partition — which
		// count strictly follows, only the empty set being neutral for it.
		return p.rows[0].Texp
	case a.Policy == PolicyNeutral:
		return neutralTime(f, p, vals)
	default:
		// The change-point function ν of formula (9): the first slice whose
		// expiry changes the value or empties the partition, ∞ when that
		// slice never expires.
		k := 0
		for k < len(vals)-1 && vals[k+1].Equal(vals[0]) {
			k++
		}
		return p.rows[p.runs[k]].Texp
	}
}

// neutralTime implements Table 1 + Definition 2 for min, max, sum and avg:
// the partition time is the minimum expiration among the contributing set
// C = P − ∪(time-sliced neutral subsets), or the maximum expiration of P
// when C is empty (the aggregate value stays valid until the whole
// partition expires). vals are f's suffix values, vals[0] f over P.
func neutralTime(f AggFunc, p *partition, vals []value.Value) xtime.Time {
	v0 := vals[0]
	if f.Kind == AggMin || f.Kind == AggMax {
		// Tuples off the extremum, and extremal ones that a longer-lived
		// extremal tuple outlasts, are removable: C is the slice of the
		// longest-lived extremal tuple.
		for i := len(p.rows) - 1; i >= 0; i-- {
			if v := p.rows[i].Tuple[f.Col]; !v.IsNull() && v.Equal(v0) {
				return p.rows[i].Texp
			}
		}
		return p.last()
	}
	sumP, cntP := sumCount(f.Col, p.rows)
	seen := 0.0 // values in the slices up to this one
	for k, lo := range p.runs {
		hi := len(p.rows)
		if k+1 < len(p.runs) {
			hi = p.runs[k+1]
		}
		// sum: Σ_{t∈N} t(i) = 0; avg: Σ_{t∈N} t(i) = (|N|/|P|) Σ_{r∈P} r(i),
		// both over non-NULL values. A slice holding the last values is not
		// neutral while tuples outlive it: the value turns NULL (§2.4).
		sumN, cntN := sumCount(f.Col, p.rows[lo:hi])
		seen += cntN
		neutral := sumN == 0
		if f.Kind == AggAvg {
			neutral = cntP == 0 || sumN*cntP == sumP*cntN
		}
		// Table 1 reasons over the reals; in float64 a slice that leaves the
		// sum or mean unchanged there can still move its last bit, and then
		// a recomputation no longer returns the materialised value.
		if k+1 < len(vals) && !vals[k+1].Equal(v0) {
			neutral = false
		}
		if !neutral || cntN > 0 && seen == cntP && hi < len(p.rows) {
			return p.rows[lo].Texp
		}
	}
	return p.last()
}

// sumCount adds up the non-NULL values of column col and counts them.
func sumCount(col int, rows []relation.Row) (sum, n float64) {
	for _, r := range rows {
		if v := r.Tuple[col]; !v.IsNull() {
			sum += v.AsFloat()
			n++
		}
	}
	return sum, n
}

// Stream implements Expr, formula (8) with the selected expiration
// policy: every input row extended with its partition's aggregate values.
func (a *Agg) Stream(tau xtime.Time, emit func(relation.Row)) (xtime.Time, error) {
	texp, _, err := a.fold(tau, func(p *partition) {
		for _, row := range p.rows {
			t := make(tuple.Tuple, 0, len(row.Tuple)+len(a.Funcs))
			t = append(t, row.Tuple...)
			for i := range a.Funcs {
				t = append(t, p.value(i))
			}
			emit(relation.Row{Tuple: t, Texp: xtime.Min(row.Texp, p.time)})
		}
	})
	return texp, err
}

// groupsOnly reports whether cols, positions in the node's result schema,
// name grouping attributes and aggregate values only — the GROUP BY shape.
func (a *Agg) groupsOnly(cols []int) bool {
	arity := a.Child.Schema().Arity()
	for _, c := range cols {
		if c < arity && !slices.Contains(a.GroupCols, c) {
			return false
		}
	}
	return true
}

// streamGroups is π_cols over the aggregation for cols that groupsOnly
// accepts. Every row of a partition then projects onto the same tuple, and
// formula (3) gives that tuple max_r min(texp_R(r), T_P) = min(max_r
// texp_R(r), T_P): one row per partition, without the |R| extended rows it
// stands for. With births given, each partition's later states are added to
// them. The results are fold's.
func (a *Agg) streamGroups(tau xtime.Time, cols []int, emit func(relation.Row), births *Births) (texp, child xtime.Time, err error) {
	arity := a.Child.Schema().Arity()
	var funcs []int // the function each aggregate column shows
	if births != nil {
		for i, c := range cols {
			if c >= arity {
				births.aggs, funcs = append(births.aggs, i), append(funcs, c-arity)
			}
		}
	}
	return a.fold(tau, func(p *partition) {
		t := make(tuple.Tuple, len(cols))
		for i, c := range cols {
			if c < arity {
				t[i] = p.rows[0].Tuple[c]
			} else {
				t[i] = p.value(c - arity)
			}
		}
		emit(relation.Row{Tuple: t, Texp: xtime.Min(p.last(), p.time)})
		if births != nil {
			births.addChain(p, t, funcs)
		}
	})
}

// validity is the aggregation's own part of Validity (§3.4.1): the
// materialisation is valid exactly while every partition either still shows
// its original aggregate value (before T_P) or has expired entirely. Value
// changes are terminal for a materialisation — its tuples have expired and
// cannot reappear — so each partition contributes [tau, T_P[ ∪ [emptying, ∞[.
func (a *Agg) validity(tau xtime.Time) (interval.Set, error) {
	v := interval.From(tau)
	_, _, err := a.fold(tau, func(p *partition) {
		pv := interval.NewSet(interval.Interval{Start: tau, End: p.time})
		if p.last().IsFinite() {
			pv = pv.Union(interval.From(p.last()))
		}
		v = v.Intersect(pv)
	})
	return v, err
}

// FutureChanges counts, over all partitions, how many times an aggregate
// attribute value will change due to expirations — the paper's §3.4.1
// bound on the memory needed to store the future states of an aggregation
// (at most |R|).
func (a *Agg) FutureChanges(tau xtime.Time) (int, error) {
	total := 0
	_, _, err := a.fold(tau, func(p *partition) {
		for i := range a.Funcs {
			vals := p.suffix(i)
			for k := 1; k < len(vals); k++ {
				if !vals[k].Equal(vals[k-1]) {
					total++
				}
			}
		}
	})
	return total, err
}

// Children implements Expr.
func (a *Agg) Children() []Expr { return []Expr{a.Child} }

func (a *Agg) String() string {
	groups := make([]string, len(a.GroupCols))
	for i, c := range a.GroupCols {
		groups[i] = fmt.Sprintf("%d", c+1)
	}
	funcs := make([]string, len(a.Funcs))
	for i, f := range a.Funcs {
		funcs[i] = f.String()
	}
	return fmt.Sprintf("agg[{%s},%s;%s](%s)",
		strings.Join(groups, ","), strings.Join(funcs, ","), a.Policy, a.Child)
}
