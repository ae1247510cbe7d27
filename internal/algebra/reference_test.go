package algebra

import (
	"fmt"
	"slices"
	"sort"

	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// The reference evaluator: the paper's formulas written as literally as it
// states them, sharing nothing with the evaluation pass — every node builds
// its whole result from the τ-snapshots of its arguments (snapshot
// reducibility), σ tests Holds, π and ∪ keep the larger expiration time of a
// duplicate themselves, × is a nested loop, ⋈ is σ over ×, an aggregation
// extends each input row (formula (8)) and leaves GROUP BY to a real π, time
// slices are a map from expiration time to tuples, ν of (9) is found by
// simulating the partition's future, and the critical tuples of (11) come
// from a second walk over both arguments. It is the oracle the pass is
// property-tested against.

// refSet is a result under construction, one row per set key: a duplicate
// keeps the larger expiration time, the max of formulas (3) and (4).
type refSet map[string]relation.Row

func (s refSet) add(row relation.Row) {
	if old, ok := s[row.Tuple.Key()]; !ok || row.Texp > old.Texp {
		s[row.Tuple.Key()] = row
	}
}

// rel returns the set as a relation. Its rows have distinct set keys
// already, so they are appended without one.
func (s refSet) rel(schema tuple.Schema) *relation.Relation {
	out := relation.New(schema)
	for _, row := range s {
		out.AppendDistinct(row)
	}
	return out
}

// refEval returns the rows of e at tau and texp(e); a monotonic operator's
// texp(e) is the minimum of its arguments' (§2.6).
func refEval(e Expr, tau xtime.Time) (*relation.Relation, xtime.Time) {
	rows := func(x Expr) ([]relation.Row, xtime.Time) {
		rel, texp := refEval(x, tau)
		return rel.Rows(tau), texp
	}
	out := refSet{}
	switch n := e.(type) {
	case *Base:
		for _, r := range n.Rel.Rows(tau) {
			out.add(r)
		}
		return out.rel(n.Rel.Schema()), xtime.Infinity // texp(R) = ∞ (§2.3)
	case *IndexScan: // ≡ σ[Full](Base)
		return refEval(&Select{Pred: n.Full, Child: n.Base}, tau)
	case *Select: // formula (1)
		in, texp := rows(n.Child)
		for _, r := range in {
			if n.Pred == nil || n.Pred.Holds(r.Tuple) {
				out.add(r)
			}
		}
		return out.rel(e.Schema()), texp
	case *Project: // formula (3)
		in, texp := rows(n.Child)
		for _, r := range in {
			out.add(relation.Row{Tuple: r.Tuple.Project(n.Cols), Texp: r.Texp})
		}
		return out.rel(e.Schema()), texp
	case *Product: // formula (2)
		l, lt := rows(n.Left)
		r, rt := rows(n.Right)
		for _, a := range l {
			for _, b := range r {
				out.add(relation.Row{Tuple: a.Tuple.Concat(b.Tuple), Texp: min(a.Texp, b.Texp)})
			}
		}
		return out.rel(e.Schema()), min(lt, rt)
	case *Union: // formula (4)
		l, lt := rows(n.Left)
		r, rt := rows(n.Right)
		for _, row := range append(l, r...) {
			out.add(row)
		}
		return out.rel(e.Schema()), min(lt, rt)
	case *Join: // formula (5)
		return refEval(&Select{Pred: n.Pred, Child: &Product{Left: n.Left, Right: n.Right}}, tau)
	case *Intersect: // formula (6)
		l, lt := rows(n.Left)
		r, rt := rows(n.Right)
		inR := refSet{}
		for _, b := range r {
			inR.add(b)
		}
		for _, a := range l {
			if b, ok := inR[a.Tuple.Key()]; ok {
				out.add(relation.Row{Tuple: a.Tuple, Texp: min(a.Texp, b.Texp)})
			}
		}
		return out.rel(e.Schema()), min(lt, rt)
	case *Agg:
		in, texp := refEval(n.Child, tau)
		out, own := refAgg(n, in, tau)
		return out, xtime.Min(texp, own)
	case *Diff:
		l, lt := refEval(n.Left, tau)
		r, rt := refEval(n.Right, tau)
		out := relation.New(n.Schema())
		l.AliveAt(tau, func(row relation.Row) { // formula (10)
			if !r.Contains(row.Tuple, tau) {
				out.Insert(row.Tuple, row.Texp)
			}
		})
		texp := xtime.Min(lt, rt) // formula (11)
		for _, h := range refHelper(l, r, tau) {
			if h.InR > h.InS {
				texp = xtime.Min(texp, h.InS)
			}
		}
		return out, texp
	}
	panic(fmt.Sprintf("refEval: %T", e))
}

// refHelper is the helper relation of Theorem 3 over evaluated arguments:
// every tuple alive in both; the critical ones have InR > InS.
func refHelper(l, r *relation.Relation, tau xtime.Time) []CriticalRow {
	var rows []CriticalRow
	l.AliveAt(tau, func(row relation.Row) {
		if st, ok := r.Texp(row.Tuple); ok && st > tau {
			rows = append(rows, CriticalRow{Tuple: row.Tuple, InS: st, InR: row.Texp})
		}
	})
	return rows
}

// refPartitions is φexp (formula (7)): the rows of in grouped by a's grouping
// attributes, each partition in (texp, tuple) order — the order a float sum
// is defined to add in, longest-lived tuple first.
func refPartitions(a *Agg, in *relation.Relation, tau xtime.Time) [][]relation.Row {
	byKey := map[string][]relation.Row{}
	in.AliveAt(tau, func(row relation.Row) {
		k := row.Tuple.Project(a.GroupCols).Key()
		byKey[k] = append(byKey[k], row)
	})
	var parts [][]relation.Row
	for _, rows := range byKey {
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].Texp != rows[j].Texp {
				return rows[i].Texp < rows[j].Texp
			}
			return rows[i].Tuple.Compare(rows[j].Tuple) < 0
		})
		parts = append(parts, rows)
	}
	return parts
}

// refAgg is formula (8) with a's policy: every row extended with the
// aggregate values of its partition, expiring at min(texp_R(r), T_P). The
// second result is the earliest T_P that part of its partition outlives.
func refAgg(a *Agg, in *relation.Relation, tau xtime.Time) (*relation.Relation, xtime.Time) {
	out, texp := relation.New(a.Schema()), xtime.Infinity
	for _, rows := range refPartitions(a, in, tau) {
		tp := xtime.Infinity
		var vals tuple.Tuple
		for _, f := range a.Funcs {
			v, _ := refApply(f, rows, tau)
			vals = append(vals, v)
			tp = xtime.Min(tp, refFuncTime(a.Policy, f, rows, tau))
		}
		for _, row := range rows {
			out.Insert(row.Tuple.Concat(vals), xtime.Min(row.Texp, tp))
			if row.Texp > tp {
				texp = xtime.Min(texp, tp)
			}
		}
	}
	return out, texp
}

// refApply computes f over the rows alive strictly after `after`, folding
// from the last row to the first. The boolean reports whether any remains.
func refApply(f AggFunc, rows []relation.Row, after xtime.Time) (value.Value, bool) {
	var (
		alive, count, nNum, sumI int64
		sumF                     float64
		isFloat                  bool
		best                     = value.Null
	)
	for i := len(rows) - 1; i >= 0; i-- {
		if rows[i].Texp <= after {
			continue
		}
		alive++
		if f.Col < 0 {
			count++
			continue
		}
		v := rows[i].Tuple[f.Col]
		if v.IsNull() {
			continue
		}
		count++
		nNum++
		isFloat = isFloat || v.Kind() == value.KindFloat
		sumI += v.AsInt()
		sumF += v.AsFloat()
		if best.IsNull() || f.Kind == AggMin && v.Compare(best) < 0 || f.Kind == AggMax && v.Compare(best) > 0 {
			best = v
		}
	}
	switch {
	case alive == 0:
		return value.Null, false
	case f.Kind == AggCount:
		return value.Int(count), true
	case nNum == 0:
		return value.Null, true
	case f.Kind == AggMin || f.Kind == AggMax:
		return best, true
	case f.Kind == AggAvg:
		return value.Float(sumF / float64(nNum)), true
	case isFloat:
		return value.Float(sumF), true
	default:
		return value.Int(sumI), true
	}
}

// refSlices are the time-sliced sets of a partition (§2.6.1): its tuples by
// expiration time, earliest first.
func refSlices(rows []relation.Row) [][]relation.Row {
	byT := map[xtime.Time][]relation.Row{}
	for _, r := range rows {
		byT[r.Texp] = append(byT[r.Texp], r)
	}
	var out [][]relation.Row
	for _, s := range byT {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].Texp < out[j][0].Texp })
	return out
}

// refFuncTime is the partition time f alone sets under policy.
func refFuncTime(policy AggPolicy, f AggFunc, rows []relation.Row, tau xtime.Time) xtime.Time {
	naive, last := xtime.Infinity, xtime.Time(0)
	for _, r := range rows {
		naive, last = xtime.Min(naive, r.Texp), xtime.Max(last, r.Texp)
	}
	switch {
	case policy == PolicyNaive, policy == PolicyNeutral && f.Kind == AggCount:
		return naive // formula (8), which count strictly follows
	case policy == PolicyNeutral:
		// Definition 2: the earliest slice of the contributing set C, or
		// the partition's last expiration when every slice is neutral. A
		// slice neutral over the reals whose expiry still changes the float
		// value is not neutral.
		v0, _ := refApply(f, rows, tau)
		for _, s := range refSlices(rows) {
			v, nonEmpty := refApply(f, rows, s[0].Texp)
			if !refNeutral(f, s, rows) || nonEmpty && !v.Equal(v0) {
				return s[0].Texp
			}
		}
		return last
	default:
		// ν of formula (9) by simulation: the first instant at which the
		// value over the unexpired tuples differs from the value at tau, or
		// the partition empties.
		v0, _ := refApply(f, rows, tau)
		for _, s := range refSlices(rows) {
			if t := s[0].Texp; t.IsFinite() {
				if v, nonEmpty := refApply(f, rows, t); !nonEmpty || !v.Equal(v0) {
					return t
				}
			}
		}
		return xtime.Infinity
	}
}

// refNeutral checks Table 1's condition for the time-sliced subset n of
// partition p.
func refNeutral(f AggFunc, n, p []relation.Row) bool {
	sum := func(rows []relation.Row) (s, c float64) {
		for _, r := range rows {
			if v := r.Tuple[f.Col]; !v.IsNull() {
				s, c = s+v.AsFloat(), c+1
			}
		}
		return s, c
	}
	sumN, cntN := sum(n)
	sumP, cntP := sum(p)
	later := slices.DeleteFunc(slices.Clone(p), func(r relation.Row) bool { return r.Texp <= n[0].Texp })
	if _, cntL := sum(later); cntN > 0 && cntL == 0 && len(later) > 0 && (f.Kind == AggSum || f.Kind == AggAvg) {
		return false // N holds the last values and tuples outlive it: the value turns NULL (§2.4)
	}
	switch f.Kind {
	case AggSum: // Σ_{t∈N} t(i) = 0
		return sumN == 0
	case AggAvg: // Σ_{t∈N} t(i) = (|N|/|P|) Σ_{r∈P} r(i)
		return cntP == 0 || sumN*cntP == sumP*cntN
	default:
		// min, max: a tuple is removable unless it is the longest-lived one
		// achieving the extremum.
		fP, _ := refApply(f, p, -1)
		extTexp := xtime.Time(0)
		for _, r := range p {
			if v := r.Tuple[f.Col]; !v.IsNull() && v.Equal(fP) {
				extTexp = xtime.Max(extTexp, r.Texp)
			}
		}
		for _, r := range n {
			if v := r.Tuple[f.Col]; !v.IsNull() && v.Equal(fP) && r.Texp >= extTexp {
				return false
			}
		}
		return true
	}
}

// refFutureChanges counts the value changes ahead of a's partitions
// (§3.4.1) by evaluating after every slice.
func refFutureChanges(a *Agg, tau xtime.Time) int {
	in, _ := refEval(a.Child, tau)
	total := 0
	for _, rows := range refPartitions(a, in, tau) {
		for _, f := range a.Funcs {
			prev, _ := refApply(f, rows, tau)
			for _, s := range refSlices(rows) {
				v, nonEmpty := refApply(f, rows, s[0].Texp)
				if !nonEmpty {
					break
				}
				if !v.Equal(prev) {
					total, prev = total+1, v
				}
			}
		}
	}
	return total
}
