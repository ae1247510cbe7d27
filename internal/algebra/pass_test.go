package algebra

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"expdb/internal/index"
	"expdb/internal/interval"
	"expdb/internal/relation"
	"expdb/internal/relation/reltest"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// passRel builds a random relation ⟨g INT, v INT, x FLOAT⟩ for the pass
// property test: a tiny group domain, NULLs in both value columns, float
// values whose sum depends on the order of addition, expiration times drawn
// from a range small enough that slices of several tuples are common, some
// tuples that never expire, and now and then no tuples at all. A hash index
// on g is attached for the IndexScan shape. R keeps the column arrays of a
// base table: g's, and v's until its first NULL.
func passRel(rng *rand.Rand, name string) *Base {
	r := relation.New(tuple.Schema{Cols: []tuple.Column{
		tuple.Col("g", value.KindInt), tuple.Col("v", value.KindInt), tuple.Col("x", value.KindFloat)}})
	r.AttachIndex(name+"_g", index.NewHash([]int{0}))
	if name == "R" {
		r.EnableIntArrays()
	}
	floats := []float64{0, 0.5, -0.5, 0.1, 0.2, 0.3, 0.7, 1e16, -1e16}
	n := rng.Intn(14)
	if rng.Intn(8) == 0 {
		n = 0
	}
	for i := 0; i < n; i++ {
		t := tuple.T(value.Int(int64(rng.Intn(3))), value.Null, value.Null)
		if rng.Intn(5) > 0 {
			t[1] = value.Int(int64(rng.Intn(5) - 2))
		}
		if rng.Intn(5) > 0 {
			t[2] = value.Float(floats[rng.Intn(len(floats))])
		}
		texp := xtime.Time(1 + rng.Intn(8))
		if rng.Intn(6) == 0 {
			texp = xtime.Infinity
		}
		r.Insert(t, texp)
	}
	return NewBase(name, r)
}

// passShapes are the expression shapes the pass treats differently, built
// over R and S for one aggregate function f (f2 rides along in the
// multi-function shape) and one policy.
func passShapes(t *testing.T, R, S *Base, f, f2 AggFunc, policy AggPolicy) map[string]Expr {
	t.Helper()
	must := func(e Expr, err error) Expr {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	agg := func(group []int, child Expr, fs ...AggFunc) Expr { return must(NewAgg(group, fs, policy, child)) }
	groupBy := func(child Expr, fs ...AggFunc) Expr { return must(GroupBy([]int{0}, fs, policy, child)) }
	g1 := ColConst{Col: 0, Op: OpEq, Const: value.Int(1)}
	probe := NewIndexScan(R, R.Name+"_g", g1, nil)
	probe.Eq = []value.Value{value.Int(1)}
	probe.EqKey = tuple.Tuple(probe.Eq).Key()
	gone := NewIndexScan(R, "dropped", g1, nil) // degrades to the scan
	gone.EqKey = probe.EqKey
	return map[string]Expr{
		"grouped":          agg([]int{0}, R, f),
		"global":           agg(nil, R, f),
		"group-by":         groupBy(R, f),
		"π non-group col":  must(NewProject([]int{1, 3}, agg([]int{0}, R, f))),
		"π aggregate only": must(NewProject([]int{3}, agg([]int{0}, R, f))),
		"multi-function":   groupBy(R, f, f2, countStar()),
		"agg over diff":    groupBy(must(NewDiff(R, S)), f),
		"diff over agg":    must(NewDiff(groupBy(R, f), groupBy(S, f))),
		"diff over ext":    must(NewDiff(agg([]int{0}, R, f), agg([]int{0}, S, f))),
		"join agg build":   must(EquiJoin(R, 0, groupBy(S, f), 0)),
		"join agg probe":   must(EquiJoin(groupBy(R, f), 0, S, 0)),
		"σ child":          groupBy(must(NewSelect(ColConst{Col: 1, Op: OpGe, Const: value.Int(0)}, R)), f),
		"index child":      groupBy(probe, f),
		"dropped index":    groupBy(gone, f),
		"π child":          groupBy(must(NewProject([]int{0, 1, 1}, R)), AggFunc{Kind: f.Kind, Col: min(f.Col, 1)}),
		"∪ child":          agg([]int{0}, must(NewUnion(R, S)), f),
		"agg over agg":     groupBy(agg([]int{0}, R, f), AggFunc{Kind: AggMax, Col: 3}),
		"diff":             must(NewDiff(R, S)),
		"diff of π":        must(NewDiff(must(NewProject([]int{0, 1}, R)), must(NewProject([]int{0, 1}, S)))),
		"diff of σ":        must(NewDiff(must(NewSelect(g1, R)), S)),
		"σ over diff":      must(NewSelect(g1, must(NewDiff(R, S)))),
	}
}

// TestPassMatchesReference: the evaluation pass — Evaluate, and the
// ExprTexp / Validity / CriticalSet / Helper / FutureChanges readers of the
// same walk — agrees with the reference evaluator on rows, per-tuple
// expiration times, texp(e), validity, critical set, helper relation and
// change count, for every shape × policy × function, at instants from
// before the first expiration to past the last.
func TestPassMatchesReference(t *testing.T) {
	funcs := []AggFunc{
		{Kind: AggMin, Col: 1}, {Kind: AggMax, Col: 2}, {Kind: AggSum, Col: 1}, {Kind: AggSum, Col: 2},
		{Kind: AggCount, Col: 1}, countStar(), {Kind: AggAvg, Col: 1}, {Kind: AggAvg, Col: 2},
	}
	rng := rand.New(rand.NewSource(18))
	cases := 0
	for round := 0; round < 8; round++ {
		R, S := passRel(rng, "R"), passRel(rng, "S")
		// S shares tuples with R, under other lifetimes, so that differences
		// have helper rows of both kinds.
		R.Rel.All(func(row relation.Row) {
			if rng.Intn(2) == 0 {
				S.Rel.Insert(row.Tuple, xtime.Time(1+rng.Intn(9)))
			}
		})
		for fi, f := range funcs {
			for _, policy := range []AggPolicy{PolicyNaive, PolicyNeutral, PolicyExact} {
				for name, e := range passShapes(t, R, S, f, funcs[(fi+3)%len(funcs)], policy) {
					for _, tau := range []xtime.Time{0, xtime.Time(1 + rng.Intn(7)), 9} {
						cases++
						checkAgainstReference(t, fmt.Sprintf("round %d, %s, %s at τ=%v", round, name, e, tau), e, tau)
					}
				}
			}
		}
	}
	t.Logf("%d cases", cases)
}

func checkAgainstReference(t *testing.T, label string, e Expr, tau xtime.Time) {
	t.Helper()
	want, wantTexp := refEval(e, tau)
	ev, err := Evaluate(e, tau)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	checkDistinct(t, label, e, ev.Rel)
	if !reltest.EqualAt(ev.Rel, want, tau) {
		t.Fatalf("%s: rows differ\npass:\n%s\nreference:\n%s", label, ev.Rel.Render(tau), want.Render(tau))
	}
	if ev.Texp != wantTexp {
		t.Fatalf("%s: texp(e) = %v, reference %v", label, ev.Texp, wantTexp)
	}
	// The readers of the same walk, at every node: ExprTexp is the texp its
	// Stream returns, and Validity holds [τ, texp(n)[.
	Walk(e, func(n Expr) {
		if rel, _, err := collect(n, tau); err == nil {
			checkDistinct(t, label, n, rel)
		}
		texp, err := n.Stream(tau, func(relation.Row) {})
		if got := mustTexp(t, n, tau); err != nil || got != texp {
			t.Fatalf("%s: at %s ExprTexp = %v, Stream's texp %v (%v)", label, n, got, texp, err)
		}
		v, err := Validity(n, tau)
		if missed := interval.NewSet(interval.Interval{Start: tau, End: texp}).Subtract(v); err != nil || !missed.Empty() {
			t.Fatalf("%s: at %s Validity %s misses %s of [τ, texp(e)[ (%v)", label, n, v, missed, err)
		}
	})
	// And Validity is true: the rows materialised at τ, expired as time
	// passes, are the reference's answer at every instant it contains — up
	// to τ+24, past the last finite expiration time of the test relations.
	v, _ := Validity(e, tau)
	for at := tau; at <= tau+24; at++ {
		if want, _ := refEval(e, at); v.Contains(at) && !reltest.EqualAt(ev.Rel, want, at) {
			t.Fatalf("%s: Validity %s holds %v, where the reference differs\n%s", label, v, at, want.Render(at))
		}
	}
	if HasFuture(e) {
		checkFutureAgainstReference(t, label, e, tau)
	}
	switch n := e.(type) {
	case *Agg:
		got, err := n.FutureChanges(tau)
		if err != nil || got != refFutureChanges(n, tau) {
			t.Fatalf("%s: FutureChanges = %d (%v), reference %d", label, got, err, refFutureChanges(n, tau))
		}
	case *Diff:
		l, lt := refEval(n.Left, tau)
		r, rt := refEval(n.Right, tau)
		helper := refHelper(l, r, tau)
		var critical []CriticalRow
		for _, h := range helper {
			if h.InR > h.InS {
				critical = append(critical, h)
			}
		}
		// A materialising pass keeps the critical rows as births when the
		// arguments are monotonic, and is the plain pass otherwise.
		mv, err := Materialize(e, tau)
		if got := mv.Validity().ValidUntil; err != nil || !reltest.EqualAt(mv.Rel, want, tau) || got != wantTexp {
			t.Fatalf("%s: Materialize: texp(e) = %v (%v), reference %v\n%s", label, got, err, wantTexp, mv.Rel.Render(tau))
		}
		births, wantBirths, wantPatched := mv.Births.Rows(), critical, xtime.Min(lt, rt)
		if !HasFuture(e) {
			wantBirths, wantPatched = nil, wantTexp
		}
		if !slices.IsSortedFunc(births, func(a, b CriticalRow) int { return cmp.Compare(a.InS, b.InS) }) {
			t.Fatalf("%s: births not in InS order: %v", label, births)
		}
		sameHelperRows(t, label+": Materialize's births", births, wantBirths)
		if mv.Texp != wantPatched {
			t.Fatalf("%s: Texp beside the births = %v, reference %v", label, mv.Texp, wantPatched)
		}
		got, err := n.CriticalSet(tau)
		if err != nil {
			t.Fatal(err)
		}
		sameHelperRows(t, label+": CriticalSet", got, critical)
		if got, err = n.Helper(tau); err != nil {
			t.Fatal(err)
		}
		sameHelperRows(t, label+": Helper", got, helper)
	}
}

// checkDistinct fails unless rel, e collected, holds as many rows as
// distinct tuples: a stream duplicateFree declares a set is appended as it
// comes, so a wrong declaration leaves a tuple in it twice.
func checkDistinct(t *testing.T, label string, e Expr, rel *relation.Relation) {
	t.Helper()
	keys := make(map[string]bool)
	rel.All(func(row relation.Row) { keys[row.Tuple.Key()] = true })
	if len(keys) != rel.Len() {
		t.Fatalf("%s: at %s (duplicate-free: %v) %d rows hold %d distinct tuples", label, e, duplicateFree(e), rel.Len(), len(keys))
	}
}

// checkFutureAgainstReference: the rows Materialize returns at tau, served
// as time passes (births applied as they fall due, the dead expired), are
// the reference evaluator's answer — tuples and expiration times — at every
// later instant, and each is stamped from the last birth applied until
// texp(e) there. A copy cut by Budget(1) is the answer, so stamped, up to
// the first birth it dropped.
func checkFutureAgainstReference(t *testing.T, label string, e Expr, tau xtime.Time) {
	t.Helper()
	for _, budget := range []int{0, 1} {
		mv, err := Materialize(e, tau)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := 0
		if budget > 0 {
			want = max(mv.Births.Len()-budget, 0)
		}
		if dropped := mv.Budget(budget); dropped != want {
			t.Fatalf("%s: budget %d dropped %d births, want %d", label, budget, dropped, want)
		}
		last := tau
		for at := tau + 1; at < mv.Texp && at <= tau+200 && (mv.Births.Len() > 0 || at <= tau+10); at++ {
			rel, n := mv.Serve(at)
			ref, refTexp := refEval(e, at)
			if !reltest.EqualAt(rel, ref, at) {
				t.Fatalf("%s: materialised at %v (budget %d) and served at %v\n%sreference:\n%s", label, tau, budget, at, rel.Render(at), ref.Render(at))
			}
			if n > 0 { // tick by tick, what is applied at a tick was born at it
				last = at
			}
			if v := mv.Validity(); v.At != last || v.ValidUntil != refTexp {
				t.Fatalf("%s: materialised at %v (budget %d), at %v stamped %v; last birth applied at %v, reference texp(e) %v",
					label, tau, budget, at, v, last, refTexp)
			}
		}
	}
}

// sameHelperRows compares two sets of helper rows.
func sameHelperRows(t *testing.T, label string, got, want []CriticalRow) {
	t.Helper()
	byKey := map[string]CriticalRow{}
	for _, h := range want {
		byKey[h.Tuple.Key()] = h
	}
	for _, h := range got {
		if w, ok := byKey[h.Tuple.Key()]; !ok || w.InS != h.InS || w.InR != h.InR {
			t.Fatalf("%s: got %+v, reference %+v (present %v)", label, h, w, ok)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, reference %d", label, len(got), len(want))
	}
}

// reinserted holds b's rows in a store with another history: inserted in a
// shuffled order, a third of them deleted along the way and put back last —
// first with a shorter lifetime, then extended to their own — so that they
// land in freed slots. The same set; nothing an operator may tell apart.
func reinserted(t *testing.T, rng *rand.Rand, b *Base) *Base {
	t.Helper()
	rows := b.Rel.RowsSorted(0)
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	r := relation.New(b.Rel.Schema())
	r.AttachIndex(b.Name+"_g", index.NewHash([]int{0}))
	var again []relation.Row
	for i, row := range rows {
		r.Insert(row.Tuple, row.Texp)
		if i%3 == 0 {
			again = append(again, rows[i/2])
			r.DeleteKey(rows[i/2].Tuple.Key())
		}
	}
	for _, row := range again {
		r.Insert(row.Tuple, 1)
		r.Insert(row.Tuple, row.Texp)
	}
	if !reltest.EqualAt(r, b.Rel, 0) || r.Len() != b.Rel.Len() {
		t.Fatalf("the reinserted %s is another set:\n%s\n%s", b.Name, r, b.Rel)
	}
	return NewBase(b.Name, r)
}

// birthList prints births in one order; several may carry the same tuple.
func birthList(b Births) string {
	rows := b.Rows()
	slices.SortFunc(rows, func(x, y CriticalRow) int {
		return cmp.Or(cmp.Compare(x.InS, y.InS), cmp.Compare(x.InR, y.InR), x.Tuple.Compare(y.Tuple))
	})
	return fmt.Sprint(rows)
}

// TestInsertionOrderIndependence: a relation is a set, but a store of slots
// has an order — the order of insertion, which a map's shuffled iteration
// hid a little differently on every run. The same rows under another
// history give every operator the same answer: σ, π, ⋈, ∪, ∩, −, GROUP BY
// under each policy — float SUM and AVG included, whose last bits follow the
// order of the additions unless the operator fixes one — return the same
// tuples with the same expiration times, the same texp(e), the same
// rendering and the same births, which applied as they fall due keep the
// two materialisations the same; served, each keeps only the rows alive at
// the instant served.
func TestInsertionOrderIndependence(t *testing.T) {
	must := func(e Expr, err error) Expr {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	shapes := func(R, S *Base, f AggFunc, policy AggPolicy) map[string]Expr {
		m := passShapes(t, R, S, f, AggFunc{Kind: AggAvg, Col: 2}, policy)
		m["σ"] = must(NewSelect(ColConst{Col: 1, Op: OpGe, Const: value.Int(0)}, R))
		m["π"] = must(NewProject([]int{0, 2}, R))
		m["⋈"] = must(EquiJoin(R, 0, S, 0))
		m["∪"] = must(NewUnion(R, S))
		m["∩"] = must(NewIntersect(R, S))
		return m
	}
	rng := rand.New(rand.NewSource(23))
	funcs := []AggFunc{{Kind: AggSum, Col: 2}, {Kind: AggAvg, Col: 2}, {Kind: AggMin, Col: 1}, countStar()}
	for round := 0; round < 6; round++ {
		R, S := passRel(rng, "R"), passRel(rng, "S")
		R.Rel.All(func(row relation.Row) {
			if rng.Intn(2) == 0 {
				S.Rel.Insert(row.Tuple, xtime.Time(1+rng.Intn(9)))
			}
		})
		// One group always holds four floats that expire together and sum
		// to 0, 0.2 or 0.3 by the order they are added in.
		for i, x := range []float64{1e16, 0.1, -1e16, 0.2} {
			R.Rel.Insert(tuple.T(value.Int(0), value.Int(int64(i)), value.Float(x)), 5)
		}
		R2, S2 := reinserted(t, rng, R), reinserted(t, rng, S)
		for _, f := range funcs {
			for _, policy := range []AggPolicy{PolicyNaive, PolicyNeutral, PolicyExact} {
				one, other := shapes(R, S, f, policy), shapes(R2, S2, f, policy)
				for name, e := range one {
					for _, tau := range []xtime.Time{0, 3, 6} {
						label := fmt.Sprintf("round %d, %s, %s at τ=%v", round, name, e, tau)
						a, err := Materialize(e, tau)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						b, err := Materialize(other[name], tau)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if a.Texp != b.Texp || a.Births.Len() != b.Births.Len() || a.Births.Next() != b.Births.Next() {
							t.Fatalf("%s: texp %v and %d births from %v under one history, %v and %d from %v under the other",
								label, a.Texp, a.Births.Len(), a.Births.Next(), b.Texp, b.Births.Len(), b.Births.Next())
						}
						if ab, bb := birthList(a.Births), birthList(b.Births); ab != bb {
							t.Fatalf("%s: births under one history\n%s\nunder the other\n%s", label, ab, bb)
						}
						for at := tau; at <= tau+10; at++ {
							ar, _ := a.Serve(at)
							br, _ := b.Serve(at)
							if !reltest.EqualAt(ar, br, at) || ar.Render(at) != br.Render(at) {
								t.Fatalf("%s: at %v one history gives\n%sthe other\n%s", label, at, ar.Render(at), br.Render(at))
							}
							if n, live := a.Rel.Len(), ar.CountAt(at); n != live {
								t.Fatalf("%s: served at %v, the store keeps %d rows for %d alive", label, at, n, live)
							}
						}
						ev, err := Evaluate(other[name], tau)
						if want := mustTexp(t, e, tau); err != nil || ev.Texp != want {
							t.Fatalf("%s: texp(e) = %v (%v) under the other history, %v under the first", label, ev.Texp, err, want)
						}
					}
				}
			}
		}
	}
}
