package algebra

import (
	"fmt"
	"slices"

	"expdb/internal/interval"
	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// Diff is the non-monotonic primitive R −exp S, formula (10): a tuple
// r ∈ expτ(R) with r ∉ expτ(S) retains texp_R(r).
//
// Difference makes materialisations invalid when a "critical" tuple — one
// in both R and S with texp_R(t) > texp_S(t), case (3a) of Table 2 —
// expires in S: at that instant the tuple should (re)appear in the result,
// which the materialisation cannot know. texp(e) is formula (11); the
// validity intervals refine formula (12); and the helper relation of
// Theorem 3 turns those events into patches, removing the need to
// recompute entirely.
//
// The result rows, the critical tuples and the helper relation are three
// readings of one anti-join, so one walk over the arguments (run) yields
// whichever of them a caller asks for.
type Diff struct {
	Left, Right Expr
}

// NewDiff builds a difference after checking union compatibility.
func NewDiff(left, right Expr) (*Diff, error) {
	if !left.Schema().UnionCompatible(right.Schema()) {
		return nil, fmt.Errorf("algebra: difference of incompatible schemas %s and %s",
			left.Schema(), right.Schema())
	}
	return &Diff{Left: left, Right: right}, nil
}

// Schema implements Expr.
func (d *Diff) Schema() tuple.Schema { return d.Left.Schema() }

// Monotonic implements Expr: difference is non-monotonic.
func (d *Diff) Monotonic() bool { return false }

// run is the one function that walks the difference's arguments, each
// once. R is collected first (a duplicate's lower texp_R must not decide
// whether a tuple is critical), then S into a set that R's rows probe. S is
// read only at R's tuples (formula (10)), so R − S = R − (S ⋉ R): when S
// scans arrays (arrayBase) under a column where every value of R is an INT,
// only the rows of S that share one with R are built. A tuple of R alive in
// S belongs to the helper relation of Theorem 3 and goes to helper; the
// others are the result, formula (10), a set, and go to emit. run returns
// min(texp(R), texp(S)).
func (d *Diff) run(tau xtime.Time, emit func(relation.Row), helper func(CriticalRow)) (xtime.Time, error) {
	// Streams carry rows alive at tau only, so neither holds an expired tuple.
	r, rt, err := collect(d.Left, tau)
	if err != nil {
		return 0, err
	}
	s, st, err := d.right(r, tau)
	if err != nil {
		return 0, err
	}
	r.AliveAt(tau, func(row relation.Row) {
		if inS, ok := s.Texp(row.Tuple); ok {
			helper(CriticalRow{Tuple: row.Tuple, InS: inS, InR: row.Texp})
		} else {
			emit(row)
		}
	})
	return xtime.Min(rt, st), nil
}

// right collects S at tau, only S ⋉ R when it can (run).
func (d *Diff) right(r *relation.Relation, tau xtime.Time) (*relation.Relation, xtime.Time, error) {
	s, emit := sink(d.Right)
	for c := range d.Right.Schema().Arity() {
		if arrayBase(d.Right, c, tau, r, c, emit) {
			return s, xtime.Infinity, nil
		}
	}
	return collect(d.Right, tau)
}

// CriticalRow describes one tuple alive in both R and S — a row of the
// helper relation of Theorem 3. It belongs to the critical set
// {t | t ∈ R ∧ t ∈ S ∧ texp_R(t) > texp_S(t)} when it outlives its twin in
// S: the tuple should then appear in the result during [InS, InR[. That makes
// it the record of any birth (see Births): a tuple, when it appears, and the
// expiration time it appears with.
type CriticalRow struct {
	Tuple tuple.Tuple
	InS   xtime.Time // texp_S(t): when it expires in S and must appear
	InR   xtime.Time // texp_R(t): when it expires in R and must vanish again
}

// critical reports case (3a) of Table 2. The other helper rows would be
// patched in already expired.
func (c CriticalRow) critical() bool { return c.InR > c.InS }

// Stream implements Expr, formulas (10) and (11):
//
//	texp(R − S) = min(texp(R), texp(S), min{texp_S(t) | t critical}).
func (d *Diff) Stream(tau xtime.Time, emit func(relation.Row)) (xtime.Time, error) {
	first := xtime.Infinity
	texp, err := d.run(tau, emit, func(h CriticalRow) {
		if h.critical() {
			first = xtime.Min(first, h.InS)
		}
	})
	return xtime.Min(texp, first), err
}

// criticalSet runs the difference keeping its critical rows, in no order.
// The second result is min(texp(R), texp(S)).
func (d *Diff) criticalSet(tau xtime.Time, emit func(relation.Row)) ([]CriticalRow, xtime.Time, error) {
	var crit []CriticalRow
	texp, err := d.run(tau, emit, func(h CriticalRow) {
		if h.critical() {
			crit = append(crit, h)
		}
	})
	return crit, texp, err
}

// CriticalSet returns the critical rows at time tau, the set §3.1's
// rewrites aim to shrink, in (texp_S, tuple) order.
func (d *Diff) CriticalSet(tau xtime.Time) ([]CriticalRow, error) {
	crit, _, err := d.criticalSet(tau, func(relation.Row) {})
	slices.SortFunc(crit, byBirth)
	return crit, err
}

// validity is the difference's own part of Validity. The paper's closed
// form (12) removes the single interval [min texp_S, max texp_S[ spanned by
// the critical tuples; this refines it to the exact invalid set
// ∪ [texp_S(t), texp_R(t)[ over critical tuples t — each critical tuple
// makes the materialisation wrong precisely while it should be visible but
// is not. The result is a superset of (12)'s validity (never smaller), and
// matches brute-force recomputation exactly, which the property tests
// verify.
func (d *Diff) validity(tau xtime.Time) (interval.Set, error) {
	crit, _, err := d.criticalSet(tau, func(relation.Row) {})
	invalid := make([]interval.Interval, 0, len(crit))
	for _, c := range crit {
		invalid = append(invalid, interval.Interval{Start: c.InS, End: c.InR})
	}
	return interval.From(tau).Subtract(interval.NewSet(invalid...)), err
}

// Children implements Expr.
func (d *Diff) Children() []Expr { return []Expr{d.Left, d.Right} }

func (d *Diff) String() string { return fmt.Sprintf("(%s − %s)", d.Left, d.Right) }
