package algebra

import (
	"fmt"
	"strings"

	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// Select is σexp_p(R), formula (1): result tuples are the unexpired tuples
// satisfying p and retain their expiration times.
type Select struct {
	Pred  Predicate
	Child Expr
}

// NewSelect builds a selection, validating the predicate against the
// child schema.
func NewSelect(pred Predicate, child Expr) (*Select, error) {
	if pred.MaxCol() >= child.Schema().Arity() {
		return nil, fmt.Errorf("algebra: predicate %s references column beyond schema %s",
			pred, child.Schema())
	}
	return &Select{Pred: pred, Child: child}, nil
}

// Schema implements Expr.
func (s *Select) Schema() tuple.Schema { return s.Child.Schema() }

// Monotonic implements Expr.
func (s *Select) Monotonic() bool { return s.Child.Monotonic() }

// Stream implements Expr, formula (1): the child's rows pass through the
// compiled predicate on the calling goroutine.
func (s *Select) Stream(tau xtime.Time, emit func(relation.Row)) (xtime.Time, error) {
	holds := compile(s.Pred)
	if holds == nil {
		return s.Child.Stream(tau, emit)
	}
	return s.Child.Stream(tau, func(row relation.Row) {
		if holds(row.Tuple) {
			emit(row)
		}
	})
}

// Children implements Expr.
func (s *Select) Children() []Expr { return []Expr{s.Child} }

func (s *Select) String() string {
	return fmt.Sprintf("σ[%s](%s)", s.Pred, s.Child)
}

// Project is πexp_{j1..jn}(R), formula (3): duplicate elimination assigns
// each result tuple the maximum expiration time of all its duplicates.
type Project struct {
	Cols  []int // 0-based
	Child Expr
}

// NewProject builds a projection onto the given 0-based columns.
func NewProject(cols []int, child Expr) (*Project, error) {
	for _, c := range cols {
		if c < 0 || c >= child.Schema().Arity() {
			return nil, fmt.Errorf("algebra: projection column %d out of range for %s",
				c+1, child.Schema())
		}
	}
	return &Project{Cols: cols, Child: child}, nil
}

// Schema implements Expr.
func (p *Project) Schema() tuple.Schema { return p.Child.Schema().Project(p.Cols) }

// Monotonic implements Expr.
func (p *Project) Monotonic() bool { return p.Child.Monotonic() }

// Stream implements Expr, formula (3): project each row, pass texp through.
// Duplicate merging (max) happens at the collector. Onto the grouping
// attributes and aggregate values of an aggregation — GROUP BY — it is one
// row per partition.
func (p *Project) Stream(tau xtime.Time, emit func(relation.Row)) (xtime.Time, error) {
	if a, ok := p.Grouped(); ok {
		texp, _, err := a.streamGroups(tau, p.Cols, emit, nil)
		return texp, err
	}
	return p.Child.Stream(tau, func(row relation.Row) {
		emit(relation.Row{Tuple: row.Tuple.Project(p.Cols), Texp: row.Texp})
	})
}

// Grouped returns p's child when p is the GROUP BY shape: a projection of an
// aggregation onto its grouping attributes and aggregate values only.
func (p *Project) Grouped() (*Agg, bool) {
	a, ok := p.Child.(*Agg)
	return a, ok && a.groupsOnly(p.Cols)
}

// Children implements Expr.
func (p *Project) Children() []Expr { return []Expr{p.Child} }

func (p *Project) String() string {
	cols := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		cols[i] = fmt.Sprintf("%d", c+1)
	}
	return fmt.Sprintf("π[%s](%s)", strings.Join(cols, ","), p.Child)
}

// Product is R ×exp S, formula (2): result tuples are concatenations of
// unexpired argument tuples and carry the minimum of the two lifetimes.
type Product struct {
	Left, Right Expr
}

// NewProduct builds a Cartesian product.
func NewProduct(left, right Expr) *Product { return &Product{Left: left, Right: right} }

// Schema implements Expr.
func (p *Product) Schema() tuple.Schema { return p.Left.Schema().Concat(p.Right.Schema()) }

// Monotonic implements Expr.
func (p *Product) Monotonic() bool { return p.Left.Monotonic() && p.Right.Monotonic() }

// Stream implements Expr, formula (2): the right argument is collected once
// (deduplicated), then left rows stream through and pair with it.
func (p *Product) Stream(tau xtime.Time, emit func(relation.Row)) (xtime.Time, error) {
	r, rt, err := collect(p.Right, tau)
	if err != nil {
		return 0, err
	}
	rrows := r.Rows(tau)
	lt, err := p.Left.Stream(tau, func(lr relation.Row) {
		for _, rr := range rrows {
			emit(relation.Row{Tuple: lr.Tuple.Concat(rr.Tuple), Texp: xtime.Min(lr.Texp, rr.Texp)})
		}
	})
	return xtime.Min(lt, rt), err
}

// Children implements Expr.
func (p *Product) Children() []Expr { return []Expr{p.Left, p.Right} }

func (p *Product) String() string { return fmt.Sprintf("(%s × %s)", p.Left, p.Right) }

// Union is R ∪exp S, formula (4): union-compatible arguments; a tuple in
// both carries the maximum of the two expiration times.
type Union struct {
	Left, Right Expr
}

// NewUnion builds a union after checking union compatibility.
func NewUnion(left, right Expr) (*Union, error) {
	if !left.Schema().UnionCompatible(right.Schema()) {
		return nil, fmt.Errorf("algebra: union of incompatible schemas %s and %s",
			left.Schema(), right.Schema())
	}
	return &Union{Left: left, Right: right}, nil
}

// Schema implements Expr. The left schema names win, as in SQL.
func (u *Union) Schema() tuple.Schema { return u.Left.Schema() }

// Monotonic implements Expr.
func (u *Union) Monotonic() bool { return u.Left.Monotonic() && u.Right.Monotonic() }

// Stream implements Expr, formula (4): both argument streams are forwarded;
// the max-texp rule for tuples in both arguments is the collector's
// duplicate handling.
func (u *Union) Stream(tau xtime.Time, emit func(relation.Row)) (xtime.Time, error) {
	lt, err := u.Left.Stream(tau, emit)
	if err != nil {
		return 0, err
	}
	rt, err := u.Right.Stream(tau, emit)
	return xtime.Min(lt, rt), err
}

// Children implements Expr.
func (u *Union) Children() []Expr { return []Expr{u.Left, u.Right} }

func (u *Union) String() string { return fmt.Sprintf("(%s ∪ %s)", u.Left, u.Right) }

// Join is the derived operator R ⋈exp_p S = σexp_p′(R ×exp S), formula
// (5). It is represented as its own node so that evaluation can use a hash
// join for equality predicates instead of materialising the product; the
// expiration-time semantics coincide with the rewrite by construction.
type Join struct {
	Pred        Predicate // over the concatenated schema
	Left, Right Expr
	// BuildLeft makes the hash join build its index over the LEFT input
	// and stream the right one through it — the cost-based planner sets
	// it when the left side is the smaller. The result (rows, expiration
	// times, concatenation order) is identical either way; only the
	// memory/probe roles swap.
	BuildLeft bool
}

// NewJoin builds a join whose predicate ranges over the concatenated
// schema of left and right.
func NewJoin(pred Predicate, left, right Expr) (*Join, error) {
	arity := left.Schema().Arity() + right.Schema().Arity()
	if pred.MaxCol() >= arity {
		return nil, fmt.Errorf("algebra: join predicate %s references column beyond combined arity %d",
			pred, arity)
	}
	return &Join{Pred: pred, Left: left, Right: right}, nil
}

// EquiJoin builds a join on leftCol = rightCol (0-based, each relative to
// its own argument).
func EquiJoin(left Expr, leftCol int, right Expr, rightCol int) (*Join, error) {
	return NewJoin(ColCol{Left: leftCol, Right: left.Schema().Arity() + rightCol, Op: OpEq},
		left, right)
}

// Schema implements Expr.
func (j *Join) Schema() tuple.Schema { return j.Left.Schema().Concat(j.Right.Schema()) }

// Monotonic implements Expr.
func (j *Join) Monotonic() bool { return j.Left.Monotonic() && j.Right.Monotonic() }

// equiCols extracts the (leftCol, rightCol) pairs of top-level equality
// conjuncts usable by a hash join; ok is false when none exist.
func (j *Join) equiCols() (left, right []int, rest []Predicate, ok bool) {
	la := j.Left.Schema().Arity()
	conjuncts := []Predicate{j.Pred}
	if and, isAnd := j.Pred.(And); isAnd {
		conjuncts = and.Preds
	}
	for _, c := range conjuncts {
		if cc, isCC := c.(ColCol); isCC && cc.Op == OpEq {
			lo, hi := min(cc.Left, cc.Right), max(cc.Left, cc.Right)
			if lo < la && hi >= la {
				left = append(left, lo)
				right = append(right, hi-la)
				continue
			}
		}
		rest = append(rest, c)
	}
	return left, right, rest, len(left) > 0
}

// Stream implements Expr, formula (5): the right (build) side is collected
// and hash-indexed on the equi-join columns, then left (probe) rows stream
// through the index. Each probe encodes its key into one buffer that belongs
// to this call — concurrent evaluations of a shared plan never see each
// other's — and looks it up without building a string, so the probe side
// allocates per result row, not per row probed. Without equality conjuncts
// it degrades to a streamed nested loop over the hoisted build rows.
func (j *Join) Stream(tau xtime.Time, emit func(relation.Row)) (xtime.Time, error) {
	build, probeSide := j.Right, j.Left
	if j.BuildLeft {
		build, probeSide = j.Left, j.Right
	}
	b, bt, err := collect(build, tau)
	if err != nil {
		return 0, err
	}
	leftCols, rightCols, rest, ok := j.equiCols()
	// candidates yields the build rows a probe row may pair with; holds is
	// what of the predicate is left to test on each pair.
	var candidates func(pr relation.Row) []relation.Row
	var holds func(tuple.Tuple) bool
	if ok {
		buildCols, probeCols := rightCols, leftCols
		if j.BuildLeft {
			buildCols, probeCols = leftCols, rightCols
		}
		idx := b.BuildIndex(tau, buildCols)
		var key []byte
		candidates = func(pr relation.Row) (brows []relation.Row) {
			brows, key = idx.Probe(pr.Tuple, probeCols, key)
			return brows
		}
		holds = compile(And{Preds: rest})
	} else {
		brows := b.Rows(tau)
		candidates = func(relation.Row) []relation.Row { return brows }
		holds = compile(j.Pred)
	}
	pt, err := probeSide.Stream(tau, func(pr relation.Row) {
		for _, br := range candidates(pr) {
			// The concatenation order is always left ++ right, whichever
			// side was hoisted.
			l, r := pr.Tuple, br.Tuple
			if j.BuildLeft {
				l, r = r, l
			}
			if t := l.Concat(r); holds == nil || holds(t) {
				emit(relation.Row{Tuple: t, Texp: xtime.Min(pr.Texp, br.Texp)})
			}
		}
	})
	return xtime.Min(bt, pt), err
}

// Children implements Expr.
func (j *Join) Children() []Expr { return []Expr{j.Left, j.Right} }

func (j *Join) String() string {
	return fmt.Sprintf("(%s ⋈[%s] %s)", j.Left, j.Pred, j.Right)
}

// Intersect is the derived operator R ∩exp S, formula (6): tuples in the
// intersection are assigned the minima of the participating expiration
// times (the new expiration times are created by the inner Cartesian
// product of the defining rewrite).
type Intersect struct {
	Left, Right Expr
}

// NewIntersect builds an intersection after checking union compatibility.
func NewIntersect(left, right Expr) (*Intersect, error) {
	if !left.Schema().UnionCompatible(right.Schema()) {
		return nil, fmt.Errorf("algebra: intersection of incompatible schemas %s and %s",
			left.Schema(), right.Schema())
	}
	return &Intersect{Left: left, Right: right}, nil
}

// Schema implements Expr.
func (x *Intersect) Schema() tuple.Schema { return x.Left.Schema() }

// Monotonic implements Expr.
func (x *Intersect) Monotonic() bool { return x.Left.Monotonic() && x.Right.Monotonic() }

// Stream implements Expr, formula (6): the right argument is collected for
// membership probes, then left rows stream through.
func (x *Intersect) Stream(tau xtime.Time, emit func(relation.Row)) (xtime.Time, error) {
	r, rt, err := collect(x.Right, tau)
	if err != nil {
		return 0, err
	}
	lt, err := x.Left.Stream(tau, func(row relation.Row) {
		if t, ok := r.Texp(row.Tuple); ok && t > tau {
			emit(relation.Row{Tuple: row.Tuple, Texp: xtime.Min(row.Texp, t)})
		}
	})
	return xtime.Min(lt, rt), err
}

// Children implements Expr.
func (x *Intersect) Children() []Expr { return []Expr{x.Left, x.Right} }

func (x *Intersect) String() string { return fmt.Sprintf("(%s ∩ %s)", x.Left, x.Right) }
