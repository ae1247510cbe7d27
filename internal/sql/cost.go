package sql

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"expdb/internal/algebra"
	"expdb/internal/catalog"
	"expdb/internal/index"
	"expdb/internal/tuple"
	"expdb/internal/value"
)

// Cost-based physical planning. The logical plan that planSelect lowers —
// and that PushDownSelections canonicalises into the result-cache key —
// stays untouched; this file picks a physical shape for it: index probes
// instead of scans where a secondary index covers a sargable predicate,
// a join order for chains of three or more tables, and the build side of
// every hash join. All substitutions are result- and expiration-time-
// preserving, which is what lets indexed and unindexed engines share
// cache keys and answer strings byte-for-byte.
//
// Costs are unit-less "rows touched" estimates: a scan costs the table's
// cardinality, a hash probe costs one bucket lookup plus the estimated
// output, an ordered probe adds a logarithmic descent. Estimates start
// from fixed selectivity guesses and are overridden by per-node actuals
// harvested from EXPLAIN ANALYZE runs in the same session, so a session
// that has analyzed a query plans its next occurrence from observed
// cardinalities.

// Selectivity guesses, used when no actuals are available.
const (
	selEq    = 0.05 // column = constant
	selRange = 0.30 // column </<=/>/>= constant
	selNe    = 0.90 // column <> constant
	selJoin  = 0.10 // cross-argument equi-join conjunct
	selOther = 0.50 // anything the estimator cannot decompose
)

// Choice records one costed decision and keeps its candidates; only
// String, which EXPLAIN alone calls, formats them. It is either the access
// path of σ[pred](table) or the order of a reordered join chain.
type Choice struct {
	sel   *algebra.Select
	paths []accessPath   // sel's candidates in the order costed, the scan first
	chain []algebra.Expr // a join chain's terms, in the chosen order
	cost  float64        // the chain's estimated cost
}

// accessPath is one costed way to read σ[pred](table): a probe, or the scan.
type accessPath struct {
	probe *algebra.IndexScan // nil: the scan
	cost  float64
}

// String is the decision as EXPLAIN lists it, one more line per rejected
// path: the paths are replayed as chooseAccess costed them.
func (c Choice) String() string {
	if c.sel == nil {
		names := make([]string, len(c.chain))
		for i, t := range c.chain {
			names[i] = termName(t)
		}
		return fmt.Sprintf("join chain (%d tables) → order %s (est cost %.1f)\n    rejected: original left-deep order",
			len(c.chain), strings.Join(names, " ⋈ "), c.cost)
	}
	desc := func(a accessPath) string {
		name := "scan(" + c.sel.Child.String() + ")"
		if a.probe != nil {
			name = a.probe.Access()
		}
		return fmt.Sprintf("%s (est cost %.1f)", name, a.cost)
	}
	best, rejected := c.paths[0], ""
	for _, a := range c.paths[1:] {
		if a.cost < best.cost {
			a, best = best, a
		}
		rejected += "\n    rejected: " + desc(a)
	}
	return fmt.Sprintf("%s → %s%s", c.sel, desc(best), rejected)
}

// planner carries one optimization pass: the session (for catalog
// cardinalities and harvested actuals) and the decisions taken.
type planner struct {
	s       *Session
	choices []Choice
}

// optimize lowers a logical expression to its physical plan. The input
// must already be selection-pushed (Session.Physical, the only caller, hands
// over the canonical rewrite computed for the cache key). Returns the
// physical plan and the costed decisions for EXPLAIN.
func (s *Session) optimize(rewritten algebra.Expr) (algebra.Expr, []Choice) {
	p := &planner{s: s}
	return p.rewrite(rewritten), p.choices
}

// rewrite descends the logical tree substituting physical operators.
func (p *planner) rewrite(e algebra.Expr) algebra.Expr {
	switch n := e.(type) {
	case *algebra.Select:
		if base, ok := n.Child.(*algebra.Base); ok {
			return p.chooseAccess(n, base)
		}
	case *algebra.Join:
		if out, ok := p.reorderChain(n); ok {
			return out
		}
		left, right := p.rewrite(n.Left), p.rewrite(n.Right)
		return &algebra.Join{Pred: n.Pred, Left: left, Right: right,
			BuildLeft: p.estCard(left) < p.estCard(right)}
	}
	kids := e.Children()
	if len(kids) == 0 {
		return e
	}
	newKids := make([]algebra.Expr, len(kids))
	changed := false
	for i, k := range kids {
		newKids[i] = p.rewrite(k)
		changed = changed || newKids[i] != k
	}
	if !changed {
		return e
	}
	out, err := algebra.ReplaceChildren(e, newKids)
	if err != nil {
		return e // unknown shape: keep the logical form, still correct
	}
	return out
}

// chooseAccess costs every access path for σ[pred](base) — the streaming
// scan and one probe per attached index whose columns the predicate
// saturates — and returns the cheapest. The probe's residual predicate is
// the conjunction of parts the index does not cover, so the emitted rows
// are exactly the scan's.
func (p *planner) chooseAccess(sel *algebra.Select, base *algebra.Base) algebra.Expr {
	n := p.tableCard(base.Name)
	conjs := algebra.Conjuncts(sel.Pred)
	var paths []accessPath
	best := accessPath{cost: math.Max(n, 1)}
	defs := p.s.eng.Catalog().TableIndexes(base.Name)
	for _, def := range defs {
		ix, cost, ok := p.buildProbe(sel, base, def, conjs, n)
		if !ok {
			continue
		}
		if paths == nil {
			paths = append(make([]accessPath, 0, 1+len(defs)), best)
		}
		paths = append(paths, accessPath{ix, cost})
		if cost < best.cost {
			best = accessPath{ix, cost}
		}
	}
	if paths != nil {
		p.choices = append(p.choices, Choice{sel: sel, paths: paths})
	}
	if best.probe == nil {
		return sel
	}
	return best.probe
}

// buildProbe tries to turn the conjuncts into a probe of one index: a
// full-column equality probe for hash indexes, an equality-prefix plus
// optional range bounds for ordered indexes. ok is false when the
// predicate does not saturate the index.
func (p *planner) buildProbe(sel *algebra.Select, base *algebra.Base, def *catalog.IndexDef, conjs []algebra.Predicate, n float64) (*algebra.IndexScan, float64, bool) {
	used := make([]bool, len(conjs))
	// eqFor finds an unused "col = const" conjunct for col.
	eqFor := func(col int) (value.Value, int, bool) {
		for i, c := range conjs {
			if used[i] {
				continue
			}
			if cc, ok := c.(algebra.ColConst); ok && cc.Col == col && cc.Op == algebra.OpEq {
				return cc.Const, i, true
			}
		}
		return value.Value{}, 0, false
	}

	ix := algebra.NewIndexScan(base, def.Name, sel.Pred, nil)
	ix.Cols = def.Cols
	sl := 1.0
	switch def.Kind {
	case index.KindHash:
		// Hash probes need an equality on every index column.
		eq := make([]value.Value, len(def.Cols))
		for i, col := range def.Cols {
			v, ci, ok := eqFor(col)
			if !ok {
				return nil, 0, false
			}
			eq[i] = v
			used[ci] = true
			sl *= selEq
		}
		ix.Eq = eq
		// Pre-encode the probe key with the same encoding index
		// maintenance uses on the stored tuples' key columns.
		ix.EqKey = tuple.Tuple(eq).Key()

	case index.KindOrdered:
		// Equality prefix, then at most one range column.
		var lo, hi []value.Value
		loInc, hiInc := true, true
		matched := 0
		for _, col := range def.Cols {
			if v, ci, ok := eqFor(col); ok {
				lo = append(lo, v)
				hi = append(hi, v)
				used[ci] = true
				sl *= selEq
				matched++
				continue
			}
			// No equality: look for range bounds on this column, then stop
			// extending the prefix.
			ranged := false
			for i, c := range conjs {
				if used[i] {
					continue
				}
				cc, ok := c.(algebra.ColConst)
				if !ok || cc.Col != col {
					continue
				}
				switch cc.Op {
				case algebra.OpGt, algebra.OpGe:
					if len(lo) == matched { // first lower bound only
						lo = append(lo, cc.Const)
						loInc = cc.Op == algebra.OpGe
						used[i] = true
						ranged = true
					}
				case algebra.OpLt, algebra.OpLe:
					if len(hi) == matched { // first upper bound only
						hi = append(hi, cc.Const)
						hiInc = cc.Op == algebra.OpLe
						used[i] = true
						ranged = true
					}
				}
			}
			if ranged {
				sl *= selRange
				matched++
			}
			break
		}
		if matched == 0 {
			return nil, 0, false
		}
		ix.Lo, ix.Hi = lo, hi
		ix.LoInc, ix.HiInc = loInc, hiInc

	default:
		return nil, 0, false
	}

	// Residual: every conjunct the probe did not consume.
	var rest []algebra.Predicate
	for i, c := range conjs {
		if !used[i] {
			rest = append(rest, c)
		}
	}
	ix.Residual = algebra.AndOf(rest)

	out := math.Max(n*sl, 0)
	if act, ok := p.actual(ix); ok {
		out = act
	}
	if def.Kind == index.KindOrdered {
		return ix, math.Log2(n+2) + out, true // tree descent + range walk
	}
	return ix, 1 + out, true // bucket lookup + emitted rows
}

// reorderChain flattens a left-deep join chain of three or more terms,
// greedily reorders it cheapest-first (connected terms before Cartesian
// jumps), re-attaches every join conjunct at the earliest join that
// covers its columns, and restores the original column order with a
// permutation projection. Per-tuple expiration times survive: a joined
// tuple's texp is the min over its participants in any join order, and
// the bijective projection forwards it unchanged.
func (p *planner) reorderChain(j *algebra.Join) (algebra.Expr, bool) {
	terms, preds, ok := flattenJoin(j)
	if !ok || len(terms) < 3 {
		return nil, false
	}
	// Column geometry of the original order.
	n := len(terms)
	offset := make([]int, n)
	arity := make([]int, n)
	total := 0
	for i, t := range terms {
		offset[i] = total
		arity[i] = t.Schema().Arity()
		total += arity[i]
	}
	termOf := func(col int) int {
		for i := n - 1; i >= 0; i-- {
			if col >= offset[i] {
				return i
			}
		}
		return 0
	}
	// Decompose every join predicate into conjuncts with their term sets.
	type conjunct struct {
		pred     algebra.Predicate
		refs     []int // term indices referenced
		attached bool
	}
	var conjs []conjunct
	for _, pr := range preds {
		for _, c := range algebra.Conjuncts(pr) {
			var refs []int
			if !algebra.Cols(c, func(col int) bool {
				if t := termOf(col); !slices.Contains(refs, t) {
					refs = append(refs, t)
				}
				return true
			}) {
				return nil, false
			}
			conjs = append(conjs, conjunct{pred: c, refs: refs})
		}
	}

	// Physical form and cardinality of each term.
	phys := make([]algebra.Expr, n)
	cards := make([]float64, n)
	for i, t := range terms {
		phys[i] = p.rewrite(t)
		cards[i] = p.estCard(phys[i])
	}

	// Greedy order: start from the smallest term; extend with the smallest
	// term connected to the prefix by some join conjunct, falling back to
	// the smallest remaining term when nothing connects.
	inPrefix := make([]bool, n)
	order := make([]int, 0, n)
	pick := func() int {
		best, bestCard, bestConn := -1, math.Inf(1), false
		for cand := 0; cand < n; cand++ {
			if inPrefix[cand] {
				continue
			}
			conn := false
			if len(order) > 0 {
				for _, c := range conjs {
					touchesCand, touchesPrefix, outside := false, false, false
					for _, r := range c.refs {
						switch {
						case r == cand:
							touchesCand = true
						case inPrefix[r]:
							touchesPrefix = true
						default:
							outside = true
						}
					}
					if touchesCand && touchesPrefix && !outside {
						conn = true
						break
					}
				}
			}
			if conn && !bestConn || (conn == bestConn && cards[cand] < bestCard) {
				best, bestCard, bestConn = cand, cards[cand], conn
			}
		}
		return best
	}
	for len(order) < n {
		t := pick()
		order = append(order, t)
		inPrefix[t] = true
	}

	identity := true
	for i, t := range order {
		if t != i {
			identity = false
			break
		}
	}

	// New column geometry, and a remap from original global columns.
	newOffset := make([]int, n)
	pos := 0
	for _, t := range order {
		newOffset[t] = pos
		pos += arity[t]
	}
	remap := func(col int) (int, bool) {
		t := termOf(col)
		return newOffset[t] + (col - offset[t]), true
	}

	// Rebuild the chain, attaching each conjunct at the first join whose
	// prefix covers its terms.
	covered := make([]bool, n)
	covered[order[0]] = true
	acc := phys[order[0]]
	accCard := cards[order[0]]
	for k := 1; k < n; k++ {
		t := order[k]
		covered[t] = true
		var attach []algebra.Predicate
		for i := range conjs {
			if conjs[i].attached {
				continue
			}
			all := true
			for _, r := range conjs[i].refs {
				if !covered[r] {
					all = false
					break
				}
			}
			if !all {
				continue
			}
			mapped, _ := algebra.MapCols(conjs[i].pred, remap)
			attach = append(attach, mapped)
			conjs[i].attached = true
		}
		pred := algebra.AndOf(attach)
		acc = &algebra.Join{Pred: pred, Left: acc, Right: phys[t],
			BuildLeft: accCard < cards[t]}
		accCard = joinCard(accCard, cards[t], pred)
	}

	var out algebra.Expr = acc
	if !identity {
		cols := make([]int, total)
		for g := 0; g < total; g++ {
			cols[g], _ = remap(g)
		}
		out = &algebra.Project{Cols: cols, Child: acc}

		chain := make([]algebra.Expr, n)
		for i, t := range order {
			chain[i] = terms[t]
		}
		p.choices = append(p.choices, Choice{chain: chain, cost: accCard})
	}
	return out, true
}

// flattenJoin unrolls a left-deep join chain into its terms and per-level
// predicates. Predicates of a left-deep chain are already expressed in
// the coordinates of the full concatenation prefix, so they transfer to
// the flattened view unchanged.
func flattenJoin(e algebra.Expr) ([]algebra.Expr, []algebra.Predicate, bool) {
	j, ok := e.(*algebra.Join)
	if !ok {
		return []algebra.Expr{e}, nil, true
	}
	terms, preds, ok := flattenJoin(j.Left)
	if !ok {
		return nil, nil, false
	}
	if _, nested := j.Right.(*algebra.Join); nested {
		return nil, nil, false // not left-deep: leave as-is
	}
	return append(terms, j.Right), append(preds, j.Pred), true
}

// termName labels a join term for the reorder note.
func termName(e algebra.Expr) string {
	switch n := e.(type) {
	case *algebra.Base:
		return n.Name
	case *algebra.Select:
		return termName(n.Child)
	case *algebra.IndexScan:
		return n.Base.Name
	default:
		return "(" + fmt.Sprintf("%T", e) + ")"
	}
}

// estCard estimates an expression's output cardinality, preferring the
// session's harvested EXPLAIN ANALYZE actuals over guesses.
func (p *planner) estCard(e algebra.Expr) float64 {
	if act, ok := p.actual(e); ok {
		return act
	}
	switch n := e.(type) {
	case *algebra.Base:
		return p.tableCard(n.Name)
	case *algebra.Select:
		return p.estCard(n.Child) * predSel(n.Pred)
	case *algebra.IndexScan:
		full := n.Full
		if full == nil {
			return p.tableCard(n.Base.Name)
		}
		return p.tableCard(n.Base.Name) * predSel(full)
	case *algebra.Project:
		return p.estCard(n.Child)
	case *algebra.Join:
		return joinCard(p.estCard(n.Left), p.estCard(n.Right), n.Pred)
	case *algebra.Product:
		return p.estCard(n.Left) * p.estCard(n.Right)
	case *algebra.Union:
		return p.estCard(n.Left) + p.estCard(n.Right)
	case *algebra.Intersect:
		return math.Min(p.estCard(n.Left), p.estCard(n.Right))
	case *algebra.Diff:
		return p.estCard(n.Left)
	default:
		return 100
	}
}

func (p *planner) tableCard(name string) float64 {
	if c, ok := p.s.eng.TableCard(name); ok {
		return float64(c)
	}
	return 1000 // view snapshot or unknown relation
}

// actual is e's output cardinality harvested by EXPLAIN ANALYZE, keyed by
// its plan string — printed only once the session has harvested some.
func (p *planner) actual(e algebra.Expr) (float64, bool) {
	if p.s.actuals == nil {
		return 0, false
	}
	n, ok := p.s.actuals[e.String()]
	return float64(n), ok
}

// joinCard estimates |L ⋈_p R|, floored at one row so chained estimates
// do not collapse to zero.
func joinCard(l, r float64, pred algebra.Predicate) float64 {
	return math.Max(l*r*predSel(pred), 1)
}

// predSel estimates a predicate's selectivity from its shape.
func predSel(p algebra.Predicate) float64 {
	switch q := p.(type) {
	case algebra.True:
		return 1
	case algebra.ColConst:
		switch q.Op {
		case algebra.OpEq:
			return selEq
		case algebra.OpNe:
			return selNe
		default:
			return selRange
		}
	case algebra.ColCol:
		if q.Op == algebra.OpEq {
			return selJoin
		}
		return selRange
	case algebra.And:
		s := 1.0
		for _, c := range q.Preds {
			s *= predSel(c)
		}
		return s
	case algebra.Or:
		miss := 1.0
		for _, c := range q.Preds {
			miss *= 1 - predSel(c)
		}
		return 1 - miss
	case algebra.Not:
		return 1 - predSel(q.Pred)
	default:
		return selOther
	}
}
