package sql

import (
	"fmt"
	"strings"
	"time"

	"expdb/internal/algebra"
	"expdb/internal/interval"
	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// analyzed wraps one algebra node for EXPLAIN ANALYZE. The wrapper keeps
// two handles on the node: orig, the untouched original (used for
// labels, the validity derivation and — crucially — Children, so the
// engine's lock discovery still walks the real tree down to its Base
// leaves), and inner, the node rebuilt over wrapped children, which is
// what Stream actually runs so every operator's work flows through its
// wrapper.
type analyzed struct {
	orig  algebra.Expr
	inner algebra.Expr
	kids  []*analyzed
	// group is the aggregation of a GROUP BY projection: it runs inside the
	// projection's inner, not by itself, and shows the rows it streamed there.
	group *analyzed

	ran     bool
	rowsIn  int           // alive rows flowing in (a base leaf: physical rows scanned)
	rowsOut int           // alive rows produced at the evaluation instant
	expired int           // expired tuples filtered at this node
	texp    xtime.Time    // texp(e) the run derived, under the query's locks
	wall    time.Duration // cumulative, children included — the SQL EXPLAIN ANALYZE convention
}

// instrument builds the wrapper tree bottom-up. ANALYZE must measure the
// plan that a SELECT would actually run, so two shapes are wrapped whole:
// IndexScan, because rebuilding it over a wrapped Base would degrade the
// probe to its scan fallback (ReplaceChildren only keeps the probe when the
// child is the literal *Base), and a GROUP BY projection, which streams one
// row per partition only over the *Agg itself — wrapping resumes below the
// aggregation.
func instrument(e algebra.Expr) (*analyzed, error) {
	a := &analyzed{orig: e, inner: e}
	switch n := e.(type) {
	case *algebra.IndexScan:
		return a, nil
	case *algebra.Project:
		if agg, ok := n.Grouped(); ok {
			g, err := instrument(agg)
			if err != nil {
				return nil, err
			}
			a.group, a.kids = g, []*analyzed{g}
			a.inner, err = algebra.ReplaceChildren(e, []algebra.Expr{g.inner})
			return a, err
		}
	}
	children := e.Children()
	if len(children) == 0 {
		return a, nil
	}
	wrapped := make([]algebra.Expr, len(children))
	for i, c := range children {
		k, err := instrument(c)
		if err != nil {
			return nil, err
		}
		a.kids = append(a.kids, k)
		wrapped[i] = k
	}
	inner, err := algebra.ReplaceChildren(e, wrapped)
	if err != nil {
		return nil, err
	}
	a.inner = inner
	return a, nil
}

// Schema implements algebra.Expr.
func (a *analyzed) Schema() tuple.Schema { return a.orig.Schema() }

// Monotonic implements algebra.Expr.
func (a *analyzed) Monotonic() bool { return a.orig.Monotonic() }

// Children returns the ORIGINAL node's children, so algebra.Walk (and
// with it the engine's base-relation lock discovery) sees the real tree.
func (a *analyzed) Children() []algebra.Expr { return a.orig.Children() }

// String implements algebra.Expr.
func (a *analyzed) String() string { return a.orig.String() }

// Stream runs the node and records its actuals: it collects a.inner, so
// that rowsOut counts the deduplicated result a materialisation holds, and
// replays the collected rows into emit. Expired-filtered counts surface at
// Base leaves (the instant's dead-but-present tuples a lazy sweeper has not
// removed yet); interior operators only ever see rows already alive at tau,
// matching the paper's transparency requirement.
func (a *analyzed) Stream(tau xtime.Time, emit func(relation.Row)) (xtime.Time, error) {
	start := time.Now()
	out, streamed := relation.New(a.Schema()), 0
	texp, err := a.inner.Stream(tau, func(row relation.Row) {
		streamed++
		out.InsertOwnedRow(row)
	})
	wall := time.Since(start)
	if err != nil {
		return 0, err
	}
	if a.group != nil {
		a.group.record(wall, texp, streamed)
	}
	a.record(wall, texp, out.CountAt(tau))
	out.AliveAt(tau, emit)
	return texp, nil
}

// record sets the actuals of a node that ran for wall and produced rowsOut
// rows; its children have recorded theirs.
func (a *analyzed) record(wall time.Duration, texp xtime.Time, rowsOut int) {
	a.ran, a.wall, a.texp, a.rowsOut = true, wall, texp, rowsOut
	switch n := a.orig.(type) {
	case *algebra.Base:
		a.rowsIn = n.Rel.Len() // safe: the engine holds this base's read lock
		a.expired = a.rowsIn - a.rowsOut
	case *algebra.IndexScan:
		// The probe emits only alive, matching entries; expired index
		// entries are skipped inside the index, not filtered here.
		a.rowsIn = a.rowsOut
	default:
		a.rowsIn = 0
		for _, k := range a.kids {
			a.rowsIn += k.rowsOut
		}
	}
}

// execExplainAnalyze executes the physical plan through the wrapper
// tree and renders the plan annotated with actuals. The validity intervals
// and the execution, which yields texp(e), happen inside one
// Engine.Inspect lock session, so they describe the same frozen instant.
// ANALYZE probes the cache state under the plan's key without serving from
// it, because its purpose is the actuals.
func (s *Session) execExplainAnalyze(p *Plan) (*Result, error) {
	phys := p.Physical
	var cacheLine string
	if p.Key == "" {
		cacheLine = "uncacheable (plan embeds a view snapshot)"
	} else {
		switch probe := s.eng.CacheProbe(p.Key); probe {
		case "hit":
			cacheLine = "hit (a SELECT would be served from the result cache, zero re-evaluation)"
		case "patch":
			// The probe takes no table lock, so it cannot test an EXCEPT's
			// right-side Δ against its left: that test may still re-evaluate.
			cacheLine = "patch (a SELECT would try to absorb the writes since into the cached answer; under EXCEPT, a right-side write the left holds re-evaluates)"
		case "disabled":
			cacheLine = "disabled"
		default: // cold, expired, epoch-stale
			cacheLine = "miss (" + probe + ")"
		}
	}
	root, err := instrument(phys)
	if err != nil {
		return nil, err
	}
	sp := s.span.Child("analyze")
	var (
		rel      *relation.Relation
		validity interval.Set
		now      xtime.Time
	)
	err = s.eng.Inspect(root, func(snap xtime.Time) error {
		now = snap
		err := p.expiredAt(now)
		if err != nil {
			return err
		}
		if validity, err = p.validity(now); err != nil {
			return err
		}
		rel, err = algebra.EvalStream(root, now)
		return err
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	// Feed the observed cardinalities back to the cost model: the next
	// plan for these fragments starts from measured rows, not guesses.
	s.harvestActuals(root)
	var b strings.Builder
	p.header(&b)
	fmt.Fprintf(&b, "as-of:     t=%s (execution snapshot; plan and actual derivations share it)\n", now)
	fmt.Fprintf(&b, "monotonic: %v\n", phys.Monotonic())
	fmt.Fprintf(&b, "texp(e):   %s (plan = actual)\n", xtime.Min(root.texp, p.Until))
	fmt.Fprintf(&b, "validity:  %s\n", validity)
	fmt.Fprintf(&b, "cache:     %s\n", cacheLine)
	fmt.Fprintf(&b, "actual:    %d row(s), wall %s, trace %s\n", root.rowsOut, root.wall, s.tid)
	p.accessPaths(&b)
	b.WriteString("tree:\n")
	analyzeNode(&b, root, "", "")
	return &Result{Rel: rel, At: now, Msg: strings.TrimRight(b.String(), "\n")}, nil
}

// harvestActuals records each executed node's observed output
// cardinality under its plan string, for the cost model's use.
func (s *Session) harvestActuals(a *analyzed) {
	if !a.ran {
		return
	}
	if s.actuals == nil {
		s.actuals = make(map[string]int)
	}
	s.actuals[a.orig.String()] = a.rowsOut
	for _, k := range a.kids {
		s.harvestActuals(k)
	}
}

// analyzeNode renders one wrapper node: the plan annotations explainNode
// prints, followed by the node's actuals.
func analyzeNode(b *strings.Builder, a *analyzed, prefix, childPrefix string) {
	mono := "non-monotonic"
	if a.orig.Monotonic() {
		mono = "monotonic"
	}
	texp := "?"
	if a.ran {
		texp = a.texp.String()
	}
	fmt.Fprintf(b, "%s%s  [%s, texp(e)=%s%s] (actual: rows in=%d out=%d, expired-filtered=%d, wall=%s)\n",
		prefix, nodeLabel(a.orig), mono, texp, nodePolicy(a.orig),
		a.rowsIn, a.rowsOut, a.expired, a.wall)
	for i, k := range a.kids {
		connector, indent := "├─ ", "│  "
		if i == len(a.kids)-1 {
			connector, indent = "└─ ", "   "
		}
		analyzeNode(b, k, childPrefix+connector, childPrefix+indent)
	}
}
