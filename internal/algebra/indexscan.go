package algebra

import (
	"fmt"
	"slices"
	"strings"

	"expdb/internal/index"
	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// IndexScan is the physical access path the cost-based planner may
// substitute for σ[pred](Base): instead of scanning the table it probes a
// secondary index attached to the base relation. Index entries carry the
// per-tuple texp, so the probe skips expired entries at read time —
// expired tuples are invisible exactly as in a scan, whether or not the
// lazy sweeper has removed them.
//
// Semantically IndexScan ≡ Select{Pred: Full, Child: Base}: same schema,
// same rows, same per-tuple expiration times, texp(e) = ∞ and validity
// [τ, ∞) (both sides of the equivalence are a monotonic operator over a
// base leaf). The result-cache key and validity stamping therefore work
// unchanged on indexed plans.
//
// The node holds the index NAME, not the structure: the index is resolved
// against the relation at evaluation time, under the table's read lock.
// If it was dropped, or an index of another kind or over other columns now
// carries the name, the node degrades to a scan filtered by Full — plans
// never go stale (a view keeps its plan for life), they just lose the
// speed-up.
type IndexScan struct {
	Base  *Base  // table leaf: locking, schema, fallback scan
	Index string // attached index name
	// Cols are the column positions the index covered when the probe was
	// planned; the probe runs only against an index that still covers
	// exactly these. Nil (a hand-built node) trusts the name.
	Cols []int

	// Equality probe (hash indexes only): EqKey is the pre-encoded probe
	// key — computed once at plan time as the set key of the constants, the
	// encoding index.Hash files entries under — and Eq holds the constant
	// values for display.
	EqKey string
	Eq    []value.Value

	// Range probe (ordered indexes): bounds over a prefix of the index
	// columns. A nil bound is unbounded on that side.
	Lo, Hi       []value.Value
	LoInc, HiInc bool

	// Residual is the conjunction of predicate parts the probe does not
	// cover, applied to every emitted row (True when the probe covers
	// everything). Full is the entire original predicate — the fallback
	// scan filter, equal to probe ∧ Residual.
	Residual Predicate
	Full     Predicate

	// children caches the one-element child slice so repeated Walks
	// (LockPlan on the query hot path) do not allocate.
	children []Expr
}

// NewIndexScan builds an index-scan node over base. The probe fields are
// set by the planner after construction.
func NewIndexScan(base *Base, indexName string, full, residual Predicate) *IndexScan {
	return &IndexScan{
		Base:     base,
		Index:    indexName,
		Full:     full,
		Residual: residual,
		children: []Expr{base},
	}
}

// Schema implements Expr.
func (s *IndexScan) Schema() tuple.Schema { return s.Base.Schema() }

// Monotonic implements Expr: σ over a base leaf is monotonic.
func (s *IndexScan) Monotonic() bool { return true }

// Children implements Expr. The base leaf is reported as the child so
// lock planning and per-operator recomputation see the table.
func (s *IndexScan) Children() []Expr {
	if s.children == nil {
		return []Expr{s.Base}
	}
	return s.children
}

// Stream implements Expr: probe the index and push the survivors.
// The caller holds the table's read lock (the Base child puts the table
// in the lock plan), which is what makes the probe safe against
// concurrent maintenance.
func (s *IndexScan) Stream(tau xtime.Time, emit func(relation.Row)) (xtime.Time, error) {
	if s.Probe(tau, func(e index.Entry) { emit(relation.Row{Tuple: e.Tuple, Texp: e.Texp}) }) {
		return xtime.Infinity, nil
	}
	// Index dropped (or re-created with an incompatible shape) since the
	// plan was built: degrade to the scan the node replaced.
	s.Base.scan(tau, s.Full, nil, emit)
	return xtime.Infinity, nil
}

// Probe hands fn every index entry alive at tau that the probe matches
// and the residual accepts — set key included, which is what lets a
// DELETE remove its victims without re-encoding them. It reports false,
// having emitted nothing, when the index is gone or no longer fits the
// probe; the caller then scans with Full. fn must not modify the
// relation.
func (s *IndexScan) Probe(tau xtime.Time, fn func(index.Entry)) bool {
	residual := compile(s.Residual)
	pass := func(e index.Entry) bool {
		if residual == nil || residual(e.Tuple) {
			fn(e)
		}
		return true
	}
	ix := s.Base.Rel.IndexNamed(s.Index)
	if ix == nil || s.Cols != nil && !slices.Equal(ix.Cols(), s.Cols) {
		return false
	}
	// EqKey tells a hash probe from a range probe: a plan made for one kind
	// must not run against a same-named index of the other.
	switch ix := ix.(type) {
	case *index.Hash:
		if s.EqKey != "" {
			ix.Probe(s.EqKey, tau, pass)
			return true
		}
	case *index.Ordered:
		if s.EqKey == "" {
			ix.Ascend(s.Lo, s.LoInc, s.Hi, s.HiInc, tau, pass)
			return true
		}
	}
	return false
}

func (s *IndexScan) String() string {
	if s.Residual != nil {
		if _, isTrue := s.Residual.(True); !isTrue {
			return fmt.Sprintf("σ[%s](%s)", s.Residual, s.Access())
		}
	}
	return s.Access()
}

// Access names the probe without its residual: ixscan[index bounds](table).
func (s *IndexScan) Access() string {
	var probe string
	switch {
	case s.EqKey != "":
		vals := make([]string, len(s.Eq))
		for i, v := range s.Eq {
			vals[i] = v.String()
		}
		probe = "=" + strings.Join(vals, ",")
	default:
		var b strings.Builder
		if s.Lo != nil {
			if s.LoInc {
				b.WriteString("≥")
			} else {
				b.WriteString(">")
			}
			for i, v := range s.Lo {
				if i > 0 {
					b.WriteString(",")
				}
				b.WriteString(v.String())
			}
		}
		if s.Hi != nil {
			if s.Lo != nil {
				b.WriteString(" ")
			}
			if s.HiInc {
				b.WriteString("≤")
			} else {
				b.WriteString("<")
			}
			for i, v := range s.Hi {
				if i > 0 {
					b.WriteString(",")
				}
				b.WriteString(v.String())
			}
		}
		probe = b.String()
	}
	return fmt.Sprintf("ixscan[%s %s](%s)", s.Index, probe, s.Base.Name)
}
