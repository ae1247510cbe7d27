// Package view implements materialised query results that are maintained
// independently of their base relations — the paper's central use case
// (§1): once computed, a result should stay in synchrony with the
// database by looking only at its own expiration times, recomputing (or
// patching) only when the expression invalidates.
//
// A View tracks the materialisation, its expression expiration time
// texp(e), its Schrödinger validity intervals I(e) (§3.3–3.4), and — for a
// root whose future is determined, a difference (Theorem 3) or a GROUP BY
// (§3.4.1) — the rows it will show next (algebra.Births), which remove the
// need for recomputation entirely.
package view

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"expdb/internal/algebra"
	"expdb/internal/interval"
	"expdb/internal/metrics"
	"expdb/internal/relation"
	"expdb/internal/trace"
	"expdb/internal/xtime"
)

// ErrInvalid is returned by Read when the materialisation is invalid at
// the requested time and the view's recovery policy is RecoverReject.
var ErrInvalid = errors.New("view: materialisation invalid at requested time")

// ErrInvalidRead is the public sentinel name for ErrInvalid; the two are
// the same error value, so errors.Is matches either.
var ErrInvalidRead = ErrInvalid

// ReadMode selects which validity notion gates reads from the
// materialisation.
type ReadMode uint8

const (
	// ModeTexp serves from the materialisation while τ < texp(e): the
	// single-expiration-time model of §2.
	ModeTexp ReadMode = iota
	// ModeInterval serves from the materialisation whenever τ lies in the
	// validity intervals I(e): the Schrödinger semantics of §3.3–3.4,
	// which recovers the periods after critical tuples have expired.
	ModeInterval
	// ModeAlwaysRecompute never serves from the materialisation. It
	// models the TTL-only baseline (expiring base data, views recomputed
	// on every read) that engines without algebraic expiration
	// propagation are limited to.
	ModeAlwaysRecompute
)

// String names the mode.
func (m ReadMode) String() string {
	switch m {
	case ModeTexp:
		return "texp"
	case ModeInterval:
		return "interval"
	default:
		return "always-recompute"
	}
}

// Recovery selects what Read does when the materialisation is invalid at
// the requested time.
type Recovery uint8

const (
	// RecoverRecompute re-materialises the expression at the requested
	// time (§3.1's default option).
	RecoverRecompute Recovery = iota
	// RecoverReject returns ErrInvalid, leaving the decision to the
	// caller — the behaviour of a disconnected node that cannot reach the
	// base data.
	RecoverReject
	// RecoverBackward answers from the most recent past instant at which
	// the materialisation was valid ("moving the query backward in time",
	// §3.3: a slightly outdated result). Requires ModeInterval.
	RecoverBackward
	// RecoverForward answers as of the next future instant at which the
	// materialisation becomes valid again ("delaying the query", §3.3).
	// Requires ModeInterval.
	RecoverForward
)

// String names the recovery policy.
func (r Recovery) String() string {
	switch r {
	case RecoverRecompute:
		return "recompute"
	case RecoverReject:
		return "reject"
	case RecoverBackward:
		return "backward"
	default:
		return "forward"
	}
}

// Source says where a Read result came from.
type Source uint8

const (
	// SourceMaterialised: served from the maintained materialisation.
	SourceMaterialised Source = iota
	// SourceRecomputed: the expression was re-evaluated against base data.
	SourceRecomputed
	// SourceMovedBackward / SourceMovedForward: served from the
	// materialisation at a shifted instant (§3.3).
	SourceMovedBackward
	SourceMovedForward
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceMaterialised:
		return "materialised"
	case SourceRecomputed:
		return "recomputed"
	case SourceMovedBackward:
		return "moved-backward"
	default:
		return "moved-forward"
	}
}

// ReadInfo describes how a read was answered. It is built exactly once,
// under the view lock, and flows unchanged through the engine to the
// façade — every layer sees the same provenance the invalidation
// analysis computed.
type ReadInfo struct {
	Source Source
	// At is the instant the answer reflects; differs from the requested
	// time only for the moved policies.
	At xtime.Time
	// PatchesApplied counts the births this read applied to the
	// materialisation (for a difference, the Theorem 3 patches).
	PatchesApplied int
	// Texp is texp(e) of the materialisation that answered the read
	// (refreshed first if the read recomputed): with its future stored, when
	// the view will next recompute, not when the rows returned stop being
	// the answer — that is Validity.
	Texp xtime.Time
	// Validity is the uniform stamp every read surface carries — the same
	// currency Result exposes for queries, so callers reason about view
	// reads and cached queries identically: the rows returned are the answer
	// from the materialisation (or the last birth applied to it) until
	// texp(e) or the next pending birth, whichever comes first.
	Validity interval.Validity
	// Cached reports the answer was served from the materialisation with
	// zero base-data work (Source == SourceMaterialised).
	Cached bool
	// TraceID ties the read to the lifecycle events it emitted; the
	// engine stamps it after Read returns.
	TraceID trace.ID
}

// Stats accumulates maintenance counters, the currency experiments E6/E8
// report. Reads split exactly three ways — ServedFromMat (cache hit),
// Recomputations and Moved — plus rejected reads, so the avoided-work
// ratio of the paper's invalidation analysis is directly readable.
type Stats struct {
	Reads          int // total Read calls
	ServedFromMat  int // answered without touching base data (cache hits)
	Recomputations int // full re-evaluations of the expression
	PatchesApplied int // births applied to the materialisation
	Moved          int // reads answered at a shifted instant
	// BudgetEvictions counts births not kept because WithPatchBudget
	// bounded them (§3.4.2): future recomputation traded for memory.
	BudgetEvictions int
}

// AggMetrics aggregates maintenance counters across every view that
// shares it (the engine passes one instance to all views it creates).
// Unlike the per-view Stats — plain ints guarded by the view lock — these
// are atomic, so a monitoring sampler can read the fleet-wide totals
// every tick without touching any view lock.
type AggMetrics struct {
	Reads           metrics.Counter
	ServedFromMat   metrics.Counter
	Recomputations  metrics.Counter
	PatchesApplied  metrics.Counter
	Moved           metrics.Counter
	BudgetEvictions metrics.Counter
}

// WithAggregate mirrors the view's counters into agg (shared across
// views; nil leaves the view a private one).
func WithAggregate(agg *AggMetrics) Option {
	return func(v *View) error {
		if agg != nil {
			v.agg = agg
		}
		return nil
	}
}

// View is a materialised expression with independent maintenance.
//
// Like relation.Relation, a View carries its own mutex but does not lock
// around its methods: Read and Materialize mutate view state, so
// concurrent users (the engine) serialise calls per view via Lock/Unlock
// while single-goroutine users pay nothing.
type View struct {
	mu       sync.Mutex
	name     string
	expr     algebra.Expr
	mode     ReadMode
	recovery Recovery
	patching bool

	ev       algebra.Evaluation // the materialisation; births kept when patching
	validity interval.Set
	budget   int // max births kept; 0 = unlimited (§3.4.2 trade-off)
	stats    Stats
	agg      *AggMetrics // cross-view totals, shared when WithAggregate gave them
	// recomputeNanos is the latency distribution of read-triggered full
	// recomputations — the work the expiration metadata exists to avoid.
	recomputeNanos metrics.Histogram
}

// Option configures a View.
type Option func(*View) error

// WithMode sets the read mode (default ModeTexp).
func WithMode(m ReadMode) Option {
	return func(v *View) error {
		v.mode = m
		return nil
	}
}

// WithRecovery sets the recovery policy (default RecoverRecompute).
func WithRecovery(r Recovery) Option {
	return func(v *View) error {
		if (r == RecoverBackward || r == RecoverForward) && v.mode != ModeInterval {
			return fmt.Errorf("view %s: recovery %s requires ModeInterval", v.name, r)
		}
		v.recovery = r
		return nil
	}
}

// WithPatching makes the view keep its future: beside the rows of the
// materialisation, the rows it will show next, applied as they fall due. The
// expression's root must be a difference (Theorem 3's patches) or a GROUP BY
// under the exact policy (§3.4.1's future states) over monotonic arguments;
// the materialisation is then permanently maintainable (its expiration time
// becomes that of the arguments, ∞ over base relations).
func WithPatching() Option {
	return func(v *View) error {
		if !algebra.HasFuture(v.expr) {
			return fmt.Errorf("view %s: patching requires a difference or an exact GROUP BY over monotonic arguments at the root, have %s",
				v.name, v.expr)
		}
		v.patching = true
		return nil
	}
}

// WithPatchBudget keeps only the k births falling due soonest — the §3.4.2
// "classic trade-off decision between saving future communication and
// time/space as well as up-front communication cost". The materialisation
// then stays maintainable until the first birth that was not kept, at which
// point the usual recovery policy applies. Implies WithPatching's
// requirements.
func WithPatchBudget(k int) Option {
	return func(v *View) error {
		if k <= 0 {
			return fmt.Errorf("view %s: patch budget must be positive", v.name)
		}
		if err := WithPatching()(v); err != nil {
			return err
		}
		v.budget = k
		return nil
	}
}

// New builds a view over expr. Call Materialize before Read.
func New(name string, expr algebra.Expr, opts ...Option) (*View, error) {
	v := &View{name: name, expr: expr, agg: new(AggMetrics)}
	for _, opt := range opts {
		if err := opt(v); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// Name returns the view's name.
func (v *View) Name() string { return v.name }

// Lock serialises stateful operations (Read, Materialize)
// against the view. In the engine's lock hierarchy the view lock ranks
// above table locks: hold it before read-locking base relations.
func (v *View) Lock() { v.mu.Lock() }

// Unlock releases the view lock.
func (v *View) Unlock() { v.mu.Unlock() }

// Expr returns the view's expression.
func (v *View) Expr() algebra.Expr { return v.expr }

// Materialize (re)computes the view at time tau: one evaluation pass gives
// the rows, texp(e) and, for a view that keeps its future, the births.
// Interval mode alone walks the expression again, for I(e).
func (v *View) Materialize(tau xtime.Time) error {
	evaluate := algebra.Evaluate
	if v.patching {
		evaluate = algebra.Materialize
	}
	ev, err := evaluate(v.expr, tau)
	if err != nil {
		return err
	}
	// With every birth kept only the arguments' own expiration remains of
	// texp(e) (Theorem 3) — unless a budget bounds them (§3.4.2): then the
	// materialisation is good up to the first birth that did not fit.
	v.ev = ev
	if evicted := v.ev.Budget(v.budget); evicted > 0 {
		v.stats.BudgetEvictions += evicted
		v.agg.BudgetEvictions.Add(int64(evicted))
	}
	v.validity = interval.NewSet(interval.Interval{Start: tau, End: v.ev.Texp})
	if v.mode == ModeInterval && !v.patching {
		val, err := algebra.Validity(v.expr, tau)
		if err != nil {
			return err
		}
		v.validity = val
	}
	return nil
}

// Texp returns texp(e) for the current materialisation.
func (v *View) Texp() xtime.Time { return v.ev.Texp }

// MaterializedAt returns the time of the current materialisation.
func (v *View) MaterializedAt() xtime.Time { return v.ev.At }

// Validity returns the validity intervals of the current materialisation.
func (v *View) Validity() interval.Set { return v.validity }

// Stats returns the maintenance counters so far.
func (v *View) Stats() Stats { return v.stats }

// RecomputeLatency returns the distribution of read-triggered full
// recomputation latencies, in nanoseconds.
func (v *View) RecomputeLatency() metrics.HistogramSnapshot {
	return v.recomputeNanos.Snapshot()
}

// PendingPatches returns the number of births not yet applied.
func (v *View) PendingPatches() int { return v.ev.Births.Len() }

// valid reports whether the materialisation may answer a read at tau
// without recovery.
func (v *View) valid(tau xtime.Time) bool {
	return tau >= v.ev.At && v.mode != ModeAlwaysRecompute && v.validity.Contains(tau)
}

// Read answers a query against the view at time tau: a snapshot of the
// result (per-tuple expiration applied) plus how it was obtained. Expired
// tuples never escape — the paper's requirement that expiration is
// transparent to querying users.
func (v *View) Read(tau xtime.Time) (*relation.Relation, ReadInfo, error) {
	if v.ev.Rel == nil {
		return nil, ReadInfo{}, fmt.Errorf("view %s: not materialised", v.name)
	}
	v.stats.Reads++
	v.agg.Reads.Inc()
	info, err := v.resolve(tau)
	if err != nil {
		return nil, ReadInfo{}, err
	}
	// Stamped after serving, so a recomputing read reports the refreshed
	// texp(e), not the one that just invalidated, and the window of the
	// births just applied.
	rel, applied := v.ev.Serve(info.At)
	info.PatchesApplied, info.Texp, info.Validity = applied, v.ev.Texp, v.ev.Validity()
	if !info.Validity.Contains(info.At) {
		// Interval mode answered from a later stretch of the validity set
		// than the first: the stamp is the stretch holding that instant.
		for _, iv := range v.validity.Intervals() {
			if iv.Contains(info.At) {
				info.Validity = interval.Validity{At: iv.Start, ValidUntil: iv.End}
			}
		}
	}
	info.Cached = info.Source == SourceMaterialised
	// The one place a read is counted, from the ReadInfo it returns, so the
	// counters and the provenance cannot diverge.
	switch info.Source {
	case SourceMaterialised:
		v.stats.ServedFromMat++
		v.agg.ServedFromMat.Inc()
	case SourceRecomputed:
		v.stats.Recomputations++
		v.agg.Recomputations.Inc()
	default:
		v.stats.Moved++
		v.agg.Moved.Inc()
	}
	if info.PatchesApplied > 0 {
		v.stats.PatchesApplied += info.PatchesApplied
		v.agg.PatchesApplied.Add(int64(info.PatchesApplied))
	}
	return rel, info, nil
}

// resolve decides how a read at tau is answered — from the materialisation,
// from it at a moved instant, or after recomputing it, which resolve does —
// and reports that as the Source and At of the read's one ReadInfo.
func (v *View) resolve(tau xtime.Time) (ReadInfo, error) {
	info := ReadInfo{At: tau}
	if v.valid(tau) {
		return info, nil // SourceMaterialised
	}
	switch v.recovery {
	case RecoverReject:
		return info, fmt.Errorf("%w: %s at %v (valid %s)", ErrInvalid, v.name, tau, v.validity)
	case RecoverBackward:
		if at, ok := v.validity.PrevIn(tau); ok && at >= v.ev.At {
			info.Source, info.At = SourceMovedBackward, at
			return info, nil
		}
	case RecoverForward:
		if at, ok := v.validity.NextIn(tau); ok {
			info.Source, info.At = SourceMovedForward, at
			return info, nil
		}
	}
	// RecoverRecompute, or a moved policy with nowhere to move: fall back
	// to re-materialising.
	start := time.Now()
	if err := v.Materialize(tau); err != nil {
		return info, err
	}
	v.recomputeNanos.Observe(time.Since(start).Nanoseconds())
	info.Source = SourceRecomputed
	return info, nil
}

// NeedsRecomputation reports whether a read at tau could not be served
// from the materialisation.
func (v *View) NeedsRecomputation(tau xtime.Time) bool {
	return v.ev.Rel == nil || !v.valid(tau)
}
