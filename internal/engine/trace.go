package engine

import (
	"time"

	"expdb/internal/algebra"
	"expdb/internal/relation"
	"expdb/internal/trace"
	"expdb/internal/view"
	"expdb/internal/xtime"
)

// Default capacities of the per-operation observability sinks. Both are
// rings: old entries are dropped (and counted) once the window fills, so
// memory stays bounded no matter how long the engine runs.
const (
	// DefaultEventLogCapacity is the lifecycle-event window. At ~100
	// bytes per event the default ring costs ~100 KiB.
	DefaultEventLogCapacity = 1024
	// DefaultTraceLogCapacity is the slow-query window. Traces carry
	// span trees, so the ring is kept small.
	DefaultTraceLogCapacity = 64
)

// WithEventLogCapacity sizes the lifecycle-event ring (default
// DefaultEventLogCapacity).
func WithEventLogCapacity(n int) Option {
	return func(e *Engine) { e.events = trace.NewLog(n) }
}

// WithSlowQueryThreshold enables the slow-query log: any SQL statement
// whose wall time reaches d has its full span tree recorded (SHOW
// TRACES, DB.Traces, /debug/traces). Zero — the default — disables it.
func WithSlowQueryThreshold(d time.Duration) Option {
	return func(e *Engine) { e.slowNanos.Store(d.Nanoseconds()) }
}

// Events returns the engine's lifecycle-event log.
func (e *Engine) Events() *trace.Ring[trace.Event] { return e.events }

// Traces returns the engine's slow-query log.
func (e *Engine) Traces() *trace.Ring[trace.Trace] { return e.traces }

// SlowQueryThreshold returns the current slow-query threshold (0 = off).
func (e *Engine) SlowQueryThreshold() time.Duration {
	return time.Duration(e.slowNanos.Load())
}

// SetSlowQueryThreshold changes the slow-query threshold at runtime.
func (e *Engine) SetSlowQueryThreshold(d time.Duration) {
	e.slowNanos.Store(d.Nanoseconds())
}

// Inspect runs fn with expr's base relations read-locked, handing it the
// clock reading taken under those locks. Plan inspection (EXPLAIN's
// texp/validity derivations) thereby sees one consistent snapshot — the
// clock cannot advance and no tuple can expire mid-derivation.
func (e *Engine) Inspect(expr algebra.Expr, fn func(now xtime.Time) error) error {
	var relArr [4]*relation.Relation
	rels := algebra.LockPlan(expr, relArr[:0])
	rlockRels(rels)
	defer runlockRels(rels)
	e.mu.RLock()
	now := e.now
	e.mu.RUnlock()
	return fn(now)
}

// emitReadEvents derives the lifecycle events of one view read from its
// authoritative ReadInfo — the same value DB.ReadView returns, so the
// event log and the caller cannot disagree about provenance.
func (e *Engine) emitReadEvents(name string, now xtime.Time, info view.ReadInfo, evicted int) {
	if info.PatchesApplied > 0 {
		e.events.Emit(trace.Event{
			Trace: info.TraceID, Kind: trace.EvViewPatch, Name: name,
			Tick: now, Texp: info.Texp, Count: int64(info.PatchesApplied),
		})
	}
	var kind trace.EventKind
	switch info.Source {
	case view.SourceMaterialised:
		kind = trace.EvViewCacheHit
	case view.SourceRecomputed:
		kind = trace.EvViewRecompute
	default:
		kind = trace.EvViewMoved
	}
	e.events.Emit(trace.Event{
		Trace: info.TraceID, Kind: kind, Name: name, Tick: now, Texp: info.Texp,
	})
	if evicted > 0 {
		e.events.Emit(trace.Event{
			Trace: info.TraceID, Kind: trace.EvBudgetEvict, Name: name,
			Tick: now, Count: int64(evicted),
		})
	}
}
