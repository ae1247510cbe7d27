package engine

import (
	"expdb/internal/metrics"
	"expdb/internal/trace"
	"expdb/internal/view"
	"expdb/internal/xtime"
)

// Metrics is the engine's hot-path instrumentation: atomic counters and
// fixed-bucket histograms (see internal/metrics). Counters are updated
// with single atomic adds inside the insert/delete/Advance paths — no
// locks, no allocations — and read via Engine.Metrics or the legacy
// Engine.Stats.
type Metrics struct {
	Inserts       metrics.Counter
	Deletes       metrics.Counter
	TuplesExpired metrics.Counter
	TriggersFired metrics.Counter
	Sweeps        metrics.Counter
	Advances      metrics.Counter
	// TriggerLagTicks is Σ (fire tick − expiration tick); non-zero only
	// under lazy sweeping, where it measures the §3.2 latency trade-off.
	TriggerLagTicks metrics.Counter
	// Checkpoints counts completed durability checkpoints (snapshot
	// written, older log generations removed).
	Checkpoints metrics.Counter
	// DiskFaults counts transitions into disk-degraded mode.
	DiskFaults metrics.Counter
	// DiskRetries counts background WAL re-open attempts while degraded.
	DiskRetries metrics.Counter
	// DiskReclamations counts ENOSPC reclamation sweeps (forced expiry
	// of dead tuples before a compacting checkpoint).
	DiskReclamations metrics.Counter
	// DiskRecoveries counts successful exits from degraded mode (plus
	// inline ENOSPC recoveries that never entered it).
	DiskRecoveries metrics.Counter
	// AdvanceNanos is the wall-clock latency distribution of Advance calls
	// — the engine heartbeat the paper wants at hardware speed.
	AdvanceNanos metrics.Histogram
	// ExpiryBatch is the distribution of tuples physically expired per
	// eager batch or lazy sweep tick.
	ExpiryBatch metrics.Histogram
}

// WALMetricsSnapshot is the write-ahead log block of a metrics snapshot.
type WALMetricsSnapshot struct {
	Appends       int64 `json:"appends"`
	AppendedBytes int64 `json:"appended_bytes"`
	Syncs         int64 `json:"syncs"`
	SyncNanos     int64 `json:"sync_nanos"`
	Rotations     int64 `json:"rotations"`
	// Poisoned carries the sticky WAL error ("" while healthy).
	Poisoned string `json:"poisoned,omitempty"`
	// Degraded carries the failure that put the engine in read-only
	// degraded mode ("" while healthy); see Engine.DurabilityState.
	Degraded string `json:"degraded,omitempty"`
}

// SchedulerMetrics describes the expiration bookkeeping in a snapshot.
type SchedulerMetrics struct {
	// Pending is the number of (texp, key) pairs across every table's
	// texp-ordered index, stale pairs included; each table keeps its share
	// within 2×rows + 1024.
	Pending int `json:"pending"`
}

// ViewMetrics is the per-view slice of a snapshot: the recompute vs patch
// vs cache-hit split that makes the paper's avoided work measurable, and how
// stale the view is. A view is maintained under expiration only, so what it
// does not show is what was written since it was materialised:
// BaseWritesSince is how far its base tables' write epochs have moved since
// then — the number to read before deciding to REFRESH. PendingPatches
// counts the births it holds and has not applied yet: the future it will
// show without recomputing.
type ViewMetrics struct {
	Reads           int                       `json:"reads"`
	CacheHits       int                       `json:"cache_hits"` // served from the materialisation
	Recomputations  int                       `json:"recomputations"`
	PatchesApplied  int                       `json:"patches_applied"`
	Moved           int                       `json:"moved"`
	BudgetEvictions int                       `json:"budget_evictions"`
	PendingPatches  int                       `json:"pending_patches"`
	BaseWritesSince uint64                    `json:"base_writes_since"`
	Texp            xtime.Time                `json:"texp"`
	MaterializedAt  xtime.Time                `json:"materialized_at"`
	RecomputeNanos  metrics.HistogramSnapshot `json:"recompute_nanos"`
}

// MetricsSnapshot is a point-in-time copy of every engine metric, shaped
// for JSON export (the expsyncd -metrics endpoint serves it verbatim) and
// for test assertions.
type MetricsSnapshot struct {
	Now              xtime.Time                `json:"now"`
	Inserts          int64                     `json:"inserts"`
	Deletes          int64                     `json:"deletes"`
	TuplesExpired    int64                     `json:"tuples_expired"`
	TriggersFired    int64                     `json:"triggers_fired"`
	Sweeps           int64                     `json:"sweeps"`
	Advances         int64                     `json:"advances"`
	TriggerLagTicks  int64                     `json:"trigger_lag_ticks"`
	Checkpoints      int64                     `json:"checkpoints,omitempty"`
	DiskFaults       int64                     `json:"disk_faults,omitempty"`
	DiskRetries      int64                     `json:"disk_retries,omitempty"`
	DiskReclamations int64                     `json:"disk_reclamations,omitempty"`
	DiskRecoveries   int64                     `json:"disk_recoveries,omitempty"`
	AdvanceNanos     metrics.HistogramSnapshot `json:"advance_nanos"`
	ExpiryBatch      metrics.HistogramSnapshot `json:"expiry_batch_size"`
	Scheduler        SchedulerMetrics          `json:"scheduler"`
	// Events and Traces report the observability rings themselves —
	// drops and high-water tell an operator whether the retained window
	// is still trustworthy.
	Events trace.RingStats `json:"events"`
	Traces trace.RingStats `json:"traces"`
	// WAL is nil for a memory-only engine.
	WAL *WALMetricsSnapshot `json:"wal,omitempty"`
	// ResultCache is nil when the validity-interval result cache is
	// disabled (SetResultCache(0)).
	ResultCache *ResultCacheMetrics    `json:"result_cache,omitempty"`
	Views       map[string]ViewMetrics `json:"views,omitempty"`
}

// Metrics returns a consistent-enough snapshot of the engine's counters,
// histograms, expiration bookkeeping and per-view maintenance split. It
// takes the engine leaf lock, each table's read lock (briefly, one at a
// time) and each view's own lock, so it is safe to call from a monitoring
// goroutine at any frequency.
func (e *Engine) Metrics() MetricsSnapshot {
	s := MetricsSnapshot{
		Inserts:          e.m.Inserts.Load(),
		Deletes:          e.m.Deletes.Load(),
		TuplesExpired:    e.m.TuplesExpired.Load(),
		TriggersFired:    e.m.TriggersFired.Load(),
		Sweeps:           e.m.Sweeps.Load(),
		Advances:         e.m.Advances.Load(),
		TriggerLagTicks:  e.m.TriggerLagTicks.Load(),
		Checkpoints:      e.m.Checkpoints.Load(),
		DiskFaults:       e.m.DiskFaults.Load(),
		DiskRetries:      e.m.DiskRetries.Load(),
		DiskReclamations: e.m.DiskReclamations.Load(),
		DiskRecoveries:   e.m.DiskRecoveries.Load(),
		AdvanceNanos:     e.m.AdvanceNanos.Snapshot(),
		ExpiryBatch:      e.m.ExpiryBatch.Snapshot(),
		Events:           e.events.Stats(),
		Traces:           e.traces.Stats(),
	}
	e.mu.RLock()
	log := e.log
	e.mu.RUnlock()
	if log != nil {
		wm := log.Metrics()
		s.WAL = &WALMetricsSnapshot{
			Appends:       wm.Appends.Load(),
			AppendedBytes: wm.AppendedBytes.Load(),
			Syncs:         wm.Syncs.Load(),
			SyncNanos:     wm.SyncNanos.Load(),
			Rotations:     wm.Rotations.Load(),
		}
		if err := e.WALErr(); err != nil {
			s.WAL.Poisoned = err.Error()
		}
		if err := e.DegradedErr(); err != nil {
			s.WAL.Degraded = err.Error()
		}
	}
	s.Now = e.Now()
	s.Scheduler.Pending = e.texpPending()

	if rc, err := e.ResultCacheStats(); err == nil {
		s.ResultCache = &rc
	}

	for _, name := range e.cat.Views() {
		v, err := e.cat.View(name)
		if err != nil {
			continue // dropped since listing
		}
		if s.Views == nil {
			s.Views = make(map[string]ViewMetrics)
		}
		s.Views[name] = e.snapshotView(v)
	}
	return s
}

// ViewMetrics returns the named view's slice of a snapshot.
func (e *Engine) ViewMetrics(name string) (ViewMetrics, error) {
	v, err := e.cat.View(name)
	if err != nil {
		return ViewMetrics{}, err
	}
	return e.snapshotView(v), nil
}

// snapshotView copies one view's counters under its lock.
func (e *Engine) snapshotView(v *view.View) ViewMetrics {
	v.Lock()
	defer v.Unlock()
	st := v.Stats()
	return ViewMetrics{
		Reads:           st.Reads,
		CacheHits:       st.ServedFromMat,
		Recomputations:  st.Recomputations,
		PatchesApplied:  st.PatchesApplied,
		Moved:           st.Moved,
		BudgetEvictions: st.BudgetEvictions,
		PendingPatches:  v.PendingPatches(),
		BaseWritesSince: e.viewStaleness(v, false),
		Texp:            v.Texp(),
		MaterializedAt:  v.MaterializedAt(),
		RecomputeNanos:  v.RecomputeLatency(),
	}
}
