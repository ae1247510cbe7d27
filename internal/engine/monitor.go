package engine

import (
	"errors"
	"time"

	"expdb/internal/monitor"
	"expdb/internal/trace"
	"expdb/internal/view"
	"expdb/internal/wal"
)

// Monitor wiring: the engine owns a monitor.Monitor when WithMonitor is
// given, feeding it three ways. History series are registered against
// the engine's atomic counters (and one gauge that read-locks each table
// for its texp-index size), so a sampler tick stays allocation-free. The
// SLO tracker is fed inline from the Advance pipeline — per-tuple
// dispatch lag at expiry, routed to the catch-up series when the advance
// consumed the recovery trace ID — and the health checks below hand the
// watchdog the engine-owned failure conditions (poisoned WAL, pending
// recovery catch-up). Monitor lifecycle (Start/Stop) belongs to the embedder: the
// facade starts it after OpenDurability and stops it on Close.

// WithMonitor enables continuous monitoring with the given options.
func WithMonitor(opts monitor.Options) Option {
	return func(e *Engine) { e.monOpts = &opts }
}

// Monitor returns the engine's monitor, or nil when WithMonitor was not
// given.
func (e *Engine) Monitor() *monitor.Monitor { return e.mon }

// slo returns the SLO tracker (nil when monitoring is off; all its
// observers are nil-safe).
func (e *Engine) slo() *monitor.SLO {
	if e.mon == nil {
		return nil
	}
	return e.mon.SLO
}

// WALErr returns the write-ahead log's sticky error: nil for a healthy
// (or memory-only, or cleanly closed) engine, the poisoning I/O failure
// otherwise. While the engine is in disk-degraded mode it returns nil:
// degraded is a readiness condition (reads stay correct, recovery is
// retrying) surfaced by the disk-degraded check, not a liveness
// failure that should get the process killed.
func (e *Engine) WALErr() error {
	e.mu.RLock()
	log := e.log
	degraded := e.degraded
	e.mu.RUnlock()
	if degraded {
		return nil
	}
	err := log.Err()
	if errors.Is(err, wal.ErrClosed) {
		return nil
	}
	return err
}

// CatchupPending reports that the engine recovered pre-crash state whose
// missed expirations have not yet been fired: true from a recovery that
// found data until the first Advance (the catch-up batch) consumes the
// recovery trace ID. A fresh-directory boot has nothing to catch up and
// is never pending.
func (e *Engine) CatchupPending() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.recoverTID != 0 && e.recovery != nil && e.recovery.Recovered
}

// Preallocated health-check errors (the watchdog evaluates every tick).
var errCatchupPending = errors.New("recovery catch-up batch not yet dispatched")

// initMonitor builds the monitor from the options WithMonitor recorded
// and registers the engine's health checks and history series. Called at
// the tail of New, after every option has applied.
func (e *Engine) initMonitor() {
	if e.monOpts == nil {
		return
	}
	e.mon = monitor.New(*e.monOpts, func(kind trace.EventKind, cause string, count int64) {
		e.events.Emit(trace.Event{
			Trace: trace.NextID(), Kind: kind, Name: cause,
			Tick: e.Now(), Count: count,
		})
	})
	e.mon.Health.AddCheck("wal", monitor.SevLiveness, e.WALErr)
	e.mon.Health.AddCheck("recovery-catchup", monitor.SevReadiness, func() error {
		if e.CatchupPending() {
			return errCatchupPending
		}
		return nil
	})
	// Degraded, not dead: /readyz flips to degraded while the disk is
	// down and background recovery retries; /healthz stays live because
	// every read the engine serves is still correct.
	e.mon.Health.AddCheck("disk-degraded", monitor.SevReadiness, e.DegradedErr)

	h := e.mon.History
	reg := func(name string, kind monitor.SeriesKind, load func() int64) {
		// Registration happens once, at construction, against fresh names;
		// an error here would be a programming bug, not a runtime state.
		if err := h.Register(name, kind, load); err != nil {
			panic(err)
		}
	}
	reg("engine_inserts", monitor.SeriesCounter, e.m.Inserts.Load)
	reg("engine_deletes", monitor.SeriesCounter, e.m.Deletes.Load)
	reg("engine_tuples_expired", monitor.SeriesCounter, e.m.TuplesExpired.Load)
	reg("engine_triggers_fired", monitor.SeriesCounter, e.m.TriggersFired.Load)
	reg("engine_sweeps", monitor.SeriesCounter, e.m.Sweeps.Load)
	reg("engine_advances", monitor.SeriesCounter, e.m.Advances.Load)
	reg("engine_checkpoints", monitor.SeriesCounter, e.m.Checkpoints.Load)
	reg("scheduler_pending", monitor.SeriesGauge, func() int64 { return int64(e.texpPending()) })
	reg("events_emitted", monitor.SeriesCounter, func() int64 { return int64(e.events.Total()) })
	reg("events_dropped", monitor.SeriesCounter, func() int64 { return int64(e.events.Dropped()) })
	reg("traces_recorded", monitor.SeriesCounter, func() int64 { return int64(e.traces.Total()) })
	reg("cache_hits", monitor.SeriesCounter, func() int64 { return e.cacheCounter(func(m *resultCacheMetrics) int64 { return m.Hits.Load() }) })
	reg("cache_misses", monitor.SeriesCounter, func() int64 { return e.cacheCounter(func(m *resultCacheMetrics) int64 { return m.Misses.Load() }) })
	reg("cache_invalidations", monitor.SeriesCounter, func() int64 {
		return e.cacheCounter(func(m *resultCacheMetrics) int64 { return m.Invalidations.Load() + m.EpochInvalidations.Load() })
	})
	reg("cache_evictions", monitor.SeriesCounter, func() int64 { return e.cacheCounter(func(m *resultCacheMetrics) int64 { return m.Evictions.Load() }) })
	reg("view_reads", monitor.SeriesCounter, e.viewAgg.Reads.Load)
	reg("view_cache_hits", monitor.SeriesCounter, e.viewAgg.ServedFromMat.Load)
	reg("view_recomputations", monitor.SeriesCounter, e.viewAgg.Recomputations.Load)
	reg("view_patches_applied", monitor.SeriesCounter, e.viewAgg.PatchesApplied.Load)
	reg("view_moved_reads", monitor.SeriesCounter, e.viewAgg.Moved.Load)
	reg("view_budget_evictions", monitor.SeriesCounter, e.viewAgg.BudgetEvictions.Load)
	reg("slo_dispatch_observed", monitor.SeriesCounter, func() int64 { return e.mon.SLO.DispatchLag.Count() })
	reg("slo_catchup_observed", monitor.SeriesCounter, func() int64 { return e.mon.SLO.CatchupLag.Count() })
	reg("slo_p99_lag_ticks", monitor.SeriesGauge, e.mon.SLO.P99Lag)
	reg("disk_faults", monitor.SeriesCounter, e.m.DiskFaults.Load)
	reg("disk_retries", monitor.SeriesCounter, e.m.DiskRetries.Load)
	reg("disk_reclamations", monitor.SeriesCounter, e.m.DiskReclamations.Load)
	reg("disk_recoveries", monitor.SeriesCounter, e.m.DiskRecoveries.Load)
}

// cacheCounter reads one counter off the live result cache (0 when the
// cache is disabled). The cache pointer may be swapped at runtime by
// SetResultCache; counters then restart, which the history sampler's
// delta logic tolerates as one clamped interval.
func (e *Engine) cacheCounter(read func(*resultCacheMetrics) int64) int64 {
	c := e.cache.Load()
	if c == nil {
		return 0
	}
	return read(&c.m)
}

// registerWALSeries adds the write-ahead log's counters to the history
// once durability is open (no-op when monitoring is off). The closures
// read the CURRENT log through e.walMetric rather than capturing the
// one passed in: disk recovery swaps e.log for a fresh one, and the
// series must follow it (the new log's counters restart at zero, which
// the sampler's delta logic tolerates as one clamped interval).
func (e *Engine) registerWALSeries(log *wal.Log) {
	if e.mon == nil || log == nil {
		return
	}
	h := e.mon.History
	// Ignore duplicate-name errors: a second OpenDurability is rejected
	// before reaching here, so these cannot collide in practice.
	_ = h.Register("wal_appends", monitor.SeriesCounter, func() int64 {
		return e.walMetric(func(m *wal.Metrics) int64 { return m.Appends.Load() })
	})
	_ = h.Register("wal_appended_bytes", monitor.SeriesCounter, func() int64 {
		return e.walMetric(func(m *wal.Metrics) int64 { return m.AppendedBytes.Load() })
	})
	_ = h.Register("wal_syncs", monitor.SeriesCounter, func() int64 {
		return e.walMetric(func(m *wal.Metrics) int64 { return m.Syncs.Load() })
	})
	_ = h.Register("wal_sync_nanos", monitor.SeriesCounter, func() int64 {
		return e.walMetric(func(m *wal.Metrics) int64 { return m.SyncNanos.Load() })
	})
	_ = h.Register("wal_rotations", monitor.SeriesCounter, func() int64 {
		return e.walMetric(func(m *wal.Metrics) int64 { return m.Rotations.Load() })
	})
}

// walMetric reads one counter off the engine's current log (0 when
// durability is not open).
func (e *Engine) walMetric(read func(*wal.Metrics) int64) int64 {
	e.mu.RLock()
	log := e.log
	e.mu.RUnlock()
	if log == nil {
		return 0
	}
	return read(log.Metrics())
}

// observeAdvanceHeartbeat stamps one Advance on the SLO tracker.
func (e *Engine) observeAdvanceHeartbeat() {
	if s := e.slo(); s != nil {
		s.ObserveAdvance(time.Now())
	}
}

// ViewAggregates returns the cross-view atomic counters every view
// created through this engine shares.
func (e *Engine) ViewAggregates() *view.AggMetrics { return e.viewAgg }
