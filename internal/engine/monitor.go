package engine

import (
	"errors"
	"time"

	"expdb/internal/metrics"
	"expdb/internal/monitor"
	"expdb/internal/trace"
	"expdb/internal/wal"
)

// Monitor wiring: the engine owns a monitor.Monitor when WithMonitor is
// given, feeding it three ways. The engine's metric families (Families)
// read its atomic counters, and a few gauges behind short locks, so a
// sampler tick over their history series stays allocation-free. The
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
	// Registration happens once, at construction, against fresh names;
	// an error here would be a programming bug, not a runtime state.
	if err := e.mon.History.RegisterFamilies(e.Families()); err != nil {
		panic(err)
	}
}

// Families declares the engine's metric families — engine, scheduler,
// observability rings, WAL, disk, result cache and views — in exposition
// order. The WAL and cache families read the current log and cache, which
// disk recovery and SetResultCache swap (their counters restart, one
// clamped history interval), and read zero while there is none.
func (e *Engine) Families() []monitor.Family {
	rings := [...]func() trace.RingStats{e.events.Stats, e.traces.Stats}
	ringLabels := [][]monitor.Label{{{Key: "ring", Value: "events"}}, {{Key: "ring", Value: "traces"}}}
	walRead := func(read func(*wal.Metrics) int64) func() int64 {
		return func() int64 {
			e.mu.RLock()
			log := e.log
			e.mu.RUnlock()
			if log == nil {
				return 0
			}
			return read(log.Metrics())
		}
	}
	cacheRead := func(read func(*resultCache) int64) func() int64 {
		return func() int64 {
			if c := e.cache.Load(); c != nil {
				return read(c)
			}
			return 0
		}
	}
	va := e.viewAgg
	fams := []monitor.Family{
		monitor.Gauge("expdb_now_ticks", "Current logical clock tick.", func() int64 { return int64(e.Now()) }),
		monitor.Counter("expdb_inserts_total", "Tuples inserted.", e.m.Inserts.Load),
		monitor.Counter("expdb_deletes_total", "Tuples explicitly deleted.", e.m.Deletes.Load),
		monitor.Counter("expdb_tuples_expired_total", "Tuples physically expired.", e.m.TuplesExpired.Load),
		monitor.Counter("expdb_triggers_fired_total", "ON EXPIRE triggers fired.", e.m.TriggersFired.Load),
		monitor.Counter("expdb_sweeps_total", "Lazy sweep passes.", e.m.Sweeps.Load),
		monitor.Counter("expdb_advances_total", "Advance calls.", e.m.Advances.Load),
		monitor.Counter("expdb_trigger_lag_ticks_total", "Sum of (fire tick - expiration tick) under lazy sweeping.", e.m.TriggerLagTicks.Load),
		monitor.Counter("expdb_checkpoints_total", "Durability checkpoints completed.", e.m.Checkpoints.Load),
		monitor.Counter("expdb_disk_faults_total", "Transitions into disk-degraded read-only mode.", e.m.DiskFaults.Load),
		monitor.Counter("expdb_disk_retries_total", "Background WAL recovery attempts while degraded.", e.m.DiskRetries.Load),
		monitor.Counter("expdb_disk_reclamations_total", "ENOSPC reclamation sweeps (forced expiry before a compacting checkpoint).", e.m.DiskReclamations.Load),
		monitor.Counter("expdb_disk_recoveries_total", "Successful durability recoveries.", e.m.DiskRecoveries.Load),
		monitor.Histogram("expdb_advance_duration_nanos", "Advance wall-clock latency.", &e.m.AdvanceNanos),
		monitor.Histogram("expdb_expiry_batch_size", "Tuples expired per batch or sweep tick.", &e.m.ExpiryBatch),
		monitor.Gauge("expdb_scheduler_pending", "Pairs in the per-table texp-ordered indexes, stale ones included.", func() int64 { return int64(e.texpPending()) }),
		{Name: "expdb_ring_entries_total", Help: "Entries ever written to this observability ring.", Labels: ringLabels,
			Value: func(i int) int64 { return int64(rings[i]().Total) }},
		{Name: "expdb_ring_dropped_total", Help: "Entries lost to ring wraparound.", Labels: ringLabels,
			Value: func(i int) int64 { return int64(rings[i]().Dropped) }},
		{Name: "expdb_ring_capacity", Help: "Ring capacity.", Kind: monitor.SeriesGauge, Labels: ringLabels,
			Value: func(i int) int64 { return int64(rings[i]().Capacity) }},
		{Name: "expdb_ring_high_water", Help: "Peak ring occupancy.", Kind: monitor.SeriesGauge, Labels: ringLabels,
			Value: func(i int) int64 { return int64(rings[i]().HighWater) }},
	}
	fams = append(fams, monitor.When(func() bool { return e.DurabilityState() != DurabilityMemoryOnly },
		monitor.Counter("expdb_wal_appends_total", "WAL records appended.", walRead(func(m *wal.Metrics) int64 { return m.Appends.Load() })),
		monitor.Counter("expdb_wal_appended_bytes_total", "WAL bytes appended.", walRead(func(m *wal.Metrics) int64 { return m.AppendedBytes.Load() })),
		monitor.Counter("expdb_wal_syncs_total", "WAL fsync batches.", walRead(func(m *wal.Metrics) int64 { return m.Syncs.Load() })),
		monitor.Counter("expdb_wal_sync_nanos_total", "Cumulative WAL write+fsync time.", walRead(func(m *wal.Metrics) int64 { return m.SyncNanos.Load() })),
		monitor.Counter("expdb_wal_rotations_total", "WAL generation rotations.", walRead(func(m *wal.Metrics) int64 { return m.Rotations.Load() })),
		monitor.Flag("expdb_wal_poisoned", "1 when the WAL hit a sticky I/O error.", func() bool { return e.WALErr() != nil }),
		monitor.Flag("expdb_disk_degraded", "1 while the engine is in disk-degraded read-only mode.", func() bool { return e.DegradedErr() != nil }),
	)...)
	fams = append(fams, monitor.When(e.ResultCacheEnabled,
		monitor.Counter("expdb_cache_hits_total", "Result cache hits.", cacheRead(func(c *resultCache) int64 { return c.m.Hits.Load() })),
		monitor.Counter("expdb_cache_misses_total", "Result cache reads evaluated in full.", cacheRead(func(c *resultCache) int64 { return c.m.Misses.Load() })),
		monitor.Counter("expdb_cache_invalidations_total", "Result cache entries dropped: the clock reached ValidUntil, or a write the entry could not absorb.",
			cacheRead(func(c *resultCache) int64 { return c.m.Invalidations.Load() + c.m.EpochInvalidations.Load() })),
		monitor.Counter("expdb_cache_revalidations_total", "Result cache hits served after a write to a table they read: no written tuple was selected by the plan.",
			cacheRead(func(c *resultCache) int64 { return c.m.Revalidations.Load() })),
		monitor.Counter("expdb_cache_patches_total", "Result cache hits that absorbed the written tuples the plan selects into the entry.",
			cacheRead(func(c *resultCache) int64 { return c.m.Patches.Load() })),
		monitor.Counter("expdb_cache_evictions_total", "Result cache LRU evictions.", cacheRead(func(c *resultCache) int64 { return c.m.Evictions.Load() })),
		monitor.Gauge("expdb_cache_entries", "Result cache current entries.", cacheRead(func(c *resultCache) int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return int64(len(c.entries))
		})),
		monitor.Family{Name: "expdb_cache_hit_nanos", Help: "Result cache hit latency.", Hist: func(int) *metrics.Histogram {
			if c := e.cache.Load(); c != nil {
				return &c.m.HitNanos
			}
			return nil
		}},
	)...)
	return append(fams,
		monitor.Counter("expdb_view_reads_total", "View reads across all views.", va.Reads.Load),
		monitor.Counter("expdb_view_served_from_mat_total", "View reads answered from the materialisation.", va.ServedFromMat.Load),
		monitor.Counter("expdb_view_recomputations_total", "Full view recomputations.", va.Recomputations.Load),
		monitor.Counter("expdb_view_patches_applied_total", "Theorem-3 patches applied.", va.PatchesApplied.Load),
		monitor.Counter("expdb_view_moved_reads_total", "Reads answered at a moved instant.", va.Moved.Load),
		monitor.Counter("expdb_view_budget_evictions_total", "Patch-budget evictions.", va.BudgetEvictions.Load),
	)
}

// observeAdvanceHeartbeat stamps one Advance on the SLO tracker.
func (e *Engine) observeAdvanceHeartbeat() {
	if s := e.slo(); s != nil {
		s.ObserveAdvance(time.Now())
	}
}
