package expdb

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"

	"expdb/internal/engine"
	"expdb/internal/monitor"
	"expdb/internal/wire"
)

// Continuous monitoring: the façade owns the operational surface — it
// starts the sampler after recovery, stops it on Close, folds every
// layer's counters into one Prometheus exposition, and serves the
// /healthz–/readyz pair the watchdog feeds. The engine only observes;
// exposure lives here because only the façade sees engine, SQL session
// and wire servers together.

// Monitoring re-exports.
type (
	// MonitorOptions configures WithMonitor: sample interval, history
	// ring capacity, expiration-lag SLO threshold, watchdog stall window.
	MonitorOptions = monitor.Options
	// Monitor bundles the metrics history, the expiration-lag SLO
	// tracker and the health watchdog.
	Monitor = monitor.Monitor
	// HealthState is the watchdog's coarse state (starting, ready,
	// degraded, unhealthy).
	HealthState = monitor.State
	// HealthSnapshot is the JSON body /healthz and /readyz serve.
	HealthSnapshot = monitor.HealthSnapshot
	// HistorySnapshot is a copy of the retained metrics history rings.
	HistorySnapshot = monitor.HistorySnapshot
	// SLOSnapshot is a copy of the expiration-lag SLO tracker: steady
	// dispatch lag, catch-up lag (post-recovery, labelled separately)
	// and the Advance heartbeat-gap distribution.
	SLOSnapshot = monitor.SLOSnapshot
	// Label is one Prometheus exposition label pair.
	Label = monitor.Label
)

// Health states (see HealthSnapshot.State).
const (
	// StateStarting: no watchdog evaluation has completed yet.
	StateStarting = monitor.StateStarting
	// StateReady: every health check passes.
	StateReady = monitor.StateReady
	// StateDegraded: a readiness check fails (e.g. recovery catch-up
	// pending); the database serves what it can.
	StateDegraded = monitor.StateDegraded
	// StateUnhealthy: a liveness check fails (poisoned WAL, stalled
	// Advance, sustained SLO breach).
	StateUnhealthy = monitor.StateUnhealthy
)

// WithMonitor enables continuous monitoring: a sampler goroutine
// snapshots every layer's counters into bounded history rings (SHOW
// HISTORY, DB.History), an expiration-lag SLO tracker measures how far
// behind texp each expiry dispatch ran, and a health watchdog
// (/healthz, /readyz, SHOW HEALTH) flips state on stalled Advance,
// poisoned WAL or sustained lag breach. The zero MonitorOptions gives
// 1s sampling, 300 retained samples and a 1-tick lag threshold.
func WithMonitor(opts MonitorOptions) EngineOption { return engine.WithMonitor(opts) }

// Monitor returns the monitor, or nil when WithMonitor was not given.
func (db *DB) Monitor() *Monitor { return db.eng.Monitor() }

// History snapshots the retained metrics history, oldest first. A
// non-empty metric restricts to that series; limit > 0 keeps only the
// most recent limit points per series. Empty when monitoring is off.
func (db *DB) History(metric string, limit int) HistorySnapshot {
	if mon := db.eng.Monitor(); mon != nil {
		return mon.History.Snapshot(metric, limit)
	}
	return HistorySnapshot{}
}

// Health snapshots the watchdog's latest evaluation. Without monitoring
// there is nothing tracked and the snapshot reports ready — an
// unmonitored database never fails its (absent) checks.
func (db *DB) Health() HealthSnapshot {
	if mon := db.eng.Monitor(); mon != nil {
		return mon.Health.Snapshot()
	}
	return HealthSnapshot{State: StateReady, Live: true, Ready: true}
}

// SLO snapshots the expiration-lag tracker (zero when monitoring is
// off).
func (db *DB) SLO() SLOSnapshot {
	if mon := db.eng.Monitor(); mon != nil {
		return mon.SLO.Snapshot()
	}
	return SLOSnapshot{}
}

// registerWireSeries adds the first wire server's fault-tolerance
// counters to the metrics history (later servers are still aggregated in
// the Prometheus exposition, but the bounded ring tracks one).
func (db *DB) registerWireSeries(s *WireServer) {
	mon := db.eng.Monitor()
	if mon == nil {
		return
	}
	wm := s.MetricsRef()
	h := mon.History
	// Duplicate-name errors mean a second server; first one wins.
	_ = h.Register("wire_conns_accepted", monitor.SeriesCounter, wm.ConnsAccepted.Load)
	_ = h.Register("wire_conns_rejected", monitor.SeriesCounter, wm.ConnsRejected.Load)
	_ = h.Register("wire_timeouts", monitor.SeriesCounter, wm.Timeouts.Load)
	_ = h.Register("wire_panics_recovered", monitor.SeriesCounter, wm.PanicsRecovered.Load)
	_ = h.Register("wire_requests_served", monitor.SeriesCounter, wm.RequestsServed.Load)
	_ = h.Register("wire_active_conns", monitor.SeriesGauge, wm.ActiveConns.Load)
}

// WritePrometheus writes every layer's metrics — engine, scheduler,
// observability rings, WAL, result cache, views, SQL session, wire
// servers, SLO and health — in Prometheus text exposition format 0.0.4.
// The output is grammar-checked by monitor.LintExposition in tests; it
// needs no client library and any Prometheus-compatible scraper can
// consume it. Safe to call concurrently with traffic (counters may tear
// between families, never within a histogram).
func (db *DB) WritePrometheus(w io.Writer) error {
	p := monitor.NewPromWriter(w)
	em := db.eng.Metrics()

	p.Gauge("expdb_now_ticks", "Current logical clock tick.", nil, int64(em.Now))
	p.Counter("expdb_inserts_total", "Tuples inserted.", nil, em.Inserts)
	p.Counter("expdb_deletes_total", "Tuples explicitly deleted.", nil, em.Deletes)
	p.Counter("expdb_tuples_expired_total", "Tuples physically expired.", nil, em.TuplesExpired)
	p.Counter("expdb_triggers_fired_total", "ON EXPIRE triggers fired.", nil, em.TriggersFired)
	p.Counter("expdb_sweeps_total", "Lazy sweep passes.", nil, em.Sweeps)
	p.Counter("expdb_advances_total", "Advance calls.", nil, em.Advances)
	p.Counter("expdb_trigger_lag_ticks_total", "Sum of (fire tick - expiration tick) under lazy sweeping.", nil, em.TriggerLagTicks)
	p.Counter("expdb_checkpoints_total", "Durability checkpoints completed.", nil, em.Checkpoints)
	p.Counter("expdb_disk_faults_total", "Transitions into disk-degraded read-only mode.", nil, em.DiskFaults)
	p.Counter("expdb_disk_retries_total", "Background WAL recovery attempts while degraded.", nil, em.DiskRetries)
	p.Counter("expdb_disk_reclamations_total", "ENOSPC reclamation sweeps (forced expiry before a compacting checkpoint).", nil, em.DiskReclamations)
	p.Counter("expdb_disk_recoveries_total", "Successful durability recoveries.", nil, em.DiskRecoveries)
	p.Histogram("expdb_advance_duration_nanos", "Advance wall-clock latency.", nil, em.AdvanceNanos)
	p.Histogram("expdb_expiry_batch_size", "Tuples expired per batch or sweep tick.", nil, em.ExpiryBatch)

	p.Gauge("expdb_scheduler_pending", "Pairs in the per-table texp-ordered indexes, stale ones included.", nil, int64(em.Scheduler.Pending))

	// Observability rings: one family per measure, ring name as label.
	rings := []struct {
		name string
		m    engine.RingMetrics
	}{{"events", em.Events}, {"traces", em.Traces}}
	for _, r := range rings {
		p.Counter("expdb_ring_entries_total", "Entries ever written to this observability ring.", []Label{{Key: "ring", Value: r.name}}, int64(r.m.Total))
	}
	for _, r := range rings {
		p.Counter("expdb_ring_dropped_total", "Entries lost to ring wraparound.", []Label{{Key: "ring", Value: r.name}}, int64(r.m.Dropped))
	}
	for _, r := range rings {
		p.Gauge("expdb_ring_capacity", "Ring capacity.", []Label{{Key: "ring", Value: r.name}}, int64(r.m.Capacity))
	}
	for _, r := range rings {
		p.Gauge("expdb_ring_high_water", "Peak ring occupancy.", []Label{{Key: "ring", Value: r.name}}, int64(r.m.HighWater))
	}

	if em.WAL != nil {
		p.Counter("expdb_wal_appends_total", "WAL records appended.", nil, em.WAL.Appends)
		p.Counter("expdb_wal_appended_bytes_total", "WAL bytes appended.", nil, em.WAL.AppendedBytes)
		p.Counter("expdb_wal_syncs_total", "WAL fsync batches.", nil, em.WAL.Syncs)
		p.Counter("expdb_wal_sync_nanos_total", "Cumulative WAL write+fsync time.", nil, em.WAL.SyncNanos)
		p.Counter("expdb_wal_rotations_total", "WAL generation rotations.", nil, em.WAL.Rotations)
		poisoned := int64(0)
		if em.WAL.Poisoned != "" {
			poisoned = 1
		}
		p.Gauge("expdb_wal_poisoned", "1 when the WAL hit a sticky I/O error.", nil, poisoned)
		degraded := int64(0)
		if em.WAL.Degraded != "" {
			degraded = 1
		}
		p.Gauge("expdb_disk_degraded", "1 while the engine is in disk-degraded read-only mode.", nil, degraded)
	}

	if em.ResultCache != nil {
		rc := em.ResultCache
		p.Counter("expdb_cache_hits_total", "Result cache hits.", nil, rc.Hits)
		p.Counter("expdb_cache_misses_total", "Result cache reads evaluated in full.", nil, rc.Misses)
		p.Counter("expdb_cache_invalidations_total", "Result cache entries dropped: the clock reached ValidUntil, or a write the entry could not absorb.", nil, rc.Invalidations+rc.EpochInvalidations)
		p.Counter("expdb_cache_revalidations_total", "Result cache hits served after a write to a table they read: no written tuple was selected by the plan.", nil, rc.Revalidations)
		p.Counter("expdb_cache_patches_total", "Result cache hits that absorbed the written tuples the plan selects into the entry.", nil, rc.Patches)
		p.Counter("expdb_cache_evictions_total", "Result cache LRU evictions.", nil, rc.Evictions)
		p.Gauge("expdb_cache_entries", "Result cache current entries.", nil, int64(rc.Entries))
		p.Histogram("expdb_cache_hit_nanos", "Result cache hit latency.", nil, rc.HitNanos)
	}

	va := db.eng.ViewAggregates()
	p.Counter("expdb_view_reads_total", "View reads across all views.", nil, va.Reads.Load())
	p.Counter("expdb_view_served_from_mat_total", "View reads answered from the materialisation.", nil, va.ServedFromMat.Load())
	p.Counter("expdb_view_recomputations_total", "Full view recomputations.", nil, va.Recomputations.Load())
	p.Counter("expdb_view_patches_applied_total", "Theorem-3 patches applied.", nil, va.PatchesApplied.Load())
	p.Counter("expdb_view_moved_reads_total", "Reads answered at a moved instant.", nil, va.Moved.Load())
	p.Counter("expdb_view_budget_evictions_total", "Patch-budget evictions.", nil, va.BudgetEvictions.Load())

	sm := db.sess.Metrics().Snapshot()
	for _, kind := range sortedKeys(sm.Statements) {
		p.Counter("expdb_sql_statements_total", "SQL statements executed by kind.", []Label{{Key: "kind", Value: kind}}, sm.Statements[kind])
	}
	p.Counter("expdb_sql_parse_errors_total", "SQL parse errors.", nil, sm.ParseErrs)
	p.Counter("expdb_sql_exec_errors_total", "SQL execution errors.", nil, sm.ExecErrs)
	p.Counter("expdb_sql_plan_memo_hits_total", "SQL statements taken from the statement memo, parsed and lowered once.", nil, sm.MemoHits)
	p.Histogram("expdb_sql_parse_nanos", "SQL parse latency.", nil, sm.ParseNanos)
	p.Histogram("expdb_sql_exec_nanos", "SQL execution latency.", nil, sm.ExecNanos)

	db.mu.Lock()
	servers := append([]*wire.Server(nil), db.wireServers...)
	db.mu.Unlock()
	if len(servers) > 0 {
		var ws wire.MetricsSnapshot
		for _, s := range servers {
			m := s.WireMetrics()
			ws.ConnsAccepted += m.ConnsAccepted
			ws.ConnsRejected += m.ConnsRejected
			ws.HandshakeFailures += m.HandshakeFailures
			ws.Timeouts += m.Timeouts
			ws.PanicsRecovered += m.PanicsRecovered
			ws.OversizedRejected += m.OversizedRejected
			ws.AcceptRetries += m.AcceptRetries
			ws.RequestsServed += m.RequestsServed
			ws.ActiveConns += m.ActiveConns
		}
		p.Counter("expdb_wire_conns_accepted_total", "Wire connections accepted.", nil, ws.ConnsAccepted)
		p.Counter("expdb_wire_conns_rejected_total", "Wire connections rejected.", nil, ws.ConnsRejected)
		p.Counter("expdb_wire_handshake_failures_total", "Wire handshake failures.", nil, ws.HandshakeFailures)
		p.Counter("expdb_wire_timeouts_total", "Wire connections closed on idle deadline.", nil, ws.Timeouts)
		p.Counter("expdb_wire_panics_recovered_total", "Wire handler panics recovered.", nil, ws.PanicsRecovered)
		p.Counter("expdb_wire_oversized_rejected_total", "Wire messages refused by the size cap.", nil, ws.OversizedRejected)
		p.Counter("expdb_wire_accept_retries_total", "Temporary accept errors ridden out.", nil, ws.AcceptRetries)
		p.Counter("expdb_wire_requests_served_total", "Wire requests answered.", nil, ws.RequestsServed)
		p.Gauge("expdb_wire_active_conns", "Wire connections currently serving.", nil, ws.ActiveConns)
	}

	if mon := db.eng.Monitor(); mon != nil {
		slo := mon.SLO.Snapshot()
		p.Histogram("expdb_slo_dispatch_lag_ticks", "Expiry dispatch lag (dispatch tick - texp) by phase.",
			[]Label{{Key: "phase", Value: "steady"}}, slo.DispatchLag)
		p.Histogram("expdb_slo_dispatch_lag_ticks", "Expiry dispatch lag (dispatch tick - texp) by phase.",
			[]Label{{Key: "phase", Value: "catchup"}}, slo.CatchupLag)
		p.Histogram("expdb_slo_heartbeat_gap_nanos", "Wall-clock gap between consecutive Advance calls.", nil, slo.HeartbeatGap)
		p.Gauge("expdb_slo_lag_threshold_ticks", "Configured p99 dispatch-lag budget (0 = disabled).", nil, slo.LagThresholdTicks)
		p.Gauge("expdb_slo_p99_lag_ticks", "Estimated p99 steady-state dispatch lag.", nil, slo.P99LagTicks)
		breached := int64(0)
		if slo.Breached {
			breached = 1
		}
		p.Gauge("expdb_slo_breached", "1 while p99 dispatch lag exceeds the budget.", nil, breached)
		p.Counter("expdb_slo_breach_ticks_total", "Watchdog ticks observed in breach.", nil, slo.Breaches)

		hs := mon.Health.Snapshot()
		p.Gauge("expdb_health_state", "Watchdog state (0 starting, 1 ready, 2 degraded, 3 unhealthy).", nil, int64(hs.State))
		p.Gauge("expdb_health_live", "1 while the process should be kept alive.", nil, b2i(hs.Live))
		p.Gauge("expdb_health_ready", "1 while the database should receive traffic.", nil, b2i(hs.Ready))
		for _, c := range hs.Checks {
			p.Gauge("expdb_health_check_ok", "1 while the named health check passes.",
				[]Label{{Key: "check", Value: c.Name}, {Key: "severity", Value: c.Severity}}, b2i(c.OK))
		}
	}
	return p.Err()
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// sortedKeys gives the statement-kind labels a deterministic exposition
// order (required: a labelled family must be contiguous and stable).
func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// HealthzHandler serves liveness: 200 while the watchdog considers the
// process worth keeping alive, 503 once a liveness check fails (poisoned
// WAL, stalled Advance, sustained SLO breach). The body is the full
// HealthSnapshot as JSON either way. Without monitoring it always
// answers 200.
func (db *DB) HealthzHandler() http.Handler {
	return db.healthHandler(func(h HealthSnapshot) bool { return h.Live })
}

// ReadyzHandler serves readiness: 200 only when every check passes —
// recovery catch-up dispatched, WAL healthy, Advance fresh. 503
// otherwise, so load balancers hold traffic during recovery replay.
// Without monitoring it always answers 200.
func (db *DB) ReadyzHandler() http.Handler {
	return db.healthHandler(func(h HealthSnapshot) bool { return h.Ready })
}

func (db *DB) healthHandler(pass func(HealthSnapshot) bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := db.Health()
		w.Header().Set("Content-Type", "application/json")
		if !pass(snap) {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		writeJSON(w, snap)
	})
}
