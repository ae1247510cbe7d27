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
// starts the sampler after recovery, stops it on Close, writes every
// layer's metric families as one Prometheus exposition, and serves the
// /healthz–/readyz pair the watchdog feeds. The engine and the monitor
// declare their own families; the SQL session's and the wire servers'
// are declared here because only the façade sees them together.

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

// WritePrometheus writes every layer's metric families — the engine's,
// the SQL session's, the wire servers' and, with monitoring, the SLO's
// and health's — in Prometheus text exposition format 0.0.4. The output
// is grammar-checked by promtest.Lint in tests; it needs no
// client library and any Prometheus-compatible scraper can consume it.
// Safe to call concurrently with traffic (counters may tear between
// families, never within a histogram).
func (db *DB) WritePrometheus(w io.Writer) error {
	return monitor.WritePrometheus(w, db.metricFamilies())
}

// metricFamilies is the whole metric table, in exposition order.
func (db *DB) metricFamilies() []monitor.Family {
	fams := append(db.eng.Families(), db.facadeFamilies()...)
	if mon := db.eng.Monitor(); mon != nil {
		fams = append(fams, mon.Families()...)
	}
	return fams
}

// facadeFamilies declares the façade's metric families: the SQL
// session's, which wire servers' reads count into too, and the wire
// servers' counters summed over every server NewWireServer made.
func (db *DB) facadeFamilies() []monitor.Family {
	sm := db.sess.Metrics()
	wireSum := func(read func(wire.MetricsSnapshot) int64) func() int64 {
		return func() int64 {
			db.mu.Lock()
			defer db.mu.Unlock()
			n := int64(0)
			for _, s := range db.wireServers {
				n += read(s.WireMetrics())
			}
			return n
		}
	}
	fams := []monitor.Family{
		{Name: "expdb_sql_statements_total", Help: "SQL statements executed by kind.", Scrape: func(emit func([]Label, int64)) {
			st := sm.Snapshot().Statements
			kinds := make([]string, 0, len(st))
			for k := range st {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds) // a labelled family's order must be stable
			for _, k := range kinds {
				emit([]Label{{Key: "kind", Value: k}}, st[k])
			}
		}},
		monitor.Counter("expdb_sql_parse_errors_total", "SQL parse errors.", sm.ParseErrs.Load),
		monitor.Counter("expdb_sql_exec_errors_total", "SQL execution errors.", sm.ExecErrs.Load),
		monitor.Counter("expdb_sql_plan_memo_hits_total", "SQL statements taken from the statement memo, parsed and lowered once.", sm.MemoHits.Load),
		monitor.Histogram("expdb_sql_parse_nanos", "SQL parse latency.", &sm.ParseNanos),
		monitor.Histogram("expdb_sql_exec_nanos", "SQL execution latency.", &sm.ExecNanos),
	}
	return append(fams, monitor.When(func() bool { db.mu.Lock(); defer db.mu.Unlock(); return len(db.wireServers) > 0 },
		monitor.Counter("expdb_wire_conns_accepted_total", "Wire connections accepted.", wireSum(func(m wire.MetricsSnapshot) int64 { return m.ConnsAccepted })),
		monitor.Counter("expdb_wire_conns_rejected_total", "Wire connections rejected.", wireSum(func(m wire.MetricsSnapshot) int64 { return m.ConnsRejected })),
		monitor.Counter("expdb_wire_handshake_failures_total", "Wire handshake failures.", wireSum(func(m wire.MetricsSnapshot) int64 { return m.HandshakeFailures })),
		monitor.Counter("expdb_wire_timeouts_total", "Wire connections closed on idle deadline.", wireSum(func(m wire.MetricsSnapshot) int64 { return m.Timeouts })),
		monitor.Counter("expdb_wire_panics_recovered_total", "Wire handler panics recovered.", wireSum(func(m wire.MetricsSnapshot) int64 { return m.PanicsRecovered })),
		monitor.Counter("expdb_wire_oversized_rejected_total", "Wire messages refused by the size cap.", wireSum(func(m wire.MetricsSnapshot) int64 { return m.OversizedRejected })),
		monitor.Counter("expdb_wire_accept_retries_total", "Temporary accept errors ridden out.", wireSum(func(m wire.MetricsSnapshot) int64 { return m.AcceptRetries })),
		monitor.Counter("expdb_wire_requests_served_total", "Wire requests answered.", wireSum(func(m wire.MetricsSnapshot) int64 { return m.RequestsServed })),
		monitor.Gauge("expdb_wire_active_conns", "Wire connections currently serving.", wireSum(func(m wire.MetricsSnapshot) int64 { return m.ActiveConns })),
	)...)
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
