// Package expdb is an in-memory relational database with first-class
// expiration times, reproducing "Expiration Times for Data Management"
// (Schmidt, Jensen, Šaltenis — ICDE 2006).
//
// Every tuple carries an expiration time after which it silently ceases
// to be current; queries never see expired data; materialised views stay
// in synchrony with their base relations by looking only at their own
// expiration metadata, recomputing (or patching) only when the paper's
// invalidation analysis says they must. Expiration times surface to users
// in exactly two places, as the paper prescribes: on insertion (the
// EXPIRES clause / texp argument) and in ON-EXPIRE triggers.
//
// The quickest way in is the SQL surface:
//
//	db := expdb.Open()
//	db.MustExec(`CREATE TABLE pol (uid INT, deg INT)`)
//	db.MustExec(`INSERT INTO pol VALUES (1, 25) EXPIRES AT 10`)
//	db.MustExec(`CREATE MATERIALIZED VIEW hist AS
//	             SELECT deg, COUNT(*) FROM pol GROUP BY deg`)
//	db.MustExec(`ADVANCE TO 10`)
//	res := db.MustExec(`SELECT * FROM hist`) // recomputed exactly when needed
//
// The algebra package (expdb/algebra) exposes the expression layer for
// programmatic use, and Engine gives access to triggers, sweeping policy
// and the catalog.
package expdb

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"expdb/internal/algebra"
	"expdb/internal/engine"
	"expdb/internal/interval"
	"expdb/internal/relation"
	"expdb/internal/sql"
	"expdb/internal/trace"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/vfs"
	"expdb/internal/view"
	"expdb/internal/wire"
	"expdb/internal/xtime"
)

// Re-exported core types. The library's packages live under internal/;
// these aliases are the supported public surface.
type (
	// Time is an instant of the logical clock; Infinity never arrives.
	Time = xtime.Time
	// Value is a typed scalar attribute value.
	Value = value.Value
	// Tuple is an ordered list of attribute values.
	Tuple = tuple.Tuple
	// Schema describes a relation's columns.
	Schema = tuple.Schema
	// Column is one schema attribute.
	Column = tuple.Column
	// Relation is a set of tuples with expiration times.
	Relation = relation.Relation
	// Row pairs a tuple with its expiration time.
	Row = relation.Row
	// View is a materialised expression with independent maintenance.
	View = view.View
	// ViewOption configures a view (see the Mode/Recover re-exports).
	ViewOption = view.Option
	// ReadInfo says how a view read was answered: from the
	// materialisation, by recomputation, or moved to another instant.
	ReadInfo = view.ReadInfo
	// Source is the provenance tag inside ReadInfo.
	Source = view.Source
	// Incremental is a per-operator maintainer built by NewIncremental.
	Incremental = view.Incremental
	// Expr is an algebra expression (build them with expdb/algebra).
	Expr = algebra.Expr
	// Result is the outcome of executing a SQL statement.
	Result = sql.Result
	// Engine is the underlying database engine.
	Engine = engine.Engine
	// EngineOption configures Open.
	EngineOption = engine.Option
	// TriggerFunc observes tuple expirations.
	TriggerFunc = engine.TriggerFunc
	// IntervalSet is a Schrödinger validity set (§3.3–3.4 of the paper).
	IntervalSet = interval.Set
	// Validity is the uniform result stamp [At, ValidUntil): the answer
	// was computed at At and stays correct at every instant before
	// ValidUntil = texp(e). Result, ReadInfo and the wire client all
	// carry it, so every read surface shares one freshness currency.
	Validity = interval.Validity
	// CacheMetrics is the validity-interval result cache's snapshot:
	// hit/miss/invalidation/eviction counters, entry count and the
	// hit-latency histogram.
	CacheMetrics = engine.ResultCacheMetrics
	// MetricsSnapshot is a point-in-time copy of the engine's observability
	// counters, histograms and per-view maintenance split (JSON-ready).
	MetricsSnapshot = engine.MetricsSnapshot
	// SQLMetricsSnapshot is the SQL session's slice of a snapshot:
	// statements by kind plus parse/exec latency.
	SQLMetricsSnapshot = sql.MetricsSnapshot
	// TraceID identifies one traced operation; statements stamp it on
	// their Result and on every lifecycle event they cause.
	TraceID = trace.ID
	// Event is one structured lifecycle record: a tuple-expiry batch, a
	// view invalidation/recompute/patch, a sweep, a budget eviction.
	Event = trace.Event
	// EventKind classifies an Event.
	EventKind = trace.EventKind
	// Span is one timed step of a traced statement.
	Span = trace.Span
	// Trace is a recorded slow statement: text, tick, span tree, total.
	Trace = trace.Trace
	// WireServer exposes an engine's relations to remote view nodes over
	// the fault-tolerant wire protocol (deadlines, connection limits,
	// panic recovery, graceful shutdown).
	WireServer = wire.Server
	// WireClient is a remote view node: it materialises once, answers
	// reads locally while the copy is valid, and rides out network
	// failures in a degraded-but-correct state.
	WireClient = wire.Client
	// WireClientState is the client's connectivity state (connected or
	// degraded).
	WireClientState = wire.State
	// WireServerOption configures a WireServer (deadlines, caps, drain).
	WireServerOption = wire.ServerOption
	// WireClientOption configures a WireClient at dial time (timeouts,
	// reconnect backoff).
	WireClientOption = wire.ClientOption
	// WireStats counts protocol traffic for one endpoint.
	WireStats = wire.Stats
	// WireMetricsSnapshot is the server's fault-tolerance counters:
	// conns accepted/rejected, timeouts, panics recovered, reconnects.
	WireMetricsSnapshot = wire.MetricsSnapshot
	// RecoveryInfo reports what a durable open reconstructed from disk:
	// restored clock, tables/views/rows, log records replayed, whether a
	// torn log tail was truncated, and the trace ID the catch-up expiry
	// batch will carry.
	RecoveryInfo = engine.RecoveryInfo
	// DurabilityState is the engine's durability posture: memory-only,
	// healthy, or disk-degraded read-only (see DB.DurabilityState).
	DurabilityState = engine.DurabilityState
	// FS abstracts the durability layer's filesystem access; pass one via
	// WithVFS. Production uses the OS passthrough, tests inject FaultFS.
	FS = vfs.FS
	// FaultFS wraps an FS with deterministic fault injection: scripted
	// fsync failures, ENOSPC quotas, read errors and torn writes.
	FaultFS = vfs.FaultFS
)

// NewFaultFS wraps inner (usually OSFS()) with fault injection.
var NewFaultFS = vfs.NewFault

// OSFS returns the passthrough filesystem durability uses by default.
func OSFS() FS { return vfs.OS() }

// Wire client connectivity states (see WireClient.State).
const (
	// WireConnected: the last network operation succeeded.
	WireConnected = wire.StateConnected
	// WireDegraded: the connection is down; reads are served from the
	// local materialisation while it remains valid (tau < texp).
	WireDegraded = wire.StateDegraded
)

// Where a view read came from (see ReadInfo.Source).
const (
	// SourceMaterialised: served from the maintained materialisation.
	SourceMaterialised = view.SourceMaterialised
	// SourceRecomputed: the expression was re-evaluated against base data.
	SourceRecomputed = view.SourceRecomputed
	// SourceMovedBackward: answered at the most recent valid instant.
	SourceMovedBackward = view.SourceMovedBackward
	// SourceMovedForward: answered as of the next valid instant.
	SourceMovedForward = view.SourceMovedForward
)

// Sentinel errors. Every layer wraps rather than replaces these, so
// errors.Is works on anything the façade or the SQL surface returns.
var (
	// ErrNoSuchTable: the named base table does not exist.
	ErrNoSuchTable = engine.ErrNoSuchTable
	// ErrNoSuchView: the named view does not exist.
	ErrNoSuchView = engine.ErrNoSuchView
	// ErrSchemaMismatch: a tuple does not fit the table's schema.
	ErrSchemaMismatch = engine.ErrSchemaMismatch
	// ErrInvalidRead: a view with recovery=reject was read outside its
	// validity interval.
	ErrInvalidRead = engine.ErrInvalidRead
	// ErrCacheDisabled: a cache-specific operation (SHOW CACHE,
	// DB.CacheMetrics) ran while the result cache is off
	// (WithResultCache(0) / SetResultCache(0)).
	ErrCacheDisabled = engine.ErrCacheDisabled
	// ErrWireProtocol: the remote peer is not an expdb wire endpoint or
	// speaks an incompatible version (detected at handshake).
	ErrWireProtocol = wire.ErrProtocol
	// ErrWireServerBusy: the wire server is at its connection limit and
	// cleanly rejected the dial.
	ErrWireServerBusy = wire.ErrServerBusy
	// ErrWireTooLarge: a single wire message exceeded the decode cap.
	ErrWireTooLarge = wire.ErrTooLarge
	// ErrWireDegraded: the client's local copy is invalid AND every
	// reconnect attempt failed — the only condition under which a
	// degraded read gives up.
	ErrWireDegraded = wire.ErrDegraded
	// ErrReadOnly: a mutation was rejected because a disk failure put the
	// database in degraded read-only mode. The mutation was NOT applied;
	// reads, views and clock advances keep working from memory while
	// background recovery retries (see DB.DurabilityState).
	ErrReadOnly = engine.ErrReadOnly
	// ErrFaultInjected tags every failure a FaultFS injects, so tests can
	// tell scripted faults from real ones.
	ErrFaultInjected = vfs.ErrInjected
)

// Durability states (see DB.DurabilityState).
const (
	// DurabilityMemoryOnly: no WAL configured.
	DurabilityMemoryOnly = engine.DurabilityMemoryOnly
	// DurabilityHealthy: the WAL is open and accepting writes.
	DurabilityHealthy = engine.DurabilityHealthy
	// DurabilityDegraded: a disk failure made the database read-only;
	// background recovery is retrying with capped jittered backoff.
	DurabilityDegraded = engine.DurabilityDegraded
)

// Infinity is the expiration time of data that never expires.
const Infinity = xtime.Infinity

// NewTraceID allocates a fresh trace ID, e.g. to tag an
// Engine.AdvanceTraced call or to correlate daemon log lines with the
// lifecycle events they caused.
func NewTraceID() TraceID { return trace.NextID() }

// Value constructors.
var (
	// Int makes an integer value.
	Int = value.Int
	// Float makes a floating-point value.
	Float = value.Float
	// Str makes a string value.
	Str = value.String_
	// Bool makes a boolean value.
	Bool = value.Bool
	// Null is the NULL value.
	Null = value.Null
)

// Ints builds an all-integer tuple.
var Ints = tuple.Ints

// View options (see package view for semantics). These are declared
// functions, not func-typed vars, so they show up in godoc with stable
// signatures and cannot be reassigned by client code.

// WithPatching makes a view keep its future — Theorem 3's patches on a root
// difference, the later states of each group (§3.4.1) on a GROUP BY — so that
// it never recomputes.
func WithPatching() ViewOption { return view.WithPatching() }

// WithPatchBudget bounds the patch queue to k entries (§3.4.2 trade-off
// between up-front transfer and future recomputation).
func WithPatchBudget(k int) ViewOption { return view.WithPatchBudget(k) }

// NewIncremental builds a per-operator maintainer for an expression
// (§3.1 "act on a per-operator basis"): invalidations recompute only
// the invalid operators, not the whole plan.
func NewIncremental(expr Expr) *Incremental { return view.NewIncremental(expr) }

// WithIntervalValidity answers reads using Schrödinger validity
// intervals instead of the single expression expiration time.
func WithIntervalValidity() ViewOption { return view.WithMode(view.ModeInterval) }

// WithRecoverReject makes invalid reads fail instead of recomputing.
func WithRecoverReject() ViewOption { return view.WithRecovery(view.RecoverReject) }

// WithRecoverBackward answers invalid reads from the most recent valid
// instant (requires WithIntervalValidity).
func WithRecoverBackward() ViewOption { return view.WithRecovery(view.RecoverBackward) }

// WithRecoverForward answers invalid reads as of the next valid instant
// (requires WithIntervalValidity).
func WithRecoverForward() ViewOption { return view.WithRecovery(view.RecoverForward) }

// Engine options.

// WithEagerSweep removes tuples and fires triggers at the exact
// expiration tick (the default).
func WithEagerSweep() EngineOption { return engine.WithSweep(engine.SweepEager, 0) }

// WithLazySweep batches physical removal every period ticks.
func WithLazySweep(period Time) EngineOption { return engine.WithSweep(engine.SweepLazy, period) }

// WithDurability makes the database durable: every mutation is logged to
// a write-ahead log under dir before it is acknowledged, periodic
// Checkpoint calls bound recovery time, and any state found in dir is
// recovered at open — including expirations whose tick passed while the
// process was down, which fire (exactly once, at their original texp) in
// the first Advance after recovery. Prefer OpenDurable, which surfaces
// recovery errors instead of panicking.
func WithDurability(dir string) EngineOption { return engine.WithDurability(dir) }

// WithVFS routes all durability disk access through fsys. Production
// code never needs this (the default is the OS passthrough); tests and
// fault drills inject a FaultFS to script fsync failures, ENOSPC, read
// errors and torn writes.
func WithVFS(fsys FS) EngineOption { return engine.WithVFS(fsys) }

// WithDiskRetryBackoff sets the initial interval between background
// disk-recovery attempts while degraded (default 250ms; doubling per
// failure, capped at 32x, jittered up to +25%).
func WithDiskRetryBackoff(d time.Duration) EngineOption { return engine.WithDiskRetryBackoff(d) }

// WithSlowQueryThreshold enables the slow-query log: any statement whose
// wall time reaches d has its full span tree recorded (SHOW TRACES,
// DB.Traces, /debug/traces). Default off.
func WithSlowQueryThreshold(d time.Duration) EngineOption {
	return engine.WithSlowQueryThreshold(d)
}

// WithEventLogCapacity sizes the lifecycle-event ring buffer (default
// engine.DefaultEventLogCapacity entries; oldest events are dropped and
// counted once it fills).
func WithEventLogCapacity(n int) EngineOption { return engine.WithEventLogCapacity(n) }

// DefaultResultCacheSize is the result cache's capacity when no
// WithResultCache option is given.
const DefaultResultCacheSize = engine.DefaultResultCacheSize

// WithResultCache sizes the validity-interval result cache in entries
// (default DefaultResultCacheSize); size <= 0 disables caching.
// The cache serves a repeated query with zero re-evaluation while
// now < ValidUntil and no write changed a tuple its plan selects, and
// patches the entry with the inserts a monotonic plan selects — see
// Result.Validity and Result.Cached.
func WithResultCache(size int) EngineOption { return engine.WithResultCache(size) }

// Wire server options (see internal/wire for defaults).

// WithWireIdleTimeout disconnects a peer that neither completes a
// request nor accepts a response within d (default 30s).
func WithWireIdleTimeout(d time.Duration) WireServerOption { return wire.WithIdleTimeout(d) }

// WithWireMaxMessageBytes caps one decoded message, bounding what a
// hostile or corrupt peer can make the server allocate (default 8 MiB).
func WithWireMaxMessageBytes(n int64) WireServerOption { return wire.WithMaxMessageBytes(n) }

// WithWireMaxConns caps concurrent connections; excess dials are
// rejected cleanly with ErrWireServerBusy (default 256).
func WithWireMaxConns(n int) WireServerOption { return wire.WithMaxConns(n) }

// WithWireDrainTimeout bounds how long Close waits for in-flight
// requests before hard-closing stragglers (default 5s).
func WithWireDrainTimeout(d time.Duration) WireServerOption { return wire.WithDrainTimeout(d) }

// Wire client options.

// WithWireDialTimeout bounds one TCP dial + protocol handshake.
func WithWireDialTimeout(d time.Duration) WireClientOption { return wire.WithDialTimeout(d) }

// WithWireRequestTimeout bounds one round trip when the caller's
// context carries no deadline of its own (default 30s; 0 disables).
func WithWireRequestTimeout(d time.Duration) WireClientOption { return wire.WithRequestTimeout(d) }

// WithWireBackoff shapes reconnection: the delay starts at base,
// doubles per attempt up to max (each jittered ±50%), and maxRetries
// bounds attempts per operation.
func WithWireBackoff(base, max time.Duration, maxRetries int) WireClientOption {
	return wire.WithBackoff(base, max, maxRetries)
}

// WithWireJitterSeed seeds the reconnect jitter, making retry timing
// deterministic for tests.
func WithWireJitterSeed(seed int64) WireClientOption { return wire.WithJitterSeed(seed) }

// DB bundles an engine with a SQL session — the one-import entry point.
type DB struct {
	eng  *engine.Engine
	sess *sql.Session

	mu sync.Mutex
	// wireServers tracks servers created through NewWireServer so the
	// wire metric families can sum their counters.
	wireServers []*wire.Server
}

// Open creates an empty database at tick 0. Trigger NOTIFY output is
// discarded; use OpenWithNotify to capture it.
//
// If opts include WithDurability, recovery runs here and a failure
// panics; OpenDurable is the error-returning form.
func Open(opts ...EngineOption) *DB { return OpenWithNotify(nil, opts...) }

// OpenWithNotify is Open with a sink for trigger notifications.
func OpenWithNotify(notify io.Writer, opts ...EngineOption) *DB {
	db, err := openDB(notify, opts...)
	if err != nil {
		panic(err)
	}
	return db
}

// OpenDurable opens (or creates) a durable database whose state lives
// under dir — shorthand for Open(WithDurability(dir), opts...) with
// recovery errors returned instead of panicking. Use DB.RecoveryInfo to
// see what was reconstructed, DB.Checkpoint to bound recovery time, and
// DB.Close to flush the log on shutdown.
func OpenDurable(dir string, opts ...EngineOption) (*DB, error) {
	return OpenDurableWithNotify(dir, nil, opts...)
}

// OpenDurableWithNotify is OpenDurable with a sink for trigger
// notifications.
func OpenDurableWithNotify(dir string, notify io.Writer, opts ...EngineOption) (*DB, error) {
	return openDB(notify, append(opts, engine.WithDurability(dir))...)
}

// openDB builds the engine + session pair and, when durability is
// configured, runs recovery — passing the SQL session's Exec as the view
// compiler, so logged CREATE VIEW statements recompile through the same
// code path that first created them.
func openDB(notify io.Writer, opts ...EngineOption) (*DB, error) {
	eng := engine.New(opts...)
	db := &DB{eng: eng, sess: sql.NewSession(eng, notify)}
	if eng.DurabilityDir() != "" {
		if _, err := eng.OpenDurability(func(def string) error {
			_, err := db.sess.Exec(def)
			return err
		}); err != nil {
			return nil, err
		}
	}
	// The sampler starts only after recovery has replayed: its first tick
	// then sees the post-replay baseline and the watchdog's
	// recovery-catchup check reports the true pending state.
	if mon := eng.Monitor(); mon != nil {
		if err := mon.History.RegisterFamilies(db.facadeFamilies()); err != nil {
			panic(err) // a name declared twice: a programming bug
		}
		mon.Start()
	}
	return db, nil
}

// Checkpoint writes a snapshot of the current state and truncates the
// write-ahead log to it, bounding both disk usage and the next
// recovery's replay work. Errors unless the database was opened with
// durability.
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// RecoveryInfo reports what recovery reconstructed at open: nil for a
// memory-only database, Recovered=false for a durable open of a fresh
// directory.
func (db *DB) RecoveryInfo() *RecoveryInfo { return db.eng.Recovery() }

// DurabilityState reports the database's durability posture: memory-only,
// healthy, or disk-degraded. While degraded every mutation returns
// ErrReadOnly, reads and ADVANCE keep working from memory, and a
// background goroutine retries recovery; on success the full in-memory
// state is checkpointed to a fresh log generation and writes resume.
func (db *DB) DurabilityState() DurabilityState { return db.eng.DurabilityState() }

// TryDiskRecovery runs one synchronous disk-recovery attempt (the same
// routine the background loop retries) and reports its outcome. Healthy
// or memory-only databases return nil immediately.
func (db *DB) TryDiskRecovery() error { return db.eng.TryDiskRecovery() }

// Close stops the monitor sampler (if any), then flushes and closes the
// write-ahead log (a no-op for a memory-only database). The database
// must not be used afterwards.
func (db *DB) Close() error {
	if mon := db.eng.Monitor(); mon != nil {
		mon.Stop()
	}
	return db.eng.CloseDurability()
}

// Query runs one SQL statement and returns its Result, stamped with the
// validity window [Validity.At, Validity.ValidUntil) the engine derived
// for it and with Cached reporting whether the answer came from a
// result cache entry, as stored, revalidated or patched. Query is the documented entry
// point for the SQL surface; Exec is a long-standing alias. Rows come
// out of Result.Rows() (presentation order under ORDER BY/LIMIT,
// deterministic set order otherwise). They are read-only: a cached or view
// answer hands out the rows it keeps, with no copy, and no later statement
// changes them; rows the caller may reorder come from ORDER BY or from
// Result.Rel.RowsSorted(Result.At).
func (db *DB) Query(q string) (*Result, error) { return db.sess.Exec(q) }

// QueryContext is Query honouring ctx at the statement boundary. A
// statement runs against in-memory state and is not interruptible
// mid-flight; ctx is checked before parsing and its error returned, the
// same delegation pattern the wire client's *Context methods use.
func (db *DB) QueryContext(ctx context.Context, q string) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return db.sess.Exec(q)
}

// Exec runs one SQL statement. It is an alias of Query, kept because
// every release so far spelled the entry point this way.
func (db *DB) Exec(q string) (*Result, error) { return db.Query(q) }

// ExecContext is Exec honouring ctx at the statement boundary (an alias
// of QueryContext).
func (db *DB) ExecContext(ctx context.Context, q string) (*Result, error) {
	return db.QueryContext(ctx, q)
}

// ExecScript runs a semicolon-separated script, returning the last
// result.
func (db *DB) ExecScript(q string) (*Result, error) { return db.sess.ExecScript(q) }

// MustExec is Exec, panicking on error — for examples and tests.
func (db *DB) MustExec(q string) *Result {
	res, err := db.sess.Exec(q)
	if err != nil {
		panic(err)
	}
	return res
}

// Plan lowers a SELECT to an algebra expression without evaluating it.
func (db *DB) Plan(query string) (Expr, error) { return db.sess.PlanQuery(query) }

// Engine exposes the programmatic engine API (tables, triggers, clock,
// views).
func (db *DB) Engine() *Engine { return db.eng }

// Now returns the current tick.
func (db *DB) Now() Time { return db.eng.Now() }

// Advance moves the logical clock forward, firing expirations.
func (db *DB) Advance(to Time) error { return db.eng.Advance(to) }

// Insert adds a tuple with an absolute expiration time.
func (db *DB) Insert(table string, t Tuple, texp Time) error {
	return db.eng.Insert(table, t, texp)
}

// InsertTTL adds a tuple that lives for ttl ticks from now.
func (db *DB) InsertTTL(table string, t Tuple, ttl Time) error {
	return db.eng.InsertTTL(table, t, ttl)
}

// OnExpire registers an expiration trigger on a table.
func (db *DB) OnExpire(table string, fn TriggerFunc) error {
	return db.eng.OnExpire(table, fn)
}

// CreateView registers and materialises a view over an algebra
// expression.
func (db *DB) CreateView(name string, expr Expr, opts ...ViewOption) (*View, error) {
	return db.eng.CreateView(name, expr, opts...)
}

// ReadView answers a query against a named view at the current tick. The
// ReadInfo says how the answer was produced — cache hit, recomputation,
// patched, or a read moved to another instant — at which instant it
// holds, and under which trace ID its lifecycle events were logged;
// discarding it loses exactly the validity information the paper's
// invalidation analysis computes.
func (db *DB) ReadView(name string) (*Relation, ReadInfo, error) {
	return db.eng.ReadView(name)
}

// ReadViewContext is ReadView honouring ctx at the read boundary: ctx is
// checked before the read starts and its error returned, matching the
// wire client's *Context delegation (an in-memory view read is not
// interruptible mid-flight).
func (db *DB) ReadViewContext(ctx context.Context, name string) (*Relation, ReadInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, ReadInfo{}, err
	}
	return db.eng.ReadView(name)
}

// NewWireServer exposes this database's relations to remote view nodes
// over the fault-tolerant wire protocol. Call Listen on the result to
// start serving, and Close (or Shutdown with a context) to drain and
// stop. Its reads count as SELECTs in the database's SQL metrics.
func (db *DB) NewWireServer(opts ...WireServerOption) *WireServer {
	s := wire.NewServer(db.eng, db.sess.Metrics(), opts...)
	db.mu.Lock()
	db.wireServers = append(db.wireServers, s)
	db.mu.Unlock()
	return s
}

// DialWire connects a remote view node to a wire server, performing the
// protocol handshake. See WireClient for the degraded-read guarantees.
func DialWire(addr string, opts ...WireClientOption) (*WireClient, error) {
	return wire.Dial(addr, opts...)
}

// Metrics returns a snapshot of the engine's observability counters:
// insert/delete/expiry totals, Advance latency, scheduler load, and the
// per-view recompute vs patch vs cache-hit split.
func (db *DB) Metrics() MetricsSnapshot { return db.eng.Metrics() }

// SQLMetrics returns the SQL session's statement and latency counters.
func (db *DB) SQLMetrics() SQLMetricsSnapshot { return db.sess.Metrics().Snapshot() }

// CacheMetrics returns the result cache's counters and hit-latency
// histogram, or ErrCacheDisabled (wrapped) when the cache is off. The
// same block rides inside Metrics().ResultCache when enabled.
func (db *DB) CacheMetrics() (CacheMetrics, error) { return db.eng.ResultCacheStats() }

// SetResultCache resizes the result cache at runtime; size <= 0 disables
// it. The previous cache's entries and counters are discarded.
func (db *DB) SetResultCache(size int) { db.eng.SetResultCache(size) }

// MetricsHandler serves the combined engine + SQL snapshot as
// expvar-style JSON — mount it on any mux (expsyncd -metrics does).
// `?format=prometheus` switches to text exposition format 0.0.4
// (WritePrometheus), so one endpoint serves humans and scrapers.
func (db *DB) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prometheus" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			db.WritePrometheus(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, db.sess.MetricsReport())
	})
}

// Events returns the retained lifecycle events, oldest first: expiry
// batches, sweeps, view invalidations/recomputes/patches,
// budget evictions, and wire materialisations, each tagged with the
// trace ID of the statement or Advance that caused it.
func (db *DB) Events() []Event { return db.eng.Events().Snapshot(0) }

// EventsDropped reports how many lifecycle events have been discarded by
// the ring buffer (oldest first) since Open.
func (db *DB) EventsDropped() uint64 { return db.eng.Events().Stats().Dropped }

// Traces returns the retained slow-query traces, oldest first. Empty
// unless the slow-query log was enabled with WithSlowQueryThreshold or
// SetSlowQueryThreshold.
func (db *DB) Traces() []Trace { return db.eng.Traces().Snapshot(0) }

// SetSlowQueryThreshold changes the slow-query threshold at runtime;
// d <= 0 disables recording. Safe to call concurrently with statements.
func (db *DB) SetSlowQueryThreshold(d time.Duration) { db.eng.SetSlowQueryThreshold(d) }

// EventsHandler serves the lifecycle-event ring as JSON:
// {"events": [...], "dropped": N, "total": N} — mount it on any mux
// (expsyncd -metrics mounts it at /debug/events).
func (db *DB) EventsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		log := db.eng.Events()
		stats := log.Stats()
		snap := struct {
			Events  []Event `json:"events"`
			Dropped uint64  `json:"dropped"`
			Total   uint64  `json:"total"`
		}{log.Snapshot(0), stats.Dropped, stats.Total}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap)
	})
}

// TracesHandler serves the slow-query trace ring as JSON:
// {"traces": [...], "total": N} — mount it on any mux (expsyncd
// -metrics mounts it at /debug/traces).
func (db *DB) TracesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traces := db.eng.Traces()
		snap := struct {
			Traces []Trace `json:"traces"`
			Total  uint64  `json:"total"`
		}{traces.Snapshot(0), traces.Stats().Total}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap)
	})
}
