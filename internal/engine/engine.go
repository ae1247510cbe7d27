// Package engine implements the expiration-time database engine: base
// relations with automatic tuple expiration, ON-EXPIRE triggers, eager and
// lazy removal of expired tuples (§3.2 of the paper), and materialised
// views maintained in synchrony with their base relations.
//
// The engine is driven by a logical clock (Advance), which keeps
// experiments and tests deterministic; wall-clock deployments map real
// time onto ticks at whatever granularity they choose.
//
// Concurrency: row storage is sharded behind per-table locks (the RWMutex
// each relation.Relation carries), so inserts, deletes and queries on
// different tables proceed in parallel. The engine's own mutex guards only
// the clock, write epochs, triggers, watches and the WAL append point, and
// is held for short, bounded sections. The engine keeps no expiration
// schedule: each table's texp-ordered index is the only record of when its
// rows expire, and Advance drains those indexes table by table. See
// DESIGN.md "Locking model" for the lock hierarchy and ordering rules.
package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"expdb/internal/algebra"
	"expdb/internal/catalog"
	"expdb/internal/index"
	"expdb/internal/monitor"
	"expdb/internal/relation"
	"expdb/internal/trace"
	"expdb/internal/tuple"
	"expdb/internal/vfs"
	"expdb/internal/view"
	"expdb/internal/wal"
	"expdb/internal/xtime"
)

// Sentinel errors, re-exported from the layers that produce them so a
// single import suffices for errors.Is checks. They survive wrapping
// through the engine and the SQL layer.
var (
	// ErrNoSuchTable: a named base relation does not exist.
	ErrNoSuchTable = catalog.ErrNoSuchTable
	// ErrNoSuchView: a named view does not exist.
	ErrNoSuchView = catalog.ErrNoSuchView
	// ErrSchemaMismatch: a tuple does not conform to its table's schema.
	ErrSchemaMismatch = tuple.ErrSchemaMismatch
	// ErrInvalidRead: a view read was rejected because the materialisation
	// is invalid and the view's recovery policy is RecoverReject.
	ErrInvalidRead = view.ErrInvalidRead
)

// SweepMode selects when expired tuples are physically removed and when
// expiration triggers fire (§3.2).
type SweepMode uint8

const (
	// SweepEager removes tuples and fires triggers at the exact tick a
	// tuple expires — "useful when events should be triggered as soon as
	// a tuple expires".
	SweepEager SweepMode = iota
	// SweepLazy keeps expired tuples invisible but physically present,
	// removing them (and firing their triggers, late) in periodic batch
	// sweeps — "lazy expiration provides more optimisation
	// opportunities".
	SweepLazy
)

// String names the mode.
func (m SweepMode) String() string {
	if m == SweepEager {
		return "eager"
	}
	return "lazy"
}

// TriggerFunc is invoked when a tuple expires. at is the tick the trigger
// fires; row.Texp is the tick the tuple expired (they differ under lazy
// sweeping).
type TriggerFunc func(table string, row relation.Row, at xtime.Time)

// Stats carries engine counters — the legacy flat form, derived from the
// richer Metrics snapshot (see Engine.Metrics for histograms, scheduler
// load and the per-view maintenance split).
type Stats struct {
	Inserts        int
	Deletes        int
	TuplesExpired  int
	TriggersFired  int
	TriggerLatency int64 // Σ (fire tick − expiration tick), lazy sweeping only
	Sweeps         int
}

// Engine is an expiration-time-enabled in-memory database.
//
// Lock hierarchy (acquire strictly downward, see DESIGN.md):
//
//	advMu  >  view locks  >  table locks (ascending LockOrder)  >  mu
type Engine struct {
	// advMu serialises the Advance/Sweep pipeline (clock movement,
	// physical expiry, watch checks, trigger dispatch) without blocking
	// Insert/Delete/Query, which never take it. Triggers run while it is
	// held and therefore must not call Advance or Sweep.
	advMu sync.Mutex

	// mu guards the clock, write epochs, triggers and watches, and orders
	// WAL appends. It is a leaf lock: never acquire any other engine lock
	// while holding it.
	mu  sync.RWMutex
	cat *catalog.Catalog
	now xtime.Time

	sweepMode  SweepMode
	sweepEvery xtime.Time // lazy sweep period
	lastSweep  xtime.Time

	// epochs counts writes per table name: Insert/Delete/DDL move the
	// table's epoch, through wrote, inside the same mu critical section
	// that applies the mutation, and result-cache lookups compare the
	// epochs an entry was computed under against the current ones — a
	// mismatch means a write happened since, and tails (rescache.go) holds
	// the tuples it changed: the entry is unservable only if a leaf of its
	// plan selects one. Epochs are never deleted (a drop+recreate must not
	// reset the count), and expiry does NOT bump: ValidUntil = texp(e)
	// already bounds every cached window.
	epochs map[string]uint64
	tails  map[string]*writeTail
	// viewWrites is, per view, the sum of its base tables' write epochs at
	// its last materialisation: what a view maintained under expiration
	// only has not seen is the difference to the sum now (ViewMetrics).
	viewWrites map[string]uint64
	// cache is the validity-interval result cache (nil = disabled). Held
	// through an atomic pointer so SetResultCache can swap it at runtime
	// without a lock; see rescache.go for its internal hierarchy.
	cache atomic.Pointer[resultCache]

	triggers map[string][]TriggerFunc
	watches  []*viewWatch
	// m holds the atomic hot-path counters and histograms; unlike the
	// fields above it is not guarded by mu (see metrics.go).
	m Metrics
	// events and traces are the per-operation observability sinks, the
	// bounded rings of lifecycle events and of slow-query traces.
	// Both are internally synchronised leaves of the lock hierarchy —
	// safe to emit into under any engine, view or table lock.
	events *trace.Ring[trace.Event]
	traces *trace.Ring[trace.Trace]
	// slowNanos is the slow-query threshold in nanoseconds (0 = off).
	slowNanos atomic.Int64

	// Durability state (see durability.go). walDir is set by
	// WithDurability; log stays nil until OpenDurability succeeds, so a
	// memory-only engine pays a nil check per mutation and nothing else.
	// viewDefs maps view name → CREATE VIEW statement text (guarded by
	// mu); recovering suppresses re-logging while the log is replayed.
	walDir      string
	walFS       vfs.FS // nil = vfs.OS(); set by WithVFS
	log         *wal.Log
	recovering  bool
	compileView func(def string) error
	viewDefs    map[string]string
	recovery    *RecoveryInfo
	// Disk-degraded read-only mode (see degraded.go). degraded and
	// degradedErr are guarded by mu; retryStop/retryDone belong to the
	// background recovery goroutine running while degraded.
	degraded    bool
	degradedErr error
	retryStop   chan struct{}
	retryDone   chan struct{}
	diskBackoff time.Duration
	// recoverTID is consumed by the first untraced Advance after
	// recovery, so the catch-up expiry batch shares the recovery trace.
	recoverTID trace.ID

	// Continuous monitoring (see monitor.go in this package): mon is nil
	// unless WithMonitor was given; viewAgg is always present so views
	// accumulate cross-view totals whether or not anyone samples them.
	monOpts *monitor.Options
	mon     *monitor.Monitor
	viewAgg *view.AggMetrics
}

// Option configures an Engine.
type Option func(*Engine)

// WithSweep selects eager or lazy removal; period is the lazy sweep
// interval in ticks (ignored for eager).
func WithSweep(mode SweepMode, period xtime.Time) Option {
	return func(e *Engine) {
		e.sweepMode = mode
		if period > 0 {
			e.sweepEvery = period
		}
	}
}

// New returns an engine at tick 0.
func New(opts ...Option) *Engine {
	e := &Engine{
		cat:        catalog.New(),
		sweepEvery: 16,
		triggers:   make(map[string][]TriggerFunc),
		epochs:     make(map[string]uint64),
		tails:      make(map[string]*writeTail),
		viewWrites: make(map[string]uint64),
		events:     trace.NewLog(DefaultEventLogCapacity),
		traces:     trace.NewRing[trace.Trace](DefaultTraceLogCapacity, nil),
		viewAgg:    &view.AggMetrics{},
	}
	e.cache.Store(newResultCache(DefaultResultCacheSize))
	for _, opt := range opts {
		opt(e)
	}
	e.initMonitor()
	return e
}

// Catalog exposes the engine's catalog (shared with the SQL layer).
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Now returns the current tick.
func (e *Engine) Now() xtime.Time {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.now
}

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Inserts:        int(e.m.Inserts.Load()),
		Deletes:        int(e.m.Deletes.Load()),
		TuplesExpired:  int(e.m.TuplesExpired.Load()),
		TriggersFired:  int(e.m.TriggersFired.Load()),
		TriggerLatency: e.m.TriggerLagTicks.Load(),
		Sweeps:         int(e.m.Sweeps.Load()),
	}
}

// texpPending sums the pairs, stale ones included, held by every table's
// texp-ordered index — all the expiration bookkeeping the engine has. It
// read-locks one table at a time and allocates nothing.
func (e *Engine) texpPending() int {
	n := 0
	for _, nt := range e.cat.TableSet() {
		nt.Rel.RLock()
		n += nt.Rel.TexpPending()
		nt.Rel.RUnlock()
	}
	return n
}

// CreateTable registers a new base relation. DDL is logged and applied
// under e.mu (ordering e.mu → catalog.mu, see durability.go), so no
// record of an operation on the table can precede the table's create
// record in the WAL.
func (e *Engine) CreateTable(name string, schema tuple.Schema) error {
	e.mu.Lock()
	rel, err := e.cat.CreateTable(name, schema)
	if err != nil {
		e.mu.Unlock()
		return err
	}
	// Engine-owned tables carry the texp-ordered index from birth, making
	// "anything due?" a peek and sweeps O(k), and the INT column arrays
	// scans test ranges in. Operator results (relations built by
	// EvalStream collectors) never enable either.
	rel.EnableTexpIndex()
	rel.EnableIntArrays()
	seq, err := e.walAppend(&wal.Record{Kind: wal.KindCreateTable, Name: name, Schema: schema})
	if err != nil {
		e.cat.DropTable(name) // un-apply: the log is poisoned
		e.mu.Unlock()
		return err
	}
	e.wrote(name, relation.Row{}, false, false)
	e.mu.Unlock()
	if err := e.walSync(seq); err != nil {
		return e.walFail(err, true)
	}
	return nil
}

// DropTable removes a base relation; its expiration bookkeeping dies with
// it.
func (e *Engine) DropTable(name string) error {
	e.mu.Lock()
	if _, err := e.cat.Table(name); err != nil {
		e.mu.Unlock()
		return err
	}
	seq, err := e.walAppend(&wal.Record{Kind: wal.KindDropTable, Name: name})
	if err != nil {
		e.mu.Unlock()
		return err
	}
	e.cat.DropTable(name)
	e.wrote(name, relation.Row{}, false, false)
	e.mu.Unlock()
	if err := e.walSync(seq); err != nil {
		return e.walFail(err, true)
	}
	return nil
}

// DropView removes a view from the catalog (and from the durable state).
func (e *Engine) DropView(name string) error {
	e.mu.Lock()
	if _, err := e.cat.View(name); err != nil {
		e.mu.Unlock()
		return err
	}
	seq, err := e.walAppend(&wal.Record{Kind: wal.KindDropView, Name: name})
	if err != nil {
		e.mu.Unlock()
		return err
	}
	e.cat.DropView(name)
	delete(e.viewDefs, name)
	delete(e.viewWrites, name)
	e.mu.Unlock()
	if err := e.walSync(seq); err != nil {
		return e.walFail(err, true)
	}
	return nil
}

// OnExpire registers fn to fire whenever a tuple of table expires.
func (e *Engine) OnExpire(table string, fn TriggerFunc) error {
	if _, err := e.cat.Table(table); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.triggers[table] = append(e.triggers[table], fn)
	return nil
}

// Insert adds t to table with the absolute expiration time texp. This is
// the only place (apart from Update) where expiration times surface to
// users, in line with the paper's transparency goal.
func (e *Engine) Insert(table string, t tuple.Tuple, texp xtime.Time) error {
	return e.insert(table, t, func(xtime.Time) xtime.Time { return texp })
}

// InsertTTL adds t with a lifetime of ttl ticks from now; ttl of
// xtime.Infinity means the tuple never expires. The expiration time is
// computed against the clock inside the insert's critical section, so a
// concurrent Advance can never invalidate it between computation and use.
func (e *Engine) InsertTTL(table string, t tuple.Tuple, ttl xtime.Time) error {
	return e.insert(table, t, func(now xtime.Time) xtime.Time { return now.Add(ttl) })
}

// insert validates and stores one tuple, with texpAt mapping the clock
// reading to the tuple's expiration time. Lock order: table, then engine.
func (e *Engine) insert(table string, t tuple.Tuple, texpAt func(xtime.Time) xtime.Time) error {
	rel, err := e.cat.Table(table)
	if err != nil {
		return err
	}
	if err := rel.Schema().Validate(t); err != nil {
		return err
	}
	key := t.Key()
	rel.Lock()
	e.mu.Lock()
	texp := texpAt(e.now)
	if texp <= e.now && texp != xtime.Infinity {
		now := e.now
		e.mu.Unlock()
		rel.Unlock()
		return fmt.Errorf("engine: expiration time %v not after current tick %v", texp, now)
	}
	// Log before apply. The WAL encoder copies the tuple's bytes during
	// Append, so t may alias caller-owned (or pooled) memory that is
	// reused the moment this call returns.
	seq, err := e.walAppend(&wal.Record{Kind: wal.KindInsert, Name: table, Tuple: t, Texp: texp})
	if err != nil {
		e.mu.Unlock()
		rel.Unlock()
		return err
	}
	stored, changed, _, _ := rel.InsertStored(key, t, texp)
	e.m.Inserts.Inc()
	if changed {
		// Cached results whose leaves select the tuple absorb it or are
		// stale; a no-change duplicate leaves every result identical.
		e.wrote(table, relation.Row{Tuple: stored, Texp: texp}, false, false)
	}
	e.mu.Unlock()
	rel.Unlock()
	if err := e.walSync(seq); err != nil {
		// The insert is applied in memory but not durable. walFail
		// returns nil if inline ENOSPC reclamation checkpointed the
		// state (the insert IS durable then); otherwise the engine
		// degrades and the error reports indeterminate durability.
		return e.walFail(err, true)
	}
	return nil
}

// Delete removes t from table immediately (an explicit delete, the
// operation expiration times are designed to make rare). A tuple that has
// already expired is not there to delete, swept or not.
func (e *Engine) Delete(table string, t tuple.Tuple) (bool, error) {
	rel, err := e.cat.Table(table)
	if err != nil {
		return false, err
	}
	key := t.Key()
	rel.Lock()
	n, _, err := e.deleteKeys(table, rel, []string{key})
	return n == 1, err
}

// DeleteWhere removes, as one atomic step, every tuple alive at the
// current tick that plan selects, and returns their number and that tick.
// plan is the access path the SQL planner chose for the statement: a base
// table (every row), σ[pred](base), or an index probe of base. The victims
// are read straight off the index, or off the live relation by the scan a
// SELECT of them runs, in slot order, under the table's write lock — no
// snapshot — and only they have their set keys derived. So one history
// logs its deletes in one order. A multi-row delete is durable record by
// record: a crash may keep any prefix of it.
func (e *Engine) DeleteWhere(plan algebra.Expr) (int, xtime.Time, error) {
	var base *algebra.Base
	var pred algebra.Predicate // nil selects every row
	var ix *algebra.IndexScan  // nil scans
	switch p := plan.(type) {
	case *algebra.Base:
		base = p
	case *algebra.Select:
		base, _ = p.Child.(*algebra.Base)
		pred = p.Pred
	case *algebra.IndexScan:
		ix, base, pred = p, p.Base, p.Full
	}
	if base == nil {
		return 0, 0, fmt.Errorf("engine: DELETE needs a single-table access path, got %s", plan)
	}
	rel := base.Rel
	rel.Lock()
	now := e.Now()
	var keys []string
	if ix == nil || !ix.Probe(now, func(en index.Entry) { keys = append(keys, en.Key) }) {
		// σ over a base relation streams without error.
		scan := &algebra.Select{Pred: pred, Child: base}
		_, _ = scan.Stream(now, func(row relation.Row) { keys = append(keys, row.Tuple.Key()) })
	}
	return e.deleteKeys(base.Name, rel, keys)
}

// deleteKeys removes the rows of table stored under keys and alive at the
// current tick, logging one delete record per row in apply order, moving
// the table's epoch once and recording every removed tuple; it returns the
// rows removed and the tick. The caller holds rel's write lock, which
// deleteKeys releases before the statement's single fsync. A log failure
// stops the loop: rows already removed stay removed (and logged), the rest
// are untouched.
func (e *Engine) deleteKeys(table string, rel *relation.Relation, keys []string) (n int, now xtime.Time, err error) {
	rec := wal.Record{Kind: wal.KindDelete, Name: table}
	var seq uint64
	e.mu.Lock()
	now = e.now
	if cur, cerr := e.cat.Table(table); cerr != nil || cur != rel {
		// Lost a race with DROP TABLE: logging against the dropped (or
		// re-created) name would make the log unreplayable.
		keys, err = nil, fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	for _, key := range keys {
		// The clock may have moved since the caller picked its victims; a
		// row that expired meanwhile belongs to the expiry pipeline.
		row, ok := rel.RowByKey(key)
		if !ok || row.Texp <= now {
			continue
		}
		rec.Key = key
		s, aerr := e.walAppend(&rec)
		if aerr != nil {
			err = aerr
			break
		}
		seq = s
		rel.DeleteKey(key)
		e.wrote(table, row, true, n > 0)
		n++
	}
	e.m.Deletes.Add(int64(n))
	e.mu.Unlock()
	rel.Unlock()
	if serr := e.walSync(seq); serr != nil && err == nil {
		err = e.walFail(serr, true)
	}
	return n, now, err
}

// firedEvent is an expiration whose triggers are due for dispatch.
type firedEvent struct {
	table string
	row   relation.Row
	at    xtime.Time
}

// Advance moves the logical clock to tick to, firing expirations along
// the way. It is the heartbeat of the engine. Triggers run after the
// clock has moved and without holding the engine or table locks, so they
// may freely issue engine operations (inserts, deletes, queries, view
// reads) — but not Advance or Sweep, which serialise on the same
// pipeline mutex.
func (e *Engine) Advance(to xtime.Time) error { return e.AdvanceTraced(to, 0) }

// AdvanceTraced is Advance with the caller's trace ID, so the lifecycle
// events the advance causes (expiry batches, sweeps, view invalidations)
// are attributable to the statement that moved the clock.
// A zero ID is replaced with a fresh one.
func (e *Engine) AdvanceTraced(to xtime.Time, tid trace.ID) error {
	e.advMu.Lock()
	defer e.advMu.Unlock()
	start := time.Now()

	// The first advance after a recovery is the catch-up batch: its
	// expirations were missed during downtime, so their lag is recorded
	// in the SLO tracker's separate catch-up series, and an untraced
	// advance inherits the recovery trace ID, tying the batch to the
	// boot event that found it.
	catchup := false
	e.mu.Lock()
	if e.recoverTID != 0 {
		if tid == 0 {
			tid = e.recoverTID
		}
		// Only an advance that dispatches expirations missed during real
		// downtime is the catch-up batch; a fresh-directory boot carries a
		// recovery trace ID but has nothing to catch up, and its first
		// advance is ordinary steady-state traffic for the lag SLO.
		catchup = e.recovery != nil && e.recovery.Recovered
		e.recoverTID = 0
	}
	e.mu.Unlock()
	if tid == 0 {
		tid = trace.NextID()
	}

	e.mu.Lock()
	if to < e.now {
		now := e.now
		e.mu.Unlock()
		return fmt.Errorf("engine: cannot advance backwards from %v to %v", now, to)
	}
	seq, walErr := e.walAppendRelaxed(&wal.Record{Kind: wal.KindAdvance, Texp: to})
	var sweeps []xtime.Time
	if e.sweepMode == SweepLazy {
		// Sweep at each multiple of sweepEvery crossed by the advance, so
		// trigger latency is bounded by the period.
		for tick := e.lastSweep + e.sweepEvery; tick <= to; tick += e.sweepEvery {
			sweeps = append(sweeps, tick)
			e.lastSweep = tick
		}
	}
	e.now = to
	e.mu.Unlock()

	// The advance record must be durable before any trigger observes the
	// clock movement: replay then never re-fires a trigger that fired
	// before a crash (a crash inside the dispatch window below degrades
	// exactly-once to at-most-once; missed expirations fire in the first
	// post-recovery advance). A disk failure here must NOT stop the
	// clock: expiry is a pure function of stored texp values and memory
	// remains authoritative, so the engine degrades to read-only and the
	// advance proceeds unlogged — the recovery checkpoint captures its
	// effects wholesale.
	if walErr == nil {
		walErr = e.walSync(seq)
	}
	if walErr != nil {
		e.walFail(walErr, false)
	}

	// The clock is at to: result-cache entries whose ValidUntil it
	// reached are drained by the same heartbeat that expires tuples.
	e.cacheExpire(to, tid)

	var events []firedEvent
	if e.sweepMode == SweepEager {
		events = e.sweepTables(to, tid, catchup, true)
	} else {
		for _, tick := range sweeps {
			events = append(events, e.sweepTables(tick, tid, catchup, false)...)
		}
	}
	watches := e.checkWatches(to, tid)
	e.dispatch(events)
	for _, fw := range watches {
		fw.watch.fn(fw.watch.name, fw.at)
	}
	e.m.Advances.Inc()
	e.m.AdvanceNanos.Observe(time.Since(start).Nanoseconds())
	e.observeAdvanceHeartbeat()
	return nil
}

// sweepTables removes every tuple expired at tick from every table by
// draining each table's texp-ordered index, one table lock at a time;
// tables with nothing due are only read-locked for the peek. Eager
// expiration is a sweep on every advance that stamps each trigger with
// the tuple's own expiration time (at = texp, in texp order across
// tables); a lazy or manual sweep stamps the sweep tick, so tick − texp
// is the §3.2 grid-period latency. Each table that shed tuples gets one
// lifecycle event tagged with tid, and each removed tuple's dispatch lag
// feeds the SLO tracker — a catchup batch (the first advance after
// recovery) goes to its own labelled series so downtime never reads as a
// lag breach.
func (e *Engine) sweepTables(tick xtime.Time, tid trace.ID, catchup, eager bool) []firedEvent {
	var events []firedEvent
	var latency int64
	kind, shed := trace.EvSweep, 0
	if eager {
		kind = trace.EvExpiry
	}
	slo := e.slo()
	for _, nt := range e.cat.TableSet() {
		nt.Rel.RLock()
		due := nt.Rel.ExpiresBy(tick)
		nt.Rel.RUnlock()
		if !due {
			continue
		}
		nt.Rel.Lock()
		removed := nt.Rel.RemoveExpired(tick)
		nt.Rel.Unlock()
		if len(removed) == 0 {
			continue
		}
		shed++
		for _, row := range removed {
			at := tick
			if eager {
				at = row.Texp
			}
			latency += int64(at - row.Texp)
			slo.ObserveDispatch(int64(tick-row.Texp), catchup)
			events = append(events, firedEvent{table: nt.Name, row: row, at: at})
		}
		e.events.Emit(trace.Event{
			Trace: tid, Kind: kind, Name: nt.Name,
			Tick: tick, Count: int64(len(removed)),
		})
	}
	if eager {
		if shed > 1 {
			// Each table's batch is already in (texp, key) order; a stable
			// sort over tables visited by name fixes the merged order.
			sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
		}
		if len(events) == 0 {
			return nil
		}
	} else {
		e.m.Sweeps.Inc()
	}
	e.m.TuplesExpired.Add(int64(len(events)))
	e.m.TriggerLagTicks.Add(latency)
	e.m.ExpiryBatch.Observe(int64(len(events)))
	return events
}

// Sweep forces a lazy batch sweep at the current tick. It does not move
// lastSweep: the periodic sweep grid stays anchored at multiples of
// sweepEvery, so a manual off-grid sweep cannot shift every future
// automatic sweep off the grid advanceLazy documents.
func (e *Engine) Sweep() error {
	e.advMu.Lock()
	defer e.advMu.Unlock()
	e.mu.Lock()
	now := e.now
	seq, walErr := e.walAppendRelaxed(&wal.Record{Kind: wal.KindSweep, Texp: now})
	e.mu.Unlock()
	// Durable before the removals' triggers can run, mirroring Advance —
	// and like Advance, a disk failure degrades instead of blocking the
	// sweep: the removals are pure expiry work, recoverable from texp.
	if walErr == nil {
		walErr = e.walSync(seq)
	}
	if walErr != nil {
		e.walFail(walErr, false)
	}
	events := e.sweepTables(now, trace.NextID(), false, false)
	e.dispatch(events)
	return nil
}

// dispatch runs triggers outside the engine and table locks, snapshotting
// each table's trigger slice once per batch rather than re-locking per
// event.
func (e *Engine) dispatch(events []firedEvent) {
	if len(events) == 0 {
		return
	}
	e.mu.Lock()
	snaps := make(map[string][]TriggerFunc)
	fired := 0
	for _, ev := range events {
		fns, ok := snaps[ev.table]
		if !ok {
			fns = append([]TriggerFunc(nil), e.triggers[ev.table]...)
			snaps[ev.table] = fns
		}
		fired += len(fns)
	}
	e.mu.Unlock()
	e.m.TriggersFired.Add(int64(fired))
	for _, ev := range events {
		for _, fn := range snaps[ev.table] {
			fn(ev.table, ev.row, ev.at)
		}
	}
}

// Base returns an algebra leaf for the named table, for building
// expressions against this engine.
func (e *Engine) Base(table string) (*algebra.Base, error) {
	rel, err := e.cat.Table(table)
	if err != nil {
		return nil, err
	}
	return algebra.NewBase(table, rel), nil
}

// CreateView registers and materialises a view at the current tick.
// Views created through this programmatic API carry no SQL definition
// and are therefore NOT durable — they vanish on recovery. SQL-created
// views go through CreateViewDef, which logs the statement text.
func (e *Engine) CreateView(name string, expr algebra.Expr, opts ...view.Option) (*view.View, error) {
	return e.CreateViewDef(name, "", expr, opts...)
}

// CreateViewDef is CreateView with the CREATE VIEW statement text that
// reproduces the view. A non-empty def is logged to the WAL (and carried
// into snapshots), so recovery can recompile the view through the SQL
// layer; an empty def makes the view memory-only.
func (e *Engine) CreateViewDef(name, def string, expr algebra.Expr, opts ...view.Option) (*view.View, error) {
	// Every engine-created view feeds the shared cross-view aggregates,
	// so the monitor can sample fleet-wide maintenance totals lock-free.
	opts = append(opts, view.WithAggregate(e.viewAgg))
	v, err := view.New(name, expr, opts...)
	if err != nil {
		return nil, err
	}
	// Registered before it is materialised, under its own lock: a read
	// waits for the rows, and a name already taken is refused first.
	v.Lock()
	unlock := e.rlockBases(expr)
	e.mu.RLock()
	now := e.now
	e.mu.RUnlock()
	err = e.cat.RegisterView(v)
	if err == nil {
		if err = e.rematerialize(v, now, trace.NextID()); err != nil {
			e.cat.DropView(name)
		}
	}
	unlock()
	v.Unlock()
	if err != nil {
		return nil, err
	}
	var seq uint64
	if def != "" {
		e.mu.Lock()
		if e.viewDefs == nil {
			e.viewDefs = make(map[string]string)
		}
		e.viewDefs[name] = def
		seq, err = e.walAppend(&wal.Record{Kind: wal.KindCreateView, Name: name, Def: def})
		e.mu.Unlock()
		if err != nil {
			e.cat.DropView(name) // un-apply: the log is poisoned
			return nil, err
		}
	}
	if err := e.walSync(seq); err != nil {
		if err = e.walFail(err, true); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// ReadView answers a query against the named view at the current tick.
// Reads may mutate the view (patch application, recomputation), so the
// view's own lock is held, plus read locks on its base relations.
func (e *Engine) ReadView(name string) (*relation.Relation, view.ReadInfo, error) {
	return e.ReadViewTraced(name, 0)
}

// ReadViewTraced is ReadView with the caller's trace ID; a zero ID is
// replaced with a fresh one. The returned ReadInfo carries the ID
// actually used, and the lifecycle events the read emits (cache hit vs
// patch vs recompute vs move, plus budget evictions) are derived from
// that same ReadInfo.
func (e *Engine) ReadViewTraced(name string, tid trace.ID) (*relation.Relation, view.ReadInfo, error) {
	if tid == 0 {
		tid = trace.NextID()
	}
	v, err := e.cat.View(name)
	if err != nil {
		return nil, view.ReadInfo{}, err
	}
	v.Lock()
	defer v.Unlock()
	unlock := e.rlockBases(v.Expr())
	defer unlock()
	e.mu.RLock()
	now := e.now
	e.mu.RUnlock()
	evictedBefore := v.Stats().BudgetEvictions
	rel, info, err := v.Read(now)
	if err != nil {
		return nil, view.ReadInfo{}, err
	}
	info.TraceID = tid
	if info.Source == view.SourceRecomputed {
		e.noteMaterialized(v)
	}
	e.emitReadEvents(name, now, info, v.Stats().BudgetEvictions-evictedBefore)
	return rel, info, nil
}

// RefreshView re-materialises the named view at the current tick.
func (e *Engine) RefreshView(name string) error { return e.RefreshViewTraced(name, 0) }

// RefreshViewTraced is RefreshView with the caller's trace ID; a zero ID
// is replaced with a fresh one.
func (e *Engine) RefreshViewTraced(name string, tid trace.ID) error {
	if tid == 0 {
		tid = trace.NextID()
	}
	v, err := e.cat.View(name)
	if err != nil {
		return err
	}
	v.Lock()
	defer v.Unlock()
	unlock := e.rlockBases(v.Expr())
	defer unlock()
	e.mu.RLock()
	now := e.now
	e.mu.RUnlock()
	return e.rematerialize(v, now, tid)
}

// rematerialize (re)computes v at now, records what its base tables had been
// written by then and reports the recomputation. The caller holds v's lock
// and its base tables' read locks.
func (e *Engine) rematerialize(v *view.View, now xtime.Time, tid trace.ID) error {
	if err := v.Materialize(now); err != nil {
		return err
	}
	e.noteMaterialized(v)
	e.events.Emit(trace.Event{
		Trace: tid, Kind: trace.EvViewRecompute, Name: v.Name(),
		Tick: now, Texp: v.Texp(),
	})
	return nil
}

// viewStaleness moves v's mark to the writes its base tables have seen by
// now when mark is set, and returns how many they have seen since the mark.
func (e *Engine) viewStaleness(v *view.View, mark bool) uint64 {
	tables := leafTables(v.Expr(), nil, false)
	e.mu.Lock()
	defer e.mu.Unlock()
	var sum uint64
	for _, t := range tables {
		sum += e.epochs[t.name]
	}
	if mark {
		e.viewWrites[v.Name()] = sum
	}
	return sum - e.viewWrites[v.Name()]
}

// noteMaterialized records what v's base tables had been written when v was
// (re)materialised. The caller still holds their read locks, so the sum
// belongs to the rows the materialisation saw.
func (e *Engine) noteMaterialized(v *view.View) { e.viewStaleness(v, true) }
