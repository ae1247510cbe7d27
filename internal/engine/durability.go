package engine

import (
	"fmt"
	"sort"

	"expdb/internal/catalog"
	"expdb/internal/relation"
	"expdb/internal/trace"
	"expdb/internal/wal"
	"expdb/internal/xtime"
)

// Durability layers a write-ahead log under the engine's mutation paths.
//
// The protocol is log-before-apply with group-commit fsync: every
// mutation appends its record under e.mu — the same critical section
// that applies it, so WAL order equals apply order — and fsyncs after
// releasing its locks, batching with concurrent committers. Only the
// operations a crash must reconstruct are logged: inserts (with the
// resolved absolute texp), deletes, clock advances, sweeps and DDL.
// Expiration removals are never logged individually — they are implied
// by the advance/sweep record that caused them, and nothing else about
// expiry is persisted: texp is durable metadata, and each table's
// texp-ordered index is derived state that replaying the rows rebuilds.
//
// Trigger semantics across a crash: an advance's record is durable
// before its ON-EXPIRE triggers run, so replay never re-fires a trigger
// that fired before the crash. Expirations whose tick passed while the
// system was down fire in the first post-recovery Advance, each stamped
// with its original texp (at-most-once for a crash that lands inside
// trigger dispatch itself; exactly-once otherwise).
//
// Lock note: durability adds the ordering e.mu → catalog.mu (DDL logs
// and applies under e.mu). The catalog lock was previously a free leaf;
// it remains a leaf below e.mu, and no code path acquires e.mu while
// holding catalog.mu, so the hierarchy stays acyclic.

// RecoveryInfo reports what OpenDurability reconstructed.
type RecoveryInfo struct {
	// Recovered is false for a fresh (empty) data directory.
	Recovered bool
	// Clock is the restored logical time.
	Clock xtime.Time
	// SnapshotGen is the snapshot generation recovery started from (0 if
	// recovery replayed the log from scratch).
	SnapshotGen uint64
	// Tables, Views and Rows count the reconstructed catalog.
	Tables, Views, Rows int
	// Records is the number of log records replayed on top of the
	// snapshot.
	Records int
	// Truncated reports that a torn or corrupt log tail was cut back to
	// the last valid record.
	Truncated bool
	// TraceID tags the recovery: the boot lifecycle event carries it, and
	// the first Advance after recovery — the catch-up batch that fires
	// expirations missed during downtime — inherits it.
	TraceID trace.ID
}

// WithDurability makes the engine durable: every mutation is logged to
// dir before it is acknowledged, and any state found in dir is recovered
// at open. The engine option only records the directory; recovery runs
// when OpenDurability is called (the expdb facade does this, passing the
// SQL-layer view compiler).
func WithDurability(dir string) Option {
	return func(e *Engine) { e.walDir = dir }
}

// DurabilityDir returns the directory configured with WithDurability
// ("" for a memory-only engine).
func (e *Engine) DurabilityDir() string { return e.walDir }

// OpenDurability opens (or creates) the write-ahead log in the engine's
// configured directory and recovers any prior state: the highest
// complete snapshot and the log suffix on top of it. compileView
// recompiles a logged CREATE VIEW statement (the facade passes the SQL
// session's Exec); it may be nil if no views will ever be logged.
//
// It must be called once, before the engine serves any operation.
func (e *Engine) OpenDurability(compileView func(def string) error) (*RecoveryInfo, error) {
	if e.walDir == "" {
		return nil, fmt.Errorf("engine: durability directory not configured (use WithDurability)")
	}
	if e.log != nil {
		return nil, fmt.Errorf("engine: durability already open")
	}
	log, recovered, err := wal.OpenFS(e.walDir, e.walFSOrOS())
	if err != nil {
		return nil, err
	}
	e.compileView = compileView
	e.recovering = true
	info, err := e.replay(recovered)
	e.recovering = false
	if err != nil {
		return nil, err
	}
	// Only arm the log once replay succeeded: a failed recovery leaves
	// the engine memory-only and the on-disk state untouched. Stored
	// under mu because the monitor's health checks read these fields
	// concurrently from the watchdog goroutine.
	e.mu.Lock()
	e.log = log
	e.recovery = info
	e.recoverTID = info.TraceID
	e.mu.Unlock()
	e.events.Emit(trace.Event{
		Trace: info.TraceID, Kind: trace.EvRecovery, Tick: info.Clock,
		Count: int64(info.Records),
	})
	return info, nil
}

// Recovery returns the info from OpenDurability, or nil for a
// memory-only engine (or one opened on a fresh directory — Recovered
// distinguishes that).
func (e *Engine) Recovery() *RecoveryInfo { return e.recovery }

// CloseDurability stops any background disk recovery, then flushes and
// closes the log. The engine must not mutate afterwards. Closing while
// degraded returns the poisoning error — the shutdown is loud about the
// state it could not persist.
func (e *Engine) CloseDurability() error {
	e.mu.Lock()
	stop, done := e.retryStop, e.retryDone
	e.retryStop, e.retryDone = nil, nil
	e.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	e.mu.RLock()
	log := e.log
	e.mu.RUnlock()
	if log == nil {
		return nil
	}
	return log.Close()
}

// replay rebuilds engine state from disk: snapshot, then log suffix.
// Runs with e.recovering set, so the apply paths it calls into do not
// re-log. No expiration schedule is reconstructed: the replayed rows fill
// each table's texp-ordered index as they are inserted, and the first
// Advance drains whatever expired during the downtime.
func (e *Engine) replay(r *wal.Recovered) (*RecoveryInfo, error) {
	info := &RecoveryInfo{TraceID: trace.NextID(), SnapshotGen: r.SnapshotGen}
	if snap := r.Snapshot; snap != nil {
		info.Recovered = true
		e.now = snap.Clock
		e.lastSweep = snap.LastSweep
		for _, t := range snap.Tables {
			rel, err := e.cat.CreateTable(t.Name, t.Schema)
			if err != nil {
				return nil, fmt.Errorf("engine: recover table %s: %w", t.Name, err)
			}
			rel.EnableTexpIndex()
			rel.EnableIntArrays()
			for _, row := range t.Rows {
				// Decoded tuples are fresh memory the relation may own. A
				// due lifetime precedes its tuple's row, so it is due again.
				rel.InsertStored(row.Tuple.Key(), row.Tuple, row.Texp, e.now, true)
			}
		}
		// Indexes after the rows — the attach-time backfill sees the full
		// table — and before the views, whose recompiled plans are chosen
		// once, from the indexes attached at that moment.
		for _, ix := range snap.Indexes {
			if err := e.recoverIndex(ix.Name, ix.Def); err != nil {
				return nil, err
			}
		}
		for _, v := range snap.Views {
			if err := e.recoverView(v.Name, v.Def); err != nil {
				return nil, err
			}
		}
	}
	stats, err := r.Replay(func(rec *wal.Record) error { return e.applyRecord(rec) })
	if err != nil {
		return nil, err
	}
	info.Records = stats.Records
	info.Truncated = stats.Truncated
	if stats.Records > 0 {
		info.Recovered = true
	}
	info.Clock = e.now
	info.Tables = len(e.cat.Tables())
	info.Views = len(e.cat.Views())
	for _, nt := range e.cat.TableSet() {
		info.Rows += nt.Rel.Len()
	}
	return info, nil
}

// applyRecord applies one replayed log record. The engine is
// single-goroutine during recovery, so no locks are taken.
func (e *Engine) applyRecord(rec *wal.Record) error {
	switch rec.Kind {
	case wal.KindInsert:
		rel, err := e.cat.Table(rec.Name)
		if err != nil {
			return err
		}
		rel.InsertStored(rec.Tuple.Key(), rec.Tuple, rec.Texp, e.now, true)
	case wal.KindDelete:
		rel, err := e.cat.Table(rec.Name)
		if err != nil {
			return err
		}
		rel.DeleteKey(rec.Key)
	case wal.KindAdvance:
		e.replayAdvance(rec.Texp)
	case wal.KindSweep:
		// A manual sweep removed everything expired at its tick; the
		// triggers fired before the crash.
		for _, nt := range e.cat.TableSet() {
			nt.Rel.RemoveExpired(rec.Texp)
		}
	case wal.KindCreateTable:
		rel, err := e.cat.CreateTable(rec.Name, rec.Schema)
		if err != nil {
			return err
		}
		rel.EnableTexpIndex()
		rel.EnableIntArrays()
	case wal.KindDropTable:
		if err := e.cat.DropTable(rec.Name); err != nil {
			return err
		}
	case wal.KindCreateView:
		return e.recoverView(rec.Name, rec.Def)
	case wal.KindCreateIndex:
		return e.recoverIndex(rec.Name, rec.Def)
	case wal.KindDropIndex:
		def, err := e.cat.DropIndex(rec.Name)
		if err != nil {
			return err
		}
		if rel, err := e.cat.Table(def.Table); err == nil {
			rel.DetachIndex(rec.Name)
		}
	case wal.KindDropView:
		if err := e.cat.DropView(rec.Name); err != nil {
			return err
		}
		delete(e.viewDefs, rec.Name)
	default:
		return fmt.Errorf("engine: unexpected %s record in log", rec.Kind)
	}
	return nil
}

// replayAdvance moves the recovering clock to to, physically removing
// exactly the tuples the original advance removed — without firing
// triggers (they fired before the crash).
func (e *Engine) replayAdvance(to xtime.Time) {
	if e.sweepMode == SweepEager {
		// Eager expiry removed every tuple with texp ≤ to at the tick it
		// expired.
		for _, nt := range e.cat.TableSet() {
			nt.Rel.RemoveExpired(to)
		}
	} else {
		// Lazy sweeps ran at each grid tick the advance crossed; tuples
		// expired after the last crossed tick stayed physically present,
		// their (late) trigger obligation pending — keep them so it
		// survives the crash.
		swept := false
		for tick := e.lastSweep + e.sweepEvery; tick <= to; tick += e.sweepEvery {
			e.lastSweep = tick
			swept = true
		}
		if swept {
			for _, nt := range e.cat.TableSet() {
				nt.Rel.RemoveExpired(e.lastSweep)
			}
		}
	}
	e.now = to
}

// recoverView recompiles one view definition through the SQL layer.
func (e *Engine) recoverView(name, def string) error {
	if e.compileView == nil {
		return fmt.Errorf("engine: cannot recover view %s: no view compiler", name)
	}
	if err := e.compileView(def); err != nil {
		return fmt.Errorf("engine: recover view %s: %w", name, err)
	}
	if e.viewDefs == nil {
		e.viewDefs = make(map[string]string)
	}
	e.viewDefs[name] = def
	return nil
}

// walAppend logs one record. Callers hold e.mu (that is what makes WAL
// order equal apply order); with durability off or during replay it is a
// no-op. In degraded mode it returns ErrReadOnly — the caller must NOT
// apply the mutation. The returned sequence number feeds walSync after
// the caller has released its locks. appendRecord copies every byte of
// rec before returning, so rec may alias caller-owned tuples and pooled
// key buffers.
func (e *Engine) walAppend(rec *wal.Record) (uint64, error) {
	if e.log == nil || e.recovering {
		return 0, nil
	}
	if e.degraded {
		return 0, ErrReadOnly
	}
	seq, err := e.log.Append(rec)
	if err != nil {
		return 0, fmt.Errorf("engine: wal append: %w", err)
	}
	return seq, nil
}

// walAppendRelaxed is walAppend for the Advance/Sweep pipeline, which
// must keep expiring from memory whatever the disk does: while degraded
// it silently skips logging (seq 0) instead of rejecting, and an append
// failure is returned for the caller to hand to walFail — not to abort
// on. The skipped records are not lost state: expiration is a pure
// function of stored texp values and the clock, and the recovery
// checkpoint captures the post-advance state wholesale.
func (e *Engine) walAppendRelaxed(rec *wal.Record) (uint64, error) {
	if e.log == nil || e.recovering || e.degraded {
		return 0, nil
	}
	seq, err := e.log.Append(rec)
	if err != nil {
		return 0, fmt.Errorf("engine: wal append: %w", err)
	}
	return seq, nil
}

// walSync blocks until the record at seq is durable. Must be called
// WITHOUT holding any engine, table or view lock — the fsync wait is the
// group-commit batching point and must not serialise the in-memory fast
// path.
func (e *Engine) walSync(seq uint64) error {
	if e.log == nil || seq == 0 {
		return nil
	}
	if err := e.log.Sync(seq); err != nil {
		return fmt.Errorf("engine: wal sync: %w", err)
	}
	return nil
}

// Checkpoint writes a snapshot of the current state and truncates the
// log to it: rotate to a fresh segment, capture every table (zero-copy,
// via shared snapshots), the view definitions and the clock under a
// global quiescent point, then write the snapshot file and delete the
// generations it covers. Mutations proceed again as soon as the capture
// — not the file write — is done.
func (e *Engine) Checkpoint() error {
	e.mu.RLock()
	log := e.log
	degraded := e.degraded
	e.mu.RUnlock()
	if log == nil {
		return fmt.Errorf("engine: durability not enabled")
	}
	if degraded {
		// Recovery IS a checkpoint (see recoverDiskLocked); a second one
		// against the poisoned log cannot succeed.
		return fmt.Errorf("engine: checkpoint: %w", ErrReadOnly)
	}
	// advMu first: an in-flight advance may have logged its record but
	// not yet applied its removals; quiescing the pipeline keeps the
	// snapshot consistent with the rotation point.
	e.advMu.Lock()
	defer e.advMu.Unlock()
	snap, err := e.checkpoint(log, log.Rotate)
	if err != nil {
		return err
	}
	e.events.Emit(trace.Event{
		Trace: trace.NextID(), Kind: trace.EvCheckpoint, Tick: snap.Clock,
		Count: int64(len(snap.Tables)),
	})
	return nil
}

// checkpoint is the one snapshot writer, behind Checkpoint and disk
// recovery: at the lockAllTables quiescent point it asks gen for the
// generation to write — Checkpoint rotates the log there, recovery names
// its fresh log's — and captures the state; then, every lock released, it
// serialises the capture, writes it as that generation's snapshot and
// removes every older generation. The caller holds advMu. A failing gen
// is a disk fault, not a caller mistake: the engine degrades, so writes
// fail fast with ErrReadOnly and the background loop takes over (advMu is
// held, so no inline recovery here).
func (e *Engine) checkpoint(log *wal.Log, gen func() (uint64, error)) (*wal.Snapshot, error) {
	tables := e.lockAllTables()
	g, err := gen()
	if err != nil {
		e.unlockAll(tables)
		return nil, e.walFail(err, false)
	}
	snap, shared := e.captureLocked(tables)
	e.unlockAll(tables)
	serializeTables(snap, tables, shared)
	if err := wal.WriteSnapshotFS(log.FS(), wal.SnapshotPath(log.Dir(), g), snap); err != nil {
		return nil, err
	}
	if err := log.RemoveBelow(g); err != nil {
		return nil, err
	}
	e.m.Checkpoints.Inc()
	return snap, nil
}

// lockAllTables locks every table (ascending LockOrder) and then e.mu,
// re-checking under e.mu that no DDL changed the table set while the
// locks were acquired. On return the caller holds every table lock plus
// e.mu — the global quiescent point a checkpoint captures at — which
// unlockAll releases.
func (e *Engine) lockAllTables() []catalog.NamedTable {
	var tables []catalog.NamedTable
	for {
		// Copy before sorting: the catalog's table set is shared.
		tables = append(tables[:0], e.cat.TableSet()...)
		sort.Slice(tables, func(i, j int) bool {
			return tables[i].Rel.LockOrder() < tables[j].Rel.LockOrder()
		})
		for _, nt := range tables {
			nt.Rel.Lock()
		}
		e.mu.Lock()
		if tablesMatch(tables, e.cat.TableSet()) {
			return tables
		}
		e.unlockAll(tables)
	}
}

// unlockAll releases what lockAllTables took.
func (e *Engine) unlockAll(tables []catalog.NamedTable) {
	e.mu.Unlock()
	for i := len(tables) - 1; i >= 0; i-- {
		tables[i].Rel.Unlock()
	}
}

// captureLocked captures the snapshot header, view definitions and
// zero-copy shared images of every table. Caller holds the lockAllTables
// quiescent point.
func (e *Engine) captureLocked(tables []catalog.NamedTable) (*wal.Snapshot, []*relation.Relation) {
	snap := &wal.Snapshot{Clock: e.now, LastSweep: e.lastSweep}
	shared := make([]*relation.Relation, len(tables))
	for i, nt := range tables {
		shared[i] = nt.Rel.SnapshotShared(0)
	}
	for name, def := range e.viewDefs {
		snap.Views = append(snap.Views, wal.SnapshotView{Name: name, Def: def})
	}
	sort.Slice(snap.Views, func(i, j int) bool { return snap.Views[i].Name < snap.Views[j].Name })
	for _, def := range e.cat.Indexes() {
		if def.Def == "" {
			continue // programmatic index with no statement text: memory-only
		}
		snap.Indexes = append(snap.Indexes, wal.SnapshotIndex{Name: def.Name, Def: def.Def})
	}
	return snap, shared
}

// serializeTables expands the shared table images into snapshot rows.
// Runs outside every lock: the shared snapshots are immutable
// copy-on-write images, so concurrent mutations detach rather than
// corrupt them.
func serializeTables(snap *wal.Snapshot, tables []catalog.NamedTable, shared []*relation.Relation) {
	for i, nt := range tables {
		st := wal.SnapshotTable{Name: nt.Name, Schema: nt.Rel.Schema()}
		shared[i].All(func(row relation.Row) {
			st.Rows = append(st.Rows, wal.SnapshotRow{Tuple: row.Tuple, Texp: row.Texp})
		})
		snap.Tables = append(snap.Tables, st)
	}
}

// tablesMatch reports whether two table-set snapshots name the same
// relations.
func tablesMatch(a, b []catalog.NamedTable) bool {
	if len(a) != len(b) {
		return false
	}
	rels := make(map[*relation.Relation]bool, len(a))
	for _, nt := range a {
		rels[nt.Rel] = true
	}
	for _, nt := range b {
		if !rels[nt.Rel] {
			return false
		}
	}
	return true
}
