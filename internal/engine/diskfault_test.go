package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"expdb/internal/trace"
	"expdb/internal/tuple"
	"expdb/internal/vfs"
	"expdb/internal/workload"
	"expdb/internal/xtime"
)

// Disk-fault suite (run with -run DiskFault): every fault class the
// injectable VFS can script — fsync failure, ENOSPC, EIO on read, torn
// write — against the degraded-state machine. The invariants under test:
// reads stay oracle-correct whether healthy or degraded, writes fail
// only with ErrReadOnly or the explicit injected error, recovery
// restores exactly the durable prefix, and ENOSPC with reclaimable
// expired tuples never even enters degraded mode. TestDiskFaultProperty
// arms each fault class under an engine-level workload; the replay matrix's
// durable cells (internal/sql) arm them under a seeded SQL stream.

// openFaulty opens a durable engine whose disk access runs through ffs.
// The huge retry backoff keeps the background loop dormant so tests
// drive recovery deterministically via TryDiskRecovery.
func openFaulty(t *testing.T, dir string, ffs *vfs.FaultFS, opts ...Option) *Engine {
	t.Helper()
	e, _ := openDurable(t, dir,
		append([]Option{WithVFS(ffs), WithDiskRetryBackoff(time.Hour)}, opts...)...)
	return e
}

// countEvents tallies ring events of one kind.
func countEvents(e *Engine, kind trace.EventKind) int {
	n := 0
	for _, ev := range e.Events().Snapshot(0) {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// TestDiskFaultFsyncLifecycle walks the whole degraded-state machine:
// healthy → fsync failure → read-only degraded (reads and Advance keep
// working from memory) → heal → recovery checkpoint → healthy again →
// clean shutdown → reboot recovers everything that was applied.
func TestDiskFaultFsyncLifecycle(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFault(vfs.OS())
	e := openFaulty(t, dir, ffs)
	if got := e.DurabilityState(); got != DurabilityHealthy {
		t.Fatalf("state = %v, want healthy", got)
	}

	if err := e.CreateTable("sess", tuple.IntCols("id", "v")); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		if err := e.Insert("sess", tuple.Ints(i, i), xtime.Time(10+i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	// Every fsync fails until healed.
	ffs.FailSyncs(0, -1, nil)
	err := e.Insert("sess", tuple.Ints(6, 6), 100)
	if err == nil {
		t.Fatal("insert during fsync fault: want error")
	}
	if errors.Is(err, ErrReadOnly) {
		t.Fatalf("first failing insert should surface the I/O error, got ErrReadOnly")
	}
	if !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	// The faulting insert IS applied in memory (indeterminate durability).
	if rows := tableRows(e)["sess"]; len(rows) != 6 {
		t.Fatalf("rows after fault = %d, want 6", len(rows))
	}

	if got := e.DurabilityState(); got != DurabilityDegraded {
		t.Fatalf("state = %v, want degraded", got)
	}
	if e.DegradedErr() == nil {
		t.Fatal("DegradedErr = nil while degraded")
	}
	if e.WALErr() != nil {
		t.Fatalf("WALErr = %v while degraded; degraded is readiness, not liveness", e.WALErr())
	}
	if n := countEvents(e, trace.EvDiskDegraded); n != 1 {
		t.Fatalf("EvDiskDegraded events = %d, want 1", n)
	}
	if got := e.Metrics().DiskFaults; got != 1 {
		t.Fatalf("DiskFaults = %d, want 1", got)
	}

	// Writes are rejected with ErrReadOnly and NOT applied.
	if err := e.Insert("sess", tuple.Ints(7, 7), 100); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("degraded insert err = %v, want ErrReadOnly", err)
	}
	if _, err := e.Delete("sess", tuple.Ints(1, 1)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("degraded delete err = %v, want ErrReadOnly", err)
	}
	if err := e.CreateTable("other", tuple.IntCols("id", "v")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("degraded create err = %v, want ErrReadOnly", err)
	}
	if err := e.Checkpoint(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("degraded checkpoint err = %v, want ErrReadOnly", err)
	}
	if rows := tableRows(e)["sess"]; len(rows) != 6 {
		t.Fatalf("rows after rejected writes = %d, want 6", len(rows))
	}

	// The clock keeps moving and expiry keeps firing from memory.
	fired := recordFirings(t, e, "sess")
	if err := e.Advance(12); err != nil {
		t.Fatalf("degraded advance: %v", err)
	}
	if len(*fired) != 2 { // texp 11 and 12
		t.Fatalf("degraded advance fired %d triggers, want 2", len(*fired))
	}
	if rows := tableRows(e)["sess"]; len(rows) != 4 {
		t.Fatalf("rows after degraded advance = %d, want 4", len(rows))
	}

	// Recovery fails while the fault is armed, succeeds once healed.
	if err := e.TryDiskRecovery(); err == nil {
		t.Fatal("recovery with fault armed: want error")
	}
	ffs.Heal()
	if err := e.TryDiskRecovery(); err != nil {
		t.Fatalf("recovery after heal: %v", err)
	}
	if got := e.DurabilityState(); got != DurabilityHealthy {
		t.Fatalf("state = %v, want healthy after recovery", got)
	}
	if e.DegradedErr() != nil {
		t.Fatalf("DegradedErr = %v after recovery", e.DegradedErr())
	}
	if n := countEvents(e, trace.EvDiskRecovered); n != 1 {
		t.Fatalf("EvDiskRecovered events = %d, want 1", n)
	}
	if got := e.Metrics().DiskRecoveries; got != 1 {
		t.Fatalf("DiskRecoveries = %d, want 1", got)
	}

	// Writes work again.
	if err := e.Insert("sess", tuple.Ints(8, 8), 100); err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
	if err := e.CloseDurability(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reboot on the real filesystem: the recovery checkpoint captured the
	// full in-memory state — including the indeterminate insert 6, the
	// degraded-mode expirations and the post-recovery insert 8.
	rebooted, _ := openDurable(t, dir)
	sameState(t, "post-reboot", rebooted, e)
}

// TestDiskFaultTornWriteDurablePrefix: a write that persists only a
// prefix of a record poisons the log; crashing while degraded and
// rebooting recovers exactly the acknowledged prefix — the torn tail is
// truncated, never misread as data.
func TestDiskFaultTornWriteDurablePrefix(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFault(vfs.OS())
	e := openFaulty(t, dir, ffs)
	if err := e.CreateTable("sess", tuple.IntCols("id", "v")); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		if err := e.Insert("sess", tuple.Ints(i, i), 100); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	// The next write keeps 3 bytes of the encoded record, then errors —
	// the on-disk image of a crash mid-write.
	ffs.TornWrite(3)
	err := e.Insert("sess", tuple.Ints(6, 6), 100)
	if err == nil || errors.Is(err, ErrReadOnly) {
		t.Fatalf("torn-write insert err = %v, want I/O error", err)
	}
	if got := e.DurabilityState(); got != DurabilityDegraded {
		t.Fatalf("state = %v, want degraded", got)
	}

	// Crash while degraded: no flush happens (the log is poisoned), the
	// disk keeps the torn tail.
	_ = e.CloseDurability()

	rebooted, info := openDurable(t, dir)
	if !info.Truncated {
		t.Fatal("reboot did not report a truncated torn tail")
	}
	oracle := New()
	if err := oracle.CreateTable("sess", tuple.IntCols("id", "v")); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		if err := oracle.Insert("sess", tuple.Ints(i, i), 100); err != nil {
			t.Fatal(err)
		}
	}
	sameState(t, "durable-prefix", rebooted, oracle)
}

// TestDiskFaultENOSPCReclamation is the paper's reclamation story:
// expired tuples are dead space. A full disk triggers a forced sweep, a
// compacting checkpoint into the released emergency headroom, and a
// RemoveBelow that frees the old generations — the engine recovers
// inline, acknowledges the write, and never enters degraded mode.
func TestDiskFaultENOSPCReclamation(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFault(vfs.OS())
	// Lazy sweeping with a long period: advancing past texp leaves the
	// dead tuples physically present — reclaimable space.
	e := openFaulty(t, dir, ffs, WithSweep(SweepLazy, 1000))
	if err := e.CreateTable("sess", tuple.IntCols("id", "v")); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 120; i++ {
		if err := e.Insert("sess", tuple.Ints(i, i), 5); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := int64(1); i <= 3; i++ {
		if err := e.Insert("sess", tuple.Ints(1000+i, i), xtime.Infinity); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Advance(10); err != nil {
		t.Fatal(err)
	}
	// All 120 short-lived rows are logically expired but physically
	// present (sweep period not reached).
	if rows := tableRows(e)["sess"]; len(rows) != 123 {
		t.Fatalf("physical rows = %d, want 123 (120 dead + 3 live)", len(rows))
	}

	fired := recordFirings(t, e, "sess")

	// The disk is full: even a tiny write no longer fits.
	ffs.SetQuota(ffs.Used() + 8)
	if err := e.Insert("sess", tuple.Ints(2000, 1), 100); err != nil {
		t.Fatalf("ENOSPC insert should recover inline and succeed, got %v", err)
	}
	if got := e.DurabilityState(); got != DurabilityHealthy {
		t.Fatalf("state = %v, want healthy (reclamation must not degrade)", got)
	}
	m := e.Metrics()
	if m.DiskFaults != 0 {
		t.Fatalf("DiskFaults = %d, want 0 (never degraded)", m.DiskFaults)
	}
	if m.DiskReclamations != 1 || m.DiskRecoveries != 1 {
		t.Fatalf("reclamations=%d recoveries=%d, want 1/1", m.DiskReclamations, m.DiskRecoveries)
	}
	// The forced sweep physically removed the dead rows and fired their
	// overdue triggers, each at its original texp.
	if rows := tableRows(e)["sess"]; len(rows) != 4 {
		t.Fatalf("rows after reclamation = %d, want 4 (3 infinite + 1 new)", len(rows))
	}
	if len(*fired) != 120 {
		t.Fatalf("reclamation fired %d triggers, want 120", len(*fired))
	}
	// Lazy-sweep semantics: overdue triggers fire late, at the sweep
	// tick — here the reclamation time, not the original texp.
	for _, f := range *fired {
		if f.at != 10 {
			t.Fatalf("trigger for %s fired at %v, want reclamation tick 10", f.key, f.at)
		}
	}

	// The freed space serves further writes.
	if err := e.Insert("sess", tuple.Ints(2001, 1), 100); err != nil {
		t.Fatalf("post-reclamation insert: %v", err)
	}
	if err := e.CloseDurability(); err != nil {
		t.Fatalf("close: %v", err)
	}
	rebooted, _ := openDurable(t, dir, WithSweep(SweepLazy, 1000))
	sameState(t, "post-reboot", rebooted, e)
}

// TestDiskFaultEIOSnapshotRead: a snapshot that cannot be READ (EIO, not
// corruption) must abort recovery with the I/O error — silently falling
// back to an older generation would recover less state than the disk
// actually holds.
func TestDiskFaultEIOSnapshotRead(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir)
	if err := e.CreateTable("sess", tuple.IntCols("id", "v")); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("sess", tuple.Ints(1, 1), 100); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	ffs := vfs.NewFault(vfs.OS())
	ffs.FailReads(0, -1, nil)
	bad := New(WithDurability(dir), WithVFS(ffs))
	if _, err := bad.OpenDurability(nil); err == nil || !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("open with unreadable snapshot: err = %v, want injected EIO", err)
	}
}

// TestDiskFaultProperty is the randomized harness: a seeded workload
// with ONE fault class injected mid-run. Whatever the fault does, the
// engine must keep serving oracle-correct reads (healthy or degraded),
// reject writes only with ErrReadOnly or an explicit error, recover the
// full in-memory state once the disk heals, and reboot into exactly
// that state.
func TestDiskFaultProperty(t *testing.T) {
	faults := []struct {
		name string
		arm  func(ffs *vfs.FaultFS)
	}{
		{"fsync-sticky", func(ffs *vfs.FaultFS) { ffs.FailSyncs(0, -1, nil) }},
		{"fsync-transient", func(ffs *vfs.FaultFS) { ffs.FailSyncs(0, 2, nil) }},
		{"torn-write", func(ffs *vfs.FaultFS) { ffs.TornWrite(5) }},
		{"enospc", func(ffs *vfs.FaultFS) { ffs.SetQuota(ffs.Used() + 4) }},
	}
	configs := []struct {
		name string
		opts []Option
	}{
		{"eager", nil},
		{"lazy-16", []Option{WithSweep(SweepLazy, 16)}},
	}
	for _, fault := range faults {
		for _, cfg := range configs {
			if fault.name == "enospc" && cfg.name != "eager" {
				// The ENOSPC reclamation sweep physically removes dead
				// rows, which under lazy sweeping would diverge from a
				// memory-only oracle that never swept.
				continue
			}
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed=%d", fault.name, cfg.name, seed), func(t *testing.T) {
					dir := t.TempDir()
					ffs := vfs.NewFault(vfs.OS())
					e := openFaulty(t, dir, ffs, cfg.opts...)
					oracle := New(cfg.opts...)

					ops := genOps(seed)
					faultAt := len(ops)/4 + int(seed*7)%(len(ops)/2)
					for i, op := range ops {
						if i == faultAt {
							fault.arm(ffs)
						}
						applied, err := applyOpErr(e, op)
						if err != nil && !errors.Is(err, ErrReadOnly) &&
							!errors.Is(err, vfs.ErrInjected) {
							t.Fatalf("op %d (%c): unexpected error class: %v", i, op.kind, err)
						}
						if applied {
							applyOp(t, oracle, op)
						} else if !errors.Is(err, ErrReadOnly) {
							t.Fatalf("op %d (%c) not applied but err = %v, want ErrReadOnly", i, op.kind, err)
						}
					}

					// Reads stay oracle-correct, degraded or not.
					sameState(t, "mid-fault", e, oracle)

					// Heal the disk and force recovery: the full in-memory
					// state must become durable.
					ffs.Heal()
					ffs.SetQuota(-1)
					if err := e.TryDiskRecovery(); err != nil {
						t.Fatalf("recovery after heal: %v", err)
					}
					if got := e.DurabilityState(); got != DurabilityHealthy {
						t.Fatalf("state = %v, want healthy", got)
					}
					sameState(t, "post-recovery", e, oracle)
					if err := e.Insert("sess_a", tuple.Ints(99999, 0), e.Now()+50); err != nil {
						t.Fatalf("post-recovery insert: %v", err)
					}
					applyOp(t, oracle, walOp{kind: 'i', table: "sess_a",
						tup: tuple.Ints(99999, 0), texp: e.Now() + 50})
					if err := e.CloseDurability(); err != nil {
						t.Fatalf("close: %v", err)
					}

					rebooted, _ := openDurable(t, dir, cfg.opts...)
					sameState(t, "post-reboot", rebooted, oracle)
				})
			}
		}
	}
}

// applyOpErr runs op against a possibly-degraded engine, reporting
// whether the engine applied it and the error it returned. The contract
// it decodes: ErrReadOnly = definitely not applied; any other error =
// applied in memory with indeterminate durability; nil = applied (and,
// when an inline ENOSPC recovery ran, already durable).
func applyOpErr(e *Engine, op walOp) (bool, error) {
	switch op.kind {
	case 'T':
		err := e.CreateTable(op.table, tuple.IntCols("id", "v"))
		return !errors.Is(err, ErrReadOnly), err
	case 'i':
		err := e.Insert(op.table, op.tup, op.texp)
		return !errors.Is(err, ErrReadOnly), err
	case 'd':
		ok, err := e.Delete(op.table, op.tup)
		if errors.Is(err, ErrReadOnly) {
			return false, err
		}
		_ = ok // a no-op delete is "applied": the oracle's delete is a no-op too
		return true, err
	case 'a':
		// Advance never fails on disk errors — it degrades and proceeds.
		return true, e.Advance(op.to)
	}
	panic("unknown op")
}

// walOp is one engine operation of the disk-fault property test.
type walOp struct {
	kind  byte // 'T' create table, 'i' insert, 'd' delete, 'a' advance
	table string
	tup   tuple.Tuple
	texp  xtime.Time
	to    xtime.Time
}

// applyOp runs op against e, failing the test on any error.
func applyOp(t *testing.T, e *Engine, op walOp) {
	t.Helper()
	switch op.kind {
	case 'T':
		if err := e.CreateTable(op.table, tuple.IntCols("id", "v")); err != nil {
			t.Fatalf("create %s: %v", op.table, err)
		}
	case 'i':
		if err := e.Insert(op.table, op.tup, op.texp); err != nil {
			t.Fatalf("insert: %v", err)
		}
	case 'd':
		if _, err := e.Delete(op.table, op.tup); err != nil {
			t.Fatalf("delete: %v", err)
		}
	case 'a':
		if err := e.Advance(op.to); err != nil {
			t.Fatalf("advance: %v", err)
		}
	default:
		panic("unknown op")
	}
}

// genOps builds a deterministic workload mix: two tables, session-shaped
// inserts, random deletes and interleaved advances.
func genOps(seed int64) []walOp {
	rng := rand.New(rand.NewSource(seed))
	tables := []string{"sess_a", "sess_b"}
	ops := []walOp{{kind: 'T', table: "sess_a"}, {kind: 'T', table: "sess_b"}}
	sessions := workload.Sessions(120, 3, 5, 60, seed)
	var now xtime.Time
	var inserted []walOp
	for _, s := range sessions {
		table := tables[rng.Intn(len(tables))]
		// Keep the clock behind the session start so texp is in the future.
		if s.Start > now+4 {
			now = s.Start - xtime.Time(rng.Int63n(4)) - 1
			ops = append(ops, walOp{kind: 'a', to: now})
		}
		op := walOp{kind: 'i', table: table, tup: tuple.Ints(s.ID, s.ID%7), texp: s.Start + s.TTL}
		ops = append(ops, op)
		inserted = append(inserted, op)
		if len(inserted) > 0 && rng.Intn(4) == 0 {
			victim := inserted[rng.Intn(len(inserted))]
			ops = append(ops, walOp{kind: 'd', table: victim.table, tup: victim.tup})
		}
	}
	ops = append(ops, walOp{kind: 'a', to: now + 10})
	return ops
}
