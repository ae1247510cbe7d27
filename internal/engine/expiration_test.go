package engine

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"expdb/internal/algebra"
	"expdb/internal/catalog"
	"expdb/internal/index"
	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/vfs"
	"expdb/internal/wal"
	"expdb/internal/xtime"
)

// Tests for the two halves of "one expiration order per table": eager
// expiry drains each table's texp-ordered index (nothing else records
// when rows expire), and DeleteWhere removes its victims in place.

// whereEq is σ[col = v](table), the scan access path of DELETE … WHERE.
func whereEq(t *testing.T, e *Engine, table string, col int, v int64) *algebra.Select {
	t.Helper()
	base, err := e.Base(table)
	if err != nil {
		t.Fatal(err)
	}
	return &algebra.Select{Pred: algebra.ColConst{Col: col, Op: algebra.OpEq, Const: value.Int(v)}, Child: base}
}

// probeEq is the hash-probe access path for the same predicate.
func probeEq(t *testing.T, e *Engine, table, idx string, col int, v int64) *algebra.IndexScan {
	t.Helper()
	sel := whereEq(t, e, table, col, v)
	ix := algebra.NewIndexScan(sel.Child.(*algebra.Base), idx, sel.Pred, nil)
	probe := tuple.Ints(v)
	ix.Eq, ix.EqKey = probe, probe.Key()
	return ix
}

// TestTexpIndexDrainedUnderEagerExpiry is the regression test for the
// texp-heap leak: under eager sweeping expired rows used to be removed by
// key, so their heap pairs (and key strings) were never popped and the
// per-table heap grew by one pair per finite-texp insert, forever. The
// heap is now what eager expiry drains, so its size tracks the live rows.
func TestTexpIndexDrainedUnderEagerExpiry(t *testing.T) {
	e := New()
	if err := e.CreateTable("s", tuple.IntCols("id")); err != nil {
		t.Fatal(err)
	}
	rel, err := e.Catalog().Table("s")
	if err != nil {
		t.Fatal(err)
	}
	const inserts, perTick, ttl, slack = 200_000, 10, 5, 64
	for i := 0; i < inserts; i++ {
		if err := e.InsertTTL("s", tuple.Ints(int64(i)), ttl); err != nil {
			t.Fatal(err)
		}
		if i%perTick != perTick-1 {
			continue
		}
		if err := e.Advance(e.Now() + 1); err != nil {
			t.Fatal(err)
		}
		// Every row has a finite texp, so live finite rows = stored rows.
		if pending, live := e.Metrics().Scheduler.Pending, rel.Len(); pending > live+slack {
			t.Fatalf("after %d inserts: %d texp pairs for %d live rows", i+1, pending, live)
		}
	}
	if got := e.Stats().TuplesExpired; got < inserts-perTick*ttl {
		t.Fatalf("expired %d of %d", got, inserts)
	}
}

// TestEagerDispatchOrder: one advance over several tables fires triggers
// in texp order, ties broken by table name and then set key — a function
// of the stored rows alone, whatever order they were inserted in.
func TestEagerDispatchOrder(t *testing.T) {
	type fire struct {
		table string
		id    int64
		at    xtime.Time
	}
	run := func(seed int64) []fire {
		e := New()
		var fired []fire
		for _, name := range []string{"b", "a"} {
			if err := e.CreateTable(name, tuple.IntCols("id")); err != nil {
				t.Fatal(err)
			}
			if err := e.OnExpire(name, func(tb string, row relation.Row, at xtime.Time) {
				if at != row.Texp {
					t.Errorf("eager trigger stamped %v for a row expiring at %v", at, row.Texp)
				}
				fired = append(fired, fire{tb, row.Tuple[0].AsInt(), at})
			}); err != nil {
				t.Fatal(err)
			}
		}
		for _, i := range rand.New(rand.NewSource(seed)).Perm(40) {
			table := []string{"a", "b"}[i%2]
			if err := e.Insert(table, tuple.Ints(int64(i)), xtime.Time(1+i%4)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Advance(10); err != nil {
			t.Fatal(err)
		}
		return fired
	}
	want := run(1)
	if len(want) != 40 {
		t.Fatalf("fired %d triggers, want 40", len(want))
	}
	for i := 1; i < len(want); i++ {
		p, q := want[i-1], want[i]
		if p.at > q.at || (p.at == q.at && p.table > q.table) ||
			(p.at == q.at && p.table == q.table && p.id > q.id) {
			t.Fatalf("dispatch out of (texp, table, key) order at %d: %+v then %+v", i, p, q)
		}
	}
	for seed := int64(2); seed <= 4; seed++ {
		got := run(seed)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d = %+v, want %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestDeleteWhereSkipsExpiredCorpses: under lazy sweeping a row that has
// expired but not been swept is not there to delete — DeleteWhere and
// Delete neither count nor log it, and the sweep still owes its trigger.
func TestDeleteWhereSkipsExpiredCorpses(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir, WithSweep(SweepLazy, 1000))
	if err := e.CreateTable("s", tuple.IntCols("id", "g")); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		texp := xtime.Time(5) // corpse after Advance(5)
		if i%2 == 0 {
			texp = 50
		}
		if err := e.Insert("s", tuple.Ints(i, 0), texp); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Advance(5); err != nil {
		t.Fatal(err)
	}
	fired := recordFirings(t, e, "s")
	appends := e.Metrics().WAL.Appends
	n, at, err := e.DeleteWhere(whereEq(t, e, "s", 1, 0))
	if err != nil || n != 5 || at != 5 {
		t.Fatalf("DeleteWhere = (%d, %v, %v), want 5 live victims at tick 5", n, at, err)
	}
	if ok, err := e.Delete("s", tuple.Ints(1, 0)); err != nil || ok {
		t.Fatalf("Delete of an expired row = (%v, %v), want not found", ok, err)
	}
	if got := e.Metrics().WAL.Appends - appends; got != 5 {
		t.Fatalf("logged %d delete records, want 5", got)
	}
	if got := e.Metrics().Deletes; got != 5 {
		t.Fatalf("deletes counter = %d, want 5", got)
	}
	if err := e.Sweep(); err != nil {
		t.Fatal(err)
	}
	if len(*fired) != 5 {
		t.Fatalf("sweep fired %d triggers, want the 5 corpses'", len(*fired))
	}
}

// TestDeleteWhereOneFsyncPerStatement: a DELETE with no WHERE logs one
// record per row and waits for the disk once.
func TestDeleteWhereOneFsyncPerStatement(t *testing.T) {
	e, _ := openDurable(t, t.TempDir())
	if err := e.CreateTable("s", tuple.IntCols("id")); err != nil {
		t.Fatal(err)
	}
	const rows = 100
	for i := int64(0); i < rows; i++ {
		if err := e.Insert("s", tuple.Ints(i), xtime.Infinity); err != nil {
			t.Fatal(err)
		}
	}
	base, err := e.Base("s")
	if err != nil {
		t.Fatal(err)
	}
	before := e.Metrics().WAL
	n, _, err := e.DeleteWhere(base)
	if err != nil || n != rows {
		t.Fatalf("DeleteWhere = (%d, %v), want %d rows", n, err, rows)
	}
	after := e.Metrics().WAL
	if got := after.Appends - before.Appends; got != rows {
		t.Errorf("appended %d records, want %d", got, rows)
	}
	if got := after.Syncs - before.Syncs; got != 1 {
		t.Errorf("fsynced %d times for one statement, want 1", got)
	}
}

// TestUnindexedDeleteLogsOneOrder: two engines that run one durable history
// — FLOATs and NULLs among the INTs of column b, deletes that leave holes,
// inserts that fill them, an index created over the rows and a multi-row
// DELETE it serves — ending in a multi-row DELETE … WHERE that no index
// serves write byte-identical logs: the victims are picked in slot order or
// in the index's order, and both are functions of the history. The last
// DELETE removes exactly the rows Holds selects; column a keeps its array,
// b does not.
func TestUnindexedDeleteLogsOneOrder(t *testing.T) {
	pred := algebra.And{Preds: []algebra.Predicate{
		algebra.ColConst{Col: 0, Op: algebra.OpGe, Const: value.Int(20)},
		algebra.ColConst{Col: 0, Op: algebra.OpLt, Const: value.Int(230)},
		algebra.ColConst{Col: 1, Op: algebra.OpEq, Const: value.Int(3)},
	}}
	row := func(i int64) tuple.Tuple {
		b := value.Int(i % 7)
		switch i % 23 {
		case 5:
			b = value.Float(3)
		case 11:
			b = value.Float(2.5)
		case 17:
			b = value.Null
		}
		return tuple.T(value.Int(i), b)
	}
	history := func(dir string) []byte {
		e, _ := openDurable(t, dir)
		if err := e.CreateTable("s", tuple.IntCols("a", "b")); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 200; i++ {
			if err := e.Insert("s", row(i), xtime.Time(1000+i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := int64(0); i < 200; i += 9 {
			if ok, err := e.Delete("s", row(i)); !ok || err != nil {
				t.Fatalf("delete %v: %v, %v", row(i), ok, err)
			}
		}
		for i := int64(200); i < 240; i++ {
			if err := e.Insert("s", row(i), xtime.Infinity); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.CreateIndex(&catalog.IndexDef{
			Name: "s_b", Table: "s", Cols: []int{1}, ColNames: []string{"b"}, Kind: index.KindHash,
			Def: "CREATE INDEX s_b ON s (b)",
		}); err != nil {
			t.Fatal(err)
		}
		if n, _, err := e.DeleteWhere(probeEq(t, e, "s", "s_b", 1, 2)); n < 20 || err != nil {
			t.Fatalf("the indexed DELETE removed %d rows: %v", n, err)
		}
		base, err := e.Base("s")
		if err != nil {
			t.Fatal(err)
		}
		if !base.Rel.HasIntArray(0) || base.Rel.HasIntArray(1) {
			t.Fatalf("arrays a %v, b %v, want a only", base.Rel.HasIntArray(0), base.Rel.HasIntArray(1))
		}
		before := map[string]bool{}
		base.Rel.All(func(r relation.Row) { before[r.Tuple.Key()] = pred.Holds(r.Tuple) })
		n, _, err := e.DeleteWhere(&algebra.Select{Pred: pred, Child: base})
		if err != nil {
			t.Fatal(err)
		}
		after := tableRows(e)["s"]
		victims := 0
		for k, holds := range before {
			if _, kept := after[k]; kept == holds {
				t.Fatalf("the DELETE kept %v a row for which Holds is %v", kept, holds)
			}
			if holds {
				victims++
			}
		}
		if n != victims || victims < 20 {
			t.Fatalf("DeleteWhere removed %d rows, Holds selects %d", n, victims)
		}
		if err := e.CloseDurability(); err != nil {
			t.Fatal(err)
		}
		var log []byte
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, en := range entries {
			b, err := os.ReadFile(filepath.Join(dir, en.Name()))
			if err != nil {
				t.Fatal(err)
			}
			log = append(append(log, en.Name()...), b...)
		}
		return log
	}
	first := history(t.TempDir())
	for run := 0; run < 3; run++ {
		if !bytes.Equal(history(t.TempDir()), first) {
			t.Fatalf("run %d of the same history wrote a different log", run+2)
		}
	}
}

// TestDiskFaultDeleteWhereReadOnly: in degraded mode DeleteWhere fails
// with ErrReadOnly and removes nothing.
func TestDiskFaultDeleteWhereReadOnly(t *testing.T) {
	ffs := vfs.NewFault(vfs.OS())
	e := openFaulty(t, t.TempDir(), ffs)
	if err := e.CreateTable("s", tuple.IntCols("id", "g")); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 6; i++ {
		if err := e.Insert("s", tuple.Ints(i, i%2), 100); err != nil {
			t.Fatal(err)
		}
	}
	ffs.FailSyncs(0, -1, nil)
	if err := e.Insert("s", tuple.Ints(99, 1), 100); err == nil {
		t.Fatal("insert over a failing disk succeeded")
	}
	if got := e.DurabilityState(); got != DurabilityDegraded {
		t.Fatalf("state = %v, want degraded", got)
	}
	rowsBefore := tableRows(e)["s"]
	n, _, err := e.DeleteWhere(whereEq(t, e, "s", 1, 0))
	if !errors.Is(err, ErrReadOnly) || n != 0 {
		t.Fatalf("DeleteWhere while degraded = (%d, %v), want (0, ErrReadOnly)", n, err)
	}
	if rowsAfter := tableRows(e)["s"]; len(rowsAfter) != len(rowsBefore) {
		t.Fatalf("degraded DeleteWhere removed rows: %d -> %d", len(rowsBefore), len(rowsAfter))
	}
	if got := e.Metrics().Deletes; got != 0 {
		t.Fatalf("deletes counter = %d, want 0", got)
	}
}

// copyDir clones a data directory so one crash image can be cut at many
// offsets.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCrashRecoveryMultiRowDeleteEveryOffset cuts the log at every byte
// offset inside the record group of one multi-row DELETE. A multi-row
// delete is durable record by record: whatever the cut, recovery must
// yield the pre-statement state minus exactly the victims whose records
// survived whole, in log order — never a row half-deleted, never a
// victim out of order — and the expirations that follow must fire once.
func TestCrashRecoveryMultiRowDeleteEveryOffset(t *testing.T) {
	configs := []struct {
		name string
		opts []Option
	}{
		{"eager", nil},
		{"lazy-16", []Option{WithSweep(SweepLazy, 16)}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			dir := t.TempDir()
			e, _ := openDurable(t, dir, cfg.opts...)
			if err := e.CreateTable("s", tuple.IntCols("id", "g")); err != nil {
				t.Fatal(err)
			}
			const rows = 18
			for i := int64(0); i < rows; i++ {
				// A third of the rows expire at 4: removed by Advance(5) when
				// eager, left as corpses the DELETE must skip when lazy.
				texp := xtime.Time(40 + i)
				if i%3 == 0 {
					texp = 4
				}
				if err := e.Insert("s", tuple.Ints(i, i%2), texp); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Advance(5); err != nil {
				t.Fatal(err)
			}
			const recordsBefore = 1 + rows + 1
			seg := filepath.Join(dir, "wal-00000001.log")
			size := func() int64 {
				fi, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				return fi.Size()
			}
			pre, from := tableRows(e)["s"], size()
			n, _, err := e.DeleteWhere(whereEq(t, e, "s", 1, 0))
			if err != nil || n != 6 {
				t.Fatalf("DeleteWhere = (%d, %v), want the 6 live rows of group 0", n, err)
			}
			to := size()

			// The victims in log (= apply) order.
			var victims []string
			_, full, err := wal.OpenFS(copyDir(t, dir), vfs.OS())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := full.Replay(func(rec *wal.Record) error {
				if rec.Kind == wal.KindDelete {
					victims = append(victims, rec.Key)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(victims) != n {
				t.Fatalf("log holds %d delete records, want %d", len(victims), n)
			}

			last := 0
			for cut := from; cut <= to; cut++ {
				cdir := copyDir(t, dir)
				if err := os.Truncate(filepath.Join(cdir, "wal-00000001.log"), cut); err != nil {
					t.Fatal(err)
				}
				rec, info := openDurable(t, cdir, cfg.opts...)
				j := info.Records - recordsBefore
				if j < last || j > n || (cut == from && j != 0) || (cut == to && j != n) {
					t.Fatalf("cut %d: %d delete records survived (previous cut: %d)", cut, j, last)
				}
				last = j
				want := make(map[string]xtime.Time, len(pre))
				for k, texp := range pre {
					want[k] = texp
				}
				for _, k := range victims[:j] {
					delete(want, k)
				}
				got := tableRows(rec)["s"]
				if len(got) != len(want) {
					t.Fatalf("cut %d: recovered %d rows, want %d", cut, len(got), len(want))
				}
				for k, texp := range want {
					if got[k] != texp {
						t.Fatalf("cut %d: row %q texp = %v, want %v", cut, k, got[k], texp)
					}
				}
				fired := recordFirings(t, rec, "s")
				if err := rec.Advance(1000); err != nil {
					t.Fatal(err)
				}
				if len(*fired) != len(want) {
					t.Fatalf("cut %d: %d expirations fired, want %d", cut, len(*fired), len(want))
				}
				if err := rec.CloseDurability(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestDeleteWhereConcurrentCrashRecovery races DeleteWhere (probe and
// scan access paths, and whole-table deletes) against inserts, lifetime
// extensions and Advance on the same table of a durable engine; run with
// -race. A row inserted or extended after a statement picked its victims
// must be either wholly deleted or wholly kept: afterwards the secondary
// index agrees with the table, the statements' counts add up to the
// deletes counter, and replaying the log — which is only right if WAL
// order equals apply order — reproduces the live state exactly.
func TestDeleteWhereConcurrentCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir)
	if err := e.CreateTable("s", tuple.IntCols("id", "g")); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex(&catalog.IndexDef{
		Name: "s_g", Table: "s", Cols: []int{1}, ColNames: []string{"g"}, Kind: index.KindHash,
	}); err != nil {
		t.Fatal(err)
	}
	const groups, perWriter = 8, 400
	var wg sync.WaitGroup
	var deleted int64
	var mu sync.Mutex
	for w := int64(0); w < 2; w++ {
		wg.Add(1)
		go func(w int64) { // inserter
			defer wg.Done()
			for i := int64(0); i < perWriter; i++ {
				id := w*perWriter + i
				if err := e.InsertTTL("s", tuple.Ints(id, id%groups), xtime.Time(1+id%30)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // extender: lengthens lifetimes, or re-creates deleted rows
		defer wg.Done()
		r := rand.New(rand.NewSource(1))
		for i := 0; i < perWriter; i++ {
			id := r.Int63n(2 * perWriter)
			if err := e.InsertTTL("s", tuple.Ints(id, id%groups), 40); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // clock
		defer wg.Done()
		for i := 0; i < 60; i++ {
			if err := e.Advance(e.Now() + 1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for d := int64(0); d < 2; d++ {
		wg.Add(1)
		go func(d int64) { // deleters
			defer wg.Done()
			base, err := e.Base("s")
			if err != nil {
				t.Error(err)
				return
			}
			for i := int64(0); i < 120; i++ {
				var plan algebra.Expr
				switch g := (i + d) % groups; {
				case i%40 == 39:
					plan = base
				case i%2 == 0:
					plan = probeEq(t, e, "s", "s_g", 1, g)
				default:
					plan = whereEq(t, e, "s", 1, g)
				}
				n, _, err := e.DeleteWhere(plan)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				deleted += int64(n)
				mu.Unlock()
			}
		}(d)
	}
	wg.Wait()

	if got := e.Metrics().Deletes; got != deleted {
		t.Errorf("deletes counter = %d, statements reported %d", got, deleted)
	}
	rel, err := e.Catalog().Table("s")
	if err != nil {
		t.Fatal(err)
	}
	byGroup := make(map[int64]int)
	rel.All(func(row relation.Row) { byGroup[row.Tuple[1].AsInt()]++ })
	for g := int64(0); g < groups; g++ {
		probed := 0
		if !probeEq(t, e, "s", "s_g", 1, g).Probe(0, func(index.Entry) { probed++ }) {
			t.Fatal("index vanished")
		}
		if probed != byGroup[g] {
			t.Errorf("group %d: index holds %d entries, table %d rows", g, probed, byGroup[g])
		}
	}
	if pending, max := rel.TexpPending(), 2*rel.Len()+1024; pending > max {
		t.Errorf("texp index holds %d pairs for %d rows (bound %d)", pending, rel.Len(), max)
	}

	// Crash (no Close, no checkpoint) and replay.
	recovered, _ := openDurable(t, copyDir(t, dir))
	sameState(t, "replayed log", recovered, e)
}
