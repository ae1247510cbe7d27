package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"expdb/internal/relation"
	"expdb/internal/trace"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/workload"
	"expdb/internal/xtime"
)

// openDurable builds a durable engine on dir and runs recovery.
func openDurable(t *testing.T, dir string, opts ...Option) (*Engine, *RecoveryInfo) {
	t.Helper()
	e := New(append([]Option{WithDurability(dir)}, opts...)...)
	info, err := e.OpenDurability(nil)
	if err != nil {
		t.Fatalf("open durability: %v", err)
	}
	return e, info
}

// tableRows returns table name -> (row key -> texp) for every table —
// the full physical state durability must reproduce.
func tableRows(e *Engine) map[string]map[string]xtime.Time {
	out := make(map[string]map[string]xtime.Time)
	for _, nt := range e.Catalog().TableSet() {
		rows := make(map[string]xtime.Time)
		nt.Rel.RLock()
		nt.Rel.All(func(row relation.Row) { rows[row.Tuple.Key()] = row.Texp })
		nt.Rel.RUnlock()
		out[nt.Name] = rows
	}
	return out
}

func sameState(t *testing.T, label string, got, want *Engine) {
	t.Helper()
	if g, w := got.Now(), want.Now(); g != w {
		t.Errorf("%s: clock = %v, want %v", label, g, w)
	}
	g, w := tableRows(got), tableRows(want)
	if len(g) != len(w) {
		t.Fatalf("%s: tables = %d, want %d", label, len(g), len(w))
	}
	for name, wantRows := range w {
		gotRows, ok := g[name]
		if !ok {
			t.Fatalf("%s: table %s missing", label, name)
		}
		if len(gotRows) != len(wantRows) {
			t.Errorf("%s: table %s has %d rows, want %d", label, name, len(gotRows), len(wantRows))
		}
		for key, texp := range wantRows {
			if gotRows[key] != texp {
				t.Errorf("%s: table %s row %q texp = %v, want %v", label, name, key, gotRows[key], texp)
			}
		}
	}
}

// firing is one observed trigger invocation.
type firing struct {
	table string
	key   string
	at    xtime.Time
}

func recordFirings(t *testing.T, e *Engine, tables ...string) *[]firing {
	t.Helper()
	var mu sync.Mutex
	fired := &[]firing{}
	for _, table := range tables {
		table := table
		if err := e.OnExpire(table, func(tb string, row relation.Row, at xtime.Time) {
			mu.Lock()
			*fired = append(*fired, firing{table: tb, key: row.Tuple.Key(), at: at})
			mu.Unlock()
		}); err != nil {
			t.Fatalf("OnExpire(%s): %v", table, err)
		}
	}
	return fired
}

// walOp is one engine operation of the crash-recovery property test,
// together with how many WAL records it emits.
type walOp struct {
	kind  byte // 'T' create table, 'i' insert, 'd' delete, 'a' advance
	table string
	tup   tuple.Tuple
	texp  xtime.Time
	to    xtime.Time
}

// applyOp runs op against e, returning the number of WAL records the
// durable engine emitted for it (deletes of absent rows emit none).
func applyOp(t *testing.T, e *Engine, op walOp) int {
	t.Helper()
	switch op.kind {
	case 'T':
		if err := e.CreateTable(op.table, tuple.IntCols("id", "v")); err != nil {
			t.Fatalf("create %s: %v", op.table, err)
		}
		return 1
	case 'i':
		if err := e.Insert(op.table, op.tup, op.texp); err != nil {
			t.Fatalf("insert: %v", err)
		}
		return 1
	case 'd':
		ok, err := e.Delete(op.table, op.tup)
		if err != nil {
			t.Fatalf("delete: %v", err)
		}
		if ok {
			return 1
		}
		return 0
	case 'a':
		if err := e.Advance(op.to); err != nil {
			t.Fatalf("advance: %v", err)
		}
		return 1
	}
	panic("unknown op")
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

// TestCrashRecoveryProperty is the durability property test: run a
// seeded workload against a durable engine, cut its log at a random byte
// offset (a torn tail), recover, and require the result to be byte-for-
// byte the state of an in-memory oracle that executed exactly the
// operations whose records survived the cut. Post-recovery trigger
// firings must also match the oracle's, each at its original texp.
func TestCrashRecoveryProperty(t *testing.T) {
	configs := []struct {
		name string
		opts []Option
	}{
		{"eager", nil},
		{"lazy-16", []Option{WithSweep(SweepLazy, 16)}},
	}
	for _, cfg := range configs {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", cfg.name, seed), func(t *testing.T) {
				dir := t.TempDir()
				e, _ := openDurable(t, dir, cfg.opts...)
				ops := genOps(seed)
				recs := make([]int, len(ops))
				for i, op := range ops {
					recs[i] = applyOp(t, e, op)
				}
				// Crash: abandon e without closing, then tear the log at a
				// random offset. Every record was fsynced, so the file
				// holds all of them; the cut simulates a tail lost inside
				// the kernel or the disk.
				seg := filepath.Join(dir, "wal-00000001.log")
				fi, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				cut := rand.New(rand.NewSource(seed * 977)).Int63n(fi.Size() + 1)
				if err := os.Truncate(seg, cut); err != nil {
					t.Fatal(err)
				}

				recovered, info := openDurable(t, dir, cfg.opts...)
				// The oracle replays the operation prefix whose records
				// survived the cut.
				oracle := New(cfg.opts...)
				applied, want := 0, info.Records
				for i, op := range ops {
					if applied+recs[i] > want {
						break
					}
					applied += recs[i]
					applyOp(t, oracle, op)
				}
				if applied != want {
					t.Fatalf("cannot align oracle: %d records recovered, reached %d", want, applied)
				}
				sameState(t, "post-recovery", recovered, oracle)

				// Recovery rebuilt the texp-ordered indexes from the
				// replayed rows and nothing else: every finite row has its
				// pair, and stale pairs stay within the per-table bound.
				finite, rows := 0, 0
				for _, byKey := range tableRows(recovered) {
					for _, texp := range byKey {
						rows++
						if texp.IsFinite() {
							finite++
						}
					}
				}
				if pending := recovered.texpPending(); pending < finite || pending > 2*rows+2*1024 {
					t.Errorf("texp index holds %d pairs for %d finite rows of %d", pending, finite, rows)
				}

				// From here both engines must fire identical triggers at
				// identical (original) expiration times, in the same order:
				// dispatch order is a function of the stored rows alone. A cut inside the
				// create-table records leaves fewer tables; register on
				// what survived (identical in both by sameState above).
				var tables []string
				for name := range tableRows(recovered) {
					tables = append(tables, name)
				}
				gotF := recordFirings(t, recovered, tables...)
				wantF := recordFirings(t, oracle, tables...)
				horizon := recovered.Now() + 200
				if err := recovered.Advance(horizon); err != nil {
					t.Fatal(err)
				}
				if err := oracle.Advance(horizon); err != nil {
					t.Fatal(err)
				}
				if len(*gotF) != len(*wantF) {
					t.Fatalf("firings = %d, want %d", len(*gotF), len(*wantF))
				}
				for i := range *gotF {
					if (*gotF)[i] != (*wantF)[i] {
						t.Errorf("firing %d = %+v, want %+v", i, (*gotF)[i], (*wantF)[i])
					}
				}
				sameState(t, "post-advance", recovered, oracle)
			})
		}
	}
}

// TestRecoveryCatchUpAdvance: expirations whose tick passed while the
// engine was "down" (the clock jump happens in the first advance after
// boot) fire exactly once, at their original texp, under the recovery
// trace ID, across a large Δt.
func TestRecoveryCatchUpAdvance(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir)
	if err := e.CreateTable("s", tuple.IntCols("id")); err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := int64(0); i < n; i++ {
		// Expirations spread over a wide range, some far out.
		if err := e.Insert("s", tuple.Ints(i), xtime.Time(10+i*37)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Insert("s", tuple.Ints(int64(n)), xtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if err := e.Advance(5); err != nil {
		t.Fatal(err)
	}

	// Crash, recover.
	e2, info := openDurable(t, dir)
	if pending := e2.texpPending(); pending != n {
		t.Fatalf("recovered texp index = %d pairs, want %d", pending, n)
	}
	fired := recordFirings(t, e2, "s")

	// One catch-up advance across a large Δt fires everything.
	const horizon = xtime.Time(1 << 30)
	if err := e2.Advance(horizon); err != nil {
		t.Fatal(err)
	}
	if len(*fired) != n {
		t.Fatalf("fired %d triggers, want %d", len(*fired), n)
	}
	seen := make(map[string]xtime.Time)
	for _, f := range *fired {
		if _, dup := seen[f.key]; dup {
			t.Errorf("row %q fired twice", f.key)
		}
		seen[f.key] = f.at
	}
	for i := int64(0); i < n; i++ {
		key := tuple.Ints(i).Key()
		if at, ok := seen[key]; !ok || at != xtime.Time(10+i*37) {
			t.Errorf("row %d fired at %v, want %v", i, at, xtime.Time(10+i*37))
		}
	}
	if pending := e2.texpPending(); pending != 0 {
		t.Errorf("texp index after catch-up = %d pairs, want 0", pending)
	}
	// The catch-up batch carries the recovery trace ID.
	var expiryTrace trace.ID
	for _, ev := range e2.Events().Snapshot(0) {
		if ev.Kind == trace.EvExpiry {
			expiryTrace = ev.Trace
			break
		}
	}
	if expiryTrace != info.TraceID {
		t.Errorf("catch-up expiry trace = %v, want recovery trace %v", expiryTrace, info.TraceID)
	}
	// A second advance must not re-fire anything (and the
	// Infinity row must never fire at all).
	if err := e2.Advance(horizon + 10); err != nil {
		t.Fatal(err)
	}
	if len(*fired) != n {
		t.Errorf("second advance re-fired: %d total firings, want %d", len(*fired), n)
	}
}

// TestRecoveredDeletesNeverFire: deletes after recovery leave stale pairs
// in the rebuilt texp-ordered index; the next advance discards them
// without firing.
func TestRecoveredDeletesNeverFire(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir)
	if err := e.CreateTable("s", tuple.IntCols("id")); err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := int64(0); i < n; i++ {
		if err := e.Insert("s", tuple.Ints(i), xtime.Time(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	e2, _ := openDurable(t, dir)
	for i := int64(0); i < n; i += 2 {
		if ok, err := e2.Delete("s", tuple.Ints(i)); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	if pending := e2.texpPending(); pending != n {
		t.Fatalf("texp index = %d pairs, want %d (half of them stale)", pending, n)
	}
	fired := recordFirings(t, e2, "s")
	if err := e2.Advance(1000); err != nil {
		t.Fatal(err)
	}
	if len(*fired) != n/2 {
		t.Fatalf("fired %d, want %d", len(*fired), n/2)
	}
	if pending := e2.texpPending(); pending != 0 {
		t.Errorf("texp index after advance = %d pairs, want 0", pending)
	}
}

// TestInsertAliasingRegression: the WAL encoder must copy tuple memory
// during Append — a caller that reuses its tuple buffer after Insert
// returns must not be able to corrupt the log.
func TestInsertAliasingRegression(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir)
	if err := e.CreateTable("s", tuple.IntCols("id", "v")); err != nil {
		t.Fatal(err)
	}
	buf := tuple.Ints(0, 0)
	for i := int64(0); i < 50; i++ {
		buf[0] = value.Int(i)
		buf[1] = value.Int(i * 10)
		if err := e.Insert("s", buf, xtime.Time(1000+i)); err != nil {
			t.Fatal(err)
		}
		// Reuse the buffer immediately: if the log retained a reference
		// past Append, the next iteration would corrupt the record.
		buf[0] = value.Int(-1)
		buf[1] = value.Int(-1)
	}
	e2, info := openDurable(t, dir)
	if info.Rows != 50 {
		t.Fatalf("recovered %d rows, want 50", info.Rows)
	}
	rel, err := e2.Catalog().Table("s")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		row, ok := rel.RowByKey(tuple.Ints(i, i*10).Key())
		if !ok {
			t.Fatalf("row %d lost or corrupted in the log", i)
		}
		if row.Texp != xtime.Time(1000+i) {
			t.Errorf("row %d texp = %v, want %v", i, row.Texp, 1000+i)
		}
	}
}

// TestConcurrentInsertCheckpoint hammers inserts, deletes, advances and
// checkpoints in parallel (run under -race), then recovers and checks
// every surviving row round-tripped.
func TestConcurrentInsertCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir)
	if err := e.CreateTable("s", tuple.IntCols("w", "i")); err != nil {
		t.Fatal(err)
	}
	const workers, each = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := e.Insert("s", tuple.Ints(int64(w), int64(i)), xtime.Time(10_000+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := e.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	e2, info := openDurable(t, dir)
	if info.Rows != workers*each {
		t.Fatalf("recovered %d rows, want %d", info.Rows, workers*each)
	}
	if pending := e2.texpPending(); pending != workers*each {
		t.Errorf("texp index = %d pairs, want %d", pending, workers*each)
	}
}

// TestManualSweepReplay: a logged manual sweep reproduces its removals
// on replay without re-firing the triggers that already ran.
func TestManualSweepReplay(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir, WithSweep(SweepLazy, 1000))
	if err := e.CreateTable("s", tuple.IntCols("id")); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := e.Insert("s", tuple.Ints(i), xtime.Time(5+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Advance(8); err != nil { // below the sweep period: nothing removed
		t.Fatal(err)
	}
	fired := recordFirings(t, e, "s")
	if err := e.Sweep(); err != nil {
		t.Fatal(err)
	}
	if len(*fired) != 4 { // texp 5,6,7,8 swept at tick 8
		t.Fatalf("manual sweep fired %d, want 4", len(*fired))
	}
	e2, info := openDurable(t, dir, WithSweep(SweepLazy, 1000))
	if info.Rows != 6 {
		t.Fatalf("recovered %d rows, want 6 (sweep must replay its removals)", info.Rows)
	}
	// Replay must not have re-fired: the recovered engine has no triggers
	// yet, and the rows are already gone, so advancing past their texp
	// fires nothing for them.
	fired2 := recordFirings(t, e2, "s")
	if err := e2.Sweep(); err != nil {
		t.Fatal(err)
	}
	if len(*fired2) != 0 {
		t.Fatalf("replayed sweep re-fired %d triggers", len(*fired2))
	}
}

// TestReinsertOverAnUnsweptRow: a tuple re-inserted after its row expired
// but before a sweep removed it starts a new lifetime; the ended one fires
// once — at its texp eagerly, at the next sweep lazily — also when a crash,
// with or without a checkpoint, cuts between the re-insert and that sweep.
func TestReinsertOverAnUnsweptRow(t *testing.T) {
	for _, mode := range []string{"eager", "lazy", "lazy/crash", "lazy/checkpoint/crash"} {
		dir, opts, want := t.TempDir(), []Option{WithSweep(SweepLazy, 100)}, "[100 100]"
		if mode == "eager" {
			opts, want = nil, "[3 8]"
		}
		e, _ := openDurable(t, dir, opts...)
		err := e.CreateTable("s", tuple.IntCols("id"))
		fired := recordFirings(t, e, "s")
		err = errors.Join(err, e.Insert("s", tuple.Ints(1), 3), e.Advance(5), e.Insert("s", tuple.Ints(1), 8))
		if strings.Contains(mode, "checkpoint") {
			err = errors.Join(err, e.Checkpoint())
		}
		if strings.HasSuffix(mode, "crash") {
			e, _ = openDurable(t, dir, opts...)
			fired = recordFirings(t, e, "s")
		}
		err = errors.Join(err, e.Advance(300), e.Advance(600))
		var ats []xtime.Time
		for _, f := range *fired {
			ats = append(ats, f.at)
		}
		if got := fmt.Sprint(ats); err != nil || got != want || e.Metrics().TuplesExpired != 2 {
			t.Errorf("%s: fired at %s, %d tuples expired (%v); want %s, 2", mode, got, e.Metrics().TuplesExpired, err, want)
		}
	}
}

// TestCheckpointBytesFollowHistory: two engines given one history write the
// same snapshot file, byte for byte. serializeTables walks All, which is
// slot order — a function of the history alone, reused slots included —
// where the iteration order of a map differed from one run to the next.
func TestCheckpointBytesFollowHistory(t *testing.T) {
	var files [2][]byte
	for run := range files {
		dir := t.TempDir()
		e, _ := openDurable(t, dir)
		for _, table := range []string{"a", "b"} {
			if err := e.CreateTable(table, tuple.IntCols("id", "v")); err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 300; i++ {
				if err := e.Insert(table, tuple.Ints(i, i%7), xtime.Time(5+i%40)); err != nil {
					t.Fatal(err)
				}
			}
			for i := int64(0); i < 300; i += 3 {
				if ok, err := e.Delete(table, tuple.Ints(i, i%7)); err != nil || !ok {
					t.Fatalf("delete %d: %v, %v", i, ok, err)
				}
			}
		}
		if err := e.Advance(20); err != nil { // expiry frees more slots
			t.Fatal(err)
		}
		for i := int64(1000); i < 1150; i++ { // which these rows reuse
			if err := e.Insert("a", tuple.Ints(i, 0), xtime.Time(30+i%9)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Insert("b", tuple.Ints(299, 299%7), 500); err != nil { // an extension, in place
			t.Fatal(err)
		}
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		snaps, err := filepath.Glob(filepath.Join(dir, "*.snap"))
		if err != nil || len(snaps) != 1 {
			t.Fatalf("snapshot files: %v, %v", snaps, err)
		}
		if files[run], err = os.ReadFile(snaps[0]); err != nil {
			t.Fatal(err)
		}
		if err := e.CloseDurability(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("one history, two snapshot files: %d and %d bytes, not the same", len(files[0]), len(files[1]))
	}
}
