package engine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"expdb/internal/relation"
	"expdb/internal/trace"
	"expdb/internal/tuple"
	"expdb/internal/value"
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
