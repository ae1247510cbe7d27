package engine

import (
	"sync"
	"testing"

	"expdb/internal/algebra"
	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/view"
	"expdb/internal/xtime"
)

func newsEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	e := New(opts...)
	if err := e.CreateTable("pol", tuple.IntCols("UID", "Deg")); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable("el", tuple.IntCols("UID", "Deg")); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		texp xtime.Time
		uid  int64
		deg  int64
	}{{10, 1, 25}, {15, 2, 25}, {10, 3, 35}} {
		if err := e.Insert("pol", tuple.Ints(r.uid, r.deg), r.texp); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []struct {
		texp xtime.Time
		uid  int64
		deg  int64
	}{{5, 1, 75}, {3, 2, 85}, {2, 4, 90}} {
		if err := e.Insert("el", tuple.Ints(r.uid, r.deg), r.texp); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestInsertQueryExpire(t *testing.T) {
	e := newsEngine(t)
	b, err := e.Base("pol")
	if err != nil {
		t.Fatal(err)
	}
	qr, err := e.QueryStamped(b, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Rel.CountAt(0) != 3 {
		t.Fatalf("rows = %d, want 3", qr.Rel.CountAt(0))
	}
	if err := e.Advance(10); err != nil {
		t.Fatal(err)
	}
	qr, err = e.QueryStamped(b, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Rel.CountAt(10) != 1 {
		t.Fatalf("rows at 10 = %d, want 1", qr.Rel.CountAt(10))
	}
}

func TestInsertValidation(t *testing.T) {
	e := newsEngine(t)
	if err := e.Insert("nope", tuple.Ints(1, 2), 5); err == nil {
		t.Error("insert into missing table accepted")
	}
	if err := e.Insert("pol", tuple.Ints(1), 5); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := e.Advance(4); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("pol", tuple.Ints(9, 9), 3); err == nil {
		t.Error("expiration in the past accepted")
	}
	if err := e.Insert("pol", tuple.Ints(9, 9), xtime.Infinity); err != nil {
		t.Errorf("infinite expiration rejected: %v", err)
	}
}

func TestInsertTTL(t *testing.T) {
	e := New()
	if err := e.CreateTable("s", tuple.IntCols("id")); err != nil {
		t.Fatal(err)
	}
	if err := e.Advance(7); err != nil {
		t.Fatal(err)
	}
	if err := e.InsertTTL("s", tuple.Ints(1), 5); err != nil {
		t.Fatal(err)
	}
	rel, _ := e.Catalog().Table("s")
	texp, ok := rel.Texp(tuple.Ints(1))
	if !ok || texp != 12 {
		t.Fatalf("texp = %v, want 12", texp)
	}
	if err := e.InsertTTL("s", tuple.Ints(2), xtime.Infinity); err != nil {
		t.Fatal(err)
	}
	texp, _ = rel.Texp(tuple.Ints(2))
	if texp != xtime.Infinity {
		t.Fatalf("texp = %v, want ∞", texp)
	}
}

func TestEagerTriggersFireOnTime(t *testing.T) {
	e := newsEngine(t)
	var mu sync.Mutex
	fired := map[int64]xtime.Time{}
	err := e.OnExpire("el", func(table string, row relation.Row, at xtime.Time) {
		mu.Lock()
		defer mu.Unlock()
		fired[row.Tuple[0].AsInt()] = at
	})
	if err != nil {
		t.Fatal(err)
	}
	for tick := xtime.Time(1); tick <= 20; tick++ {
		if err := e.Advance(tick); err != nil {
			t.Fatal(err)
		}
	}
	want := map[int64]xtime.Time{4: 2, 2: 3, 1: 5}
	for uid, at := range want {
		if fired[uid] != at {
			t.Errorf("trigger for UID %d fired at %v, want %v", uid, fired[uid], at)
		}
	}
	if e.Stats().TuplesExpired < 3 {
		t.Errorf("expired = %d", e.Stats().TuplesExpired)
	}
}

func TestLazySweepBatchesAndBoundsLatency(t *testing.T) {
	e := newsEngine(t, WithSweep(SweepLazy, 8))
	var fired []xtime.Time
	if err := e.OnExpire("el", func(_ string, _ relation.Row, at xtime.Time) {
		fired = append(fired, at)
	}); err != nil {
		t.Fatal(err)
	}
	// Expired tuples stay invisible to queries even before the sweep.
	if err := e.Advance(4); err != nil {
		t.Fatal(err)
	}
	b, _ := e.Base("el")
	qr, _ := e.QueryStamped(b, "", 0)
	if qr.Rel.CountAt(4) != 1 {
		t.Fatalf("visible rows at 4 = %d, want 1", qr.Rel.CountAt(4))
	}
	if len(fired) != 0 {
		t.Fatalf("triggers fired before sweep tick: %v", fired)
	}
	// The first sweep happens at tick 8 and fires all three, late.
	if err := e.Advance(8); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 {
		t.Fatalf("triggers after sweep = %d, want 3", len(fired))
	}
	for _, at := range fired {
		if at != 8 {
			t.Errorf("lazy trigger fired at %v, want 8", at)
		}
	}
	// Latency recorded: (8-5)+(8-3)+(8-2) = 14.
	if got := e.Stats().TriggerLatency; got != 14 {
		t.Errorf("latency = %d, want 14", got)
	}
}

func TestReinsertionCancelsStaleExpiry(t *testing.T) {
	e := New()
	if err := e.CreateTable("s", tuple.IntCols("id")); err != nil {
		t.Fatal(err)
	}
	fired := 0
	if err := e.OnExpire("s", func(string, relation.Row, xtime.Time) { fired++ }); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("s", tuple.Ints(1), 5); err != nil {
		t.Fatal(err)
	}
	// Session keep-alive: re-insert with a longer lifetime before expiry.
	if err := e.Advance(3); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("s", tuple.Ints(1), 12); err != nil {
		t.Fatal(err)
	}
	if err := e.Advance(5); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatal("stale expiry event fired despite extension")
	}
	rel, _ := e.Catalog().Table("s")
	if !rel.Contains(tuple.Ints(1), 5) {
		t.Fatal("extended tuple vanished")
	}
	if err := e.Advance(12); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("triggers = %d, want exactly 1", fired)
	}
}

func TestDeleteCancelsExpiry(t *testing.T) {
	e := New()
	if err := e.CreateTable("s", tuple.IntCols("id")); err != nil {
		t.Fatal(err)
	}
	fired := 0
	if err := e.OnExpire("s", func(string, relation.Row, xtime.Time) { fired++ }); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("s", tuple.Ints(1), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Delete("s", tuple.Ints(1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Advance(10); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatal("trigger fired for deleted tuple")
	}
}

func TestEngineViews(t *testing.T) {
	e := newsEngine(t)
	polB, _ := e.Base("pol")
	elB, _ := e.Base("el")
	p1, err := algebra.NewProject([]int{0}, polB)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := algebra.NewProject([]int{0}, elB)
	if err != nil {
		t.Fatal(err)
	}
	d, err := algebra.NewDiff(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateView("onlypol", d, view.WithPatching()); err != nil {
		t.Fatal(err)
	}
	if err := e.Advance(6); err != nil {
		t.Fatal(err)
	}
	rel, info, err := e.ReadView("onlypol")
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != view.SourceMaterialised {
		t.Errorf("source = %s", info.Source)
	}
	// At 6: UIDs 1 (El copy expired at 5), 2 (El at 3), 3.
	for _, uid := range []int64{1, 2, 3} {
		if !rel.Contains(tuple.Ints(uid), 6) {
			t.Errorf("UID %d missing at 6:\n%s", uid, rel.Render(6))
		}
	}
}

func TestQuerySeesLogicalNotPhysicalState(t *testing.T) {
	e := New(WithSweep(SweepLazy, 1000)) // effectively never sweeps
	if err := e.CreateTable("s", tuple.IntCols("id")); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("s", tuple.Ints(1), 5); err != nil {
		t.Fatal(err)
	}
	if err := e.Advance(20); err != nil {
		t.Fatal(err)
	}
	rel, _ := e.Catalog().Table("s")
	if rel.Len() != 1 {
		t.Fatal("lazy mode should not have removed the tuple yet")
	}
	b, _ := e.Base("s")
	out, err := e.QueryStamped(b, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rel.CountAt(20) != 0 {
		t.Fatal("expired tuple visible through query")
	}
	e.Sweep()
	if rel.Len() != 0 {
		t.Fatal("manual sweep did not remove the tuple")
	}
}

// TestManualSweepKeepsGridAnchored is the regression test for the sweep
// drift bug: a manual Sweep at an off-grid tick used to move lastSweep,
// shifting every future automatic sweep off the multiples of sweepEvery
// that advanceLazy documents.
func TestManualSweepKeepsGridAnchored(t *testing.T) {
	e := New(WithSweep(SweepLazy, 8))
	if err := e.CreateTable("s", tuple.IntCols("id")); err != nil {
		t.Fatal(err)
	}
	var fired []xtime.Time
	if err := e.OnExpire("s", func(_ string, _ relation.Row, at xtime.Time) {
		fired = append(fired, at)
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("s", tuple.Ints(1), 3); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("s", tuple.Ints(2), 10); err != nil {
		t.Fatal(err)
	}
	if err := e.Advance(5); err != nil {
		t.Fatal(err)
	}
	// Manual sweep at the off-grid tick 5 collects tuple 1 (expired at 3).
	e.Sweep()
	if len(fired) != 1 || fired[0] != 5 {
		t.Fatalf("manual sweep fired %v, want [5]", fired)
	}
	// The grid must stay at 8, 16, 24, … — with the drift bug the next
	// automatic sweeps would land at 13 and 21, firing tuple 2 at 13.
	if err := e.Advance(20); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[1] != 16 {
		t.Fatalf("automatic sweep fired %v, want tuple 2 at the grid tick 16", fired)
	}
}

// TestDuplicateInsertSchedulesOnce: re-inserting a tuple with the same or
// an earlier expiration is a no-change insert and must not add a pair to
// the table's texp-ordered index.
func TestDuplicateInsertSchedulesOnce(t *testing.T) {
	e := New()
	if err := e.CreateTable("s", tuple.IntCols("id")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := e.Insert("s", tuple.Ints(1), 50); err != nil {
			t.Fatal(err)
		}
	}
	if pending := e.Metrics().Scheduler.Pending; pending != 1 {
		t.Fatalf("pending pairs = %d, want 1", pending)
	}
	// An extension pushes a replacement; the old pair goes stale.
	if err := e.Insert("s", tuple.Ints(1), 80); err != nil {
		t.Fatal(err)
	}
	if pending := e.Metrics().Scheduler.Pending; pending != 2 {
		t.Fatalf("after extension: pending=%d, want 2", pending)
	}
	fired := 0
	if err := e.OnExpire("s", func(string, relation.Row, xtime.Time) { fired++ }); err != nil {
		t.Fatal(err)
	}
	if err := e.Advance(100); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("triggers = %d, want 1", fired)
	}
	if pending := e.Metrics().Scheduler.Pending; pending != 0 {
		t.Fatalf("after drain: pending=%d", pending)
	}
}

func TestAdvanceBackwardFails(t *testing.T) {
	e := New()
	if err := e.Advance(5); err != nil {
		t.Fatal(err)
	}
	if err := e.Advance(3); err == nil {
		t.Error("backwards advance accepted")
	}
}

func TestSelectValueConstPredicateThroughEngine(t *testing.T) {
	e := newsEngine(t)
	b, _ := e.Base("pol")
	s, err := algebra.NewSelect(algebra.ColConst{Col: 1, Op: algebra.OpEq, Const: value.Int(25)}, b)
	if err != nil {
		t.Fatal(err)
	}
	qr, err := e.QueryStamped(s, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Rel.CountAt(0) != 2 {
		t.Fatalf("rows = %d, want 2", qr.Rel.CountAt(0))
	}
}

func TestOnViewInvalidNotifiesOnce(t *testing.T) {
	e := newsEngine(t)
	polB, _ := e.Base("pol")
	elB, _ := e.Base("el")
	p1, err := algebra.NewProject([]int{0}, polB)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := algebra.NewProject([]int{0}, elB)
	if err != nil {
		t.Fatal(err)
	}
	d, err := algebra.NewDiff(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	// Reject policy: the view stays invalid until someone acts.
	if _, err := e.CreateView("d", d, view.WithRecovery(view.RecoverReject)); err != nil {
		t.Fatal(err)
	}
	var fired []xtime.Time
	if err := e.OnViewInvalid("d", func(name string, at xtime.Time) {
		fired = append(fired, at)
	}, false); err != nil {
		t.Fatal(err)
	}
	// texp(d) = 3: the observer fires when the clock crosses 3 — once,
	// not on every later tick.
	for tick := xtime.Time(1); tick <= 8; tick++ {
		if err := e.Advance(tick); err != nil {
			t.Fatal(err)
		}
	}
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("observer fired at %v, want exactly [3]", fired)
	}
}

func TestOnViewInvalidAutoRefresh(t *testing.T) {
	e := newsEngine(t)
	polB, _ := e.Base("pol")
	elB, _ := e.Base("el")
	p1, _ := algebra.NewProject([]int{0}, polB)
	p2, _ := algebra.NewProject([]int{0}, elB)
	d, err := algebra.NewDiff(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateView("d", d, view.WithRecovery(view.RecoverReject)); err != nil {
		t.Fatal(err)
	}
	refreshes := 0
	if err := e.OnViewInvalid("d", func(string, xtime.Time) { refreshes++ }, true); err != nil {
		t.Fatal(err)
	}
	for tick := xtime.Time(1); tick <= 16; tick++ {
		if err := e.Advance(tick); err != nil {
			t.Fatal(err)
		}
		// With auto-refresh, reads always succeed even under reject.
		if _, _, err := e.ReadView("d"); err != nil {
			t.Fatalf("read at %v failed despite auto-refresh: %v", tick, err)
		}
	}
	// Invalidation events at 3 and 5 (the two critical tuples).
	if refreshes < 2 {
		t.Fatalf("refreshes = %d, want ≥ 2", refreshes)
	}
}

func TestOnViewInvalidUnknownView(t *testing.T) {
	e := New()
	if err := e.OnViewInvalid("nope", func(string, xtime.Time) {}, false); err == nil {
		t.Fatal("unknown view accepted")
	}
}
