package engine

import (
	"testing"

	"expdb/internal/algebra"
	"expdb/internal/trace"
	"expdb/internal/tuple"
	"expdb/internal/view"
	"expdb/internal/xtime"
)

// eventsOf filters a snapshot by kind.
func eventsOf(events []trace.Event, kind trace.EventKind) []trace.Event {
	var out []trace.Event
	for _, e := range events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// TestAdvanceEmitsExpiryEvents drives the seed engine past every
// expiration and checks the lifecycle log: each expiry batch becomes one
// per-table event, all sharing the Advance's trace ID.
func TestAdvanceEmitsExpiryEvents(t *testing.T) {
	e := newsEngine(t)
	tid := trace.NextID()
	if err := e.AdvanceTraced(11, tid); err != nil {
		t.Fatal(err)
	}
	expiries := eventsOf(e.Events().Snapshot(0), trace.EvExpiry)
	if len(expiries) == 0 {
		t.Fatal("no expiry events after Advance past five expirations")
	}
	var total int64
	byTable := map[string]int64{}
	for _, ev := range expiries {
		if ev.Trace != tid {
			t.Errorf("expiry event trace = %s, want %s", ev.Trace, tid)
		}
		if ev.Count <= 0 {
			t.Errorf("expiry event with non-positive count: %v", ev)
		}
		total += ev.Count
		byTable[ev.Name] += ev.Count
	}
	// pol loses UID 1 and 3 (texp 10); el loses all three (texp 5,3,2).
	if total != 5 {
		t.Errorf("expired tuples across events = %d, want 5", total)
	}
	if byTable["pol"] != 2 || byTable["el"] != 3 {
		t.Errorf("per-table expiry counts = %v, want pol=2 el=3", byTable)
	}
}

// TestAdvanceMintsTraceID: the untraced Advance entry point still tags
// its events with a fresh non-zero ID, so SHOW EVENTS rows are always
// correlatable.
func TestAdvanceMintsTraceID(t *testing.T) {
	e := newsEngine(t)
	if err := e.Advance(4); err != nil {
		t.Fatal(err)
	}
	for _, ev := range e.Events().Snapshot(0) {
		if ev.Trace == 0 {
			t.Errorf("event with zero trace ID: %v", ev)
		}
	}
}

// TestLazySweepEmitsSweepEvents: in lazy mode the corpse removal happens
// at sweep ticks and must be logged as EvSweep, not EvExpiry.
func TestLazySweepEmitsSweepEvents(t *testing.T) {
	e := New(WithSweep(SweepLazy, 4))
	if err := e.CreateTable("s", tuple.IntCols("id")); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("s", tuple.Ints(1), 2); err != nil {
		t.Fatal(err)
	}
	if err := e.Advance(8); err != nil {
		t.Fatal(err)
	}
	events := e.Events().Snapshot(0)
	sweeps := eventsOf(events, trace.EvSweep)
	if len(sweeps) == 0 {
		t.Fatalf("no sweep events after lazy advance; log: %v", events)
	}
	if sweeps[0].Name != "s" || sweeps[0].Count != 1 {
		t.Errorf("sweep event = %v, want table s count 1", sweeps[0])
	}
	if len(eventsOf(events, trace.EvExpiry)) != 0 {
		t.Errorf("lazy sweep must not emit eager-expiry events; log: %v", events)
	}
}

// TestViewReadEmitsLifecycleEvents drives one patched view through cache
// hit and patch replay and a twin through recomputation, asserting the
// event kinds, counts and texp stamps derived from the same ReadInfo the
// caller receives.
func TestViewReadEmitsLifecycleEvents(t *testing.T) {
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
	if _, err := e.CreateView("nopatch", d); err != nil {
		t.Fatal(err)
	}
	// CreateView materialises: two recompute events so far.
	if got := len(eventsOf(e.Events().Snapshot(0), trace.EvViewRecompute)); got != 2 {
		t.Fatalf("recompute events after two CreateViews = %d, want 2", got)
	}

	// Cache hit.
	tid := trace.NextID()
	onlypol, err := e.Catalog().View("onlypol")
	if err != nil {
		t.Fatal(err)
	}
	if _, info, err := e.ReadViewTraced(onlypol, tid); err != nil {
		t.Fatal(err)
	} else if info.TraceID != tid {
		t.Fatalf("ReadInfo trace = %s, want %s", info.TraceID, tid)
	}
	hits := eventsOf(e.Events().Snapshot(0), trace.EvViewCacheHit)
	if len(hits) != 1 || hits[0].Name != "onlypol" || hits[0].Trace != tid {
		t.Fatalf("cache-hit events = %v, want one for onlypol trace %s", hits, tid)
	}

	// Patch replay: advance past el expirations, then read.
	if err := e.Advance(6); err != nil {
		t.Fatal(err)
	}
	_, info, err := e.ReadView("onlypol")
	if err != nil {
		t.Fatal(err)
	}
	if info.PatchesApplied == 0 {
		t.Fatalf("expected patches applied after advance; info = %+v", info)
	}
	patches := eventsOf(e.Events().Snapshot(0), trace.EvViewPatch)
	if len(patches) != 1 || patches[0].Name != "onlypol" {
		t.Fatalf("patch events = %v, want one for onlypol", patches)
	}
	if patches[0].Count != int64(info.PatchesApplied) {
		t.Errorf("patch event count = %d, ReadInfo says %d — the two surfaces disagree",
			patches[0].Count, info.PatchesApplied)
	}
	if patches[0].Trace != info.TraceID {
		t.Errorf("patch event trace %s != ReadInfo trace %s", patches[0].Trace, info.TraceID)
	}

	// Recompute: the unpatched twin is stale.
	if _, info, err = e.ReadView("nopatch"); err != nil {
		t.Fatal(err)
	} else if info.Source != view.SourceRecomputed {
		t.Fatalf("stale read source = %s, want recompute", info.Source)
	}
	recomputes := eventsOf(e.Events().Snapshot(0), trace.EvViewRecompute)
	last := recomputes[len(recomputes)-1]
	if last.Name != "nopatch" {
		t.Fatalf("last recompute event = %v, want nopatch", last)
	}
	if last.Texp != info.Texp {
		t.Errorf("recompute event texp %v != ReadInfo texp %v", last.Texp, info.Texp)
	}
}

// TestWatchedViewEmitsInvalidationEvents: an auto-refreshed view logs
// the invalidation (with the triggering texp) and the refresh that
// follows, under the Advance's trace ID.
func TestWatchedViewEmitsInvalidationEvents(t *testing.T) {
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
	// A difference view without a patch queue: its materialisation
	// invalidates at the first el expiration (Figure 3).
	v, err := e.CreateView("els", d)
	if err != nil {
		t.Fatal(err)
	}
	staleTexp := v.Texp()
	if err := e.OnViewInvalid("els", func(string, xtime.Time) {}, true); err != nil {
		t.Fatal(err)
	}
	tid := trace.NextID()
	if err := e.AdvanceTraced(staleTexp, tid); err != nil {
		t.Fatal(err)
	}
	events := e.Events().Snapshot(0)
	invalids := eventsOf(events, trace.EvViewInvalid)
	if len(invalids) != 1 {
		t.Fatalf("invalidation events = %v, want exactly one", invalids)
	}
	if invalids[0].Name != "els" || invalids[0].Trace != tid {
		t.Errorf("invalidation event = %v, want els under trace %s", invalids[0], tid)
	}
	if invalids[0].Texp != staleTexp {
		t.Errorf("invalidation texp = %v, want the triggering %v", invalids[0].Texp, staleTexp)
	}
	// The auto-refresh recompute follows, with the refreshed texp.
	recomputes := eventsOf(events, trace.EvViewRecompute)
	last := recomputes[len(recomputes)-1]
	if last.Name != "els" || last.Trace != tid {
		t.Fatalf("auto-refresh recompute = %v, want els under trace %s", last, tid)
	}
	if last.Texp <= staleTexp {
		t.Errorf("refreshed texp %v should exceed the stale %v", last.Texp, staleTexp)
	}
}

// TestEventLogCapacityOption: a tiny ring drops oldest and counts them.
func TestEventLogCapacityOption(t *testing.T) {
	e := New(WithEventLogCapacity(2))
	if err := e.CreateTable("s", tuple.IntCols("id")); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		if err := e.Insert("s", tuple.Ints(i), xtime.Time(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Advance tick by tick: five separate one-tuple expiry batches.
	for i := xtime.Time(1); i <= 5; i++ {
		if err := e.Advance(i); err != nil {
			t.Fatal(err)
		}
	}
	log := e.Events()
	if st := log.Stats(); st.Total != 5 || st.Dropped != 3 {
		t.Fatalf("total, dropped = %d, %d, want 5, 3", st.Total, st.Dropped)
	}
	snap := log.Snapshot(0)
	if len(snap) != 2 || snap[0].Seq != 4 || snap[1].Seq != 5 {
		t.Fatalf("snapshot = %v, want seqs 4,5", snap)
	}
}

// TestEmptyAdvanceAllocationFree pins the hot-path guarantee: an Advance
// with nothing due emits no events and performs no allocations even with
// the event log attached (it always is).
func TestEmptyAdvanceAllocationFree(t *testing.T) {
	e := New()
	if err := e.CreateTable("s", tuple.IntCols("id")); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("s", tuple.Ints(1), 1_000_000); err != nil {
		t.Fatal(err)
	}
	tick := xtime.Time(0)
	if n := testing.AllocsPerRun(200, func() {
		tick++
		if err := e.Advance(tick); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("empty Advance allocates %v per op, want 0", n)
	}
	if got := e.Events().Stats().Total; got != 0 {
		t.Fatalf("empty advances emitted %d events, want 0", got)
	}
}

// TestSlowQueryThresholdAccessors: the threshold is atomic and 0 means
// off.
func TestSlowQueryThresholdAccessors(t *testing.T) {
	e := New()
	if e.SlowQueryThreshold() != 0 {
		t.Fatalf("default slow-query threshold = %v, want 0 (off)", e.SlowQueryThreshold())
	}
	e.SetSlowQueryThreshold(5)
	if e.SlowQueryThreshold() != 5 {
		t.Fatalf("threshold = %v after set, want 5ns", e.SlowQueryThreshold())
	}
	e2 := New(WithSlowQueryThreshold(7))
	if e2.SlowQueryThreshold() != 7 {
		t.Fatalf("option threshold = %v, want 7ns", e2.SlowQueryThreshold())
	}
}
