package engine

import (
	"encoding/json"
	"strings"
	"testing"

	"expdb/internal/algebra"
	"expdb/internal/tuple"
	"expdb/internal/view"
	"expdb/internal/xtime"
)

func TestMetricsCounters(t *testing.T) {
	e := newsEngine(t)
	if _, err := e.Delete("el", tuple.Ints(4, 90)); err != nil {
		t.Fatal(err)
	}
	if err := e.Advance(11); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.Inserts != 6 {
		t.Errorf("inserts = %d, want 6", m.Inserts)
	}
	if m.Deletes != 1 {
		t.Errorf("deletes = %d, want 1", m.Deletes)
	}
	// At 11 everything but pol UID 2 (texp 15) is gone, and the
	// deleted el tuple must not count as expired.
	if m.TuplesExpired != 4 {
		t.Errorf("tuples expired = %d, want 4", m.TuplesExpired)
	}
	if m.Advances != 1 {
		t.Errorf("advances = %d, want 1", m.Advances)
	}
	if got := m.AdvanceNanos.Count; got != m.Advances {
		t.Errorf("advance latency samples = %d, want %d", got, m.Advances)
	}
	if m.ExpiryBatch.Count == 0 || m.ExpiryBatch.Sum != m.TuplesExpired {
		t.Errorf("expiry batch hist = %+v, want sum %d", m.ExpiryBatch, m.TuplesExpired)
	}
	if m.Now != 11 {
		t.Errorf("now = %v, want 11", m.Now)
	}
	// The deleted tuple's stale pair surfaced and was discarded with the
	// batch; only pol UID 2 is still pending.
	if m.Scheduler.Pending != 1 {
		t.Errorf("pending = %d, want 1 (pol UID 2)", m.Scheduler.Pending)
	}

	// Legacy Stats must agree with the atomic counters it now wraps.
	st := e.Stats()
	if int64(st.TuplesExpired) != m.TuplesExpired || int64(st.Inserts) != m.Inserts {
		t.Errorf("Stats()=%+v disagrees with Metrics()=%+v", st, m)
	}
}

// TestMetricsViewReadPaths drives one view through all three read paths —
// cache hit, patch replay, full recomputation — and asserts the per-view
// counters tell them apart.
func TestMetricsViewReadPaths(t *testing.T) {
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
	// Same expression without a patch queue: its validity ends at the
	// first El expiration, forcing the recompute path.
	if _, err := e.CreateView("nopatch", d); err != nil {
		t.Fatal(err)
	}

	// Path 1: read the fresh materialisation — a pure cache hit.
	if _, info, err := e.ReadView("onlypol"); err != nil {
		t.Fatal(err)
	} else if info.Source != view.SourceMaterialised {
		t.Fatalf("fresh read source = %s", info.Source)
	}
	vm := e.Metrics().Views["onlypol"]
	if vm.Reads != 1 || vm.CacheHits != 1 || vm.PatchesApplied != 0 || vm.Recomputations != 0 {
		t.Fatalf("after cache hit: %+v", vm)
	}

	// Path 2: advance past El expirations; the Theorem 3 queue patches the
	// materialisation instead of recomputing.
	if err := e.Advance(6); err != nil {
		t.Fatal(err)
	}
	if vm = e.Metrics().Views["onlypol"]; vm.PendingPatches == 0 {
		t.Fatalf("no pending patches after advance: %+v", vm)
	}
	if _, info, err := e.ReadView("onlypol"); err != nil {
		t.Fatal(err)
	} else if info.Source != view.SourceMaterialised {
		t.Fatalf("patched read source = %s", info.Source)
	}
	vm = e.Metrics().Views["onlypol"]
	if vm.Reads != 2 || vm.PatchesApplied == 0 || vm.Recomputations != 0 {
		t.Fatalf("after patch replay: %+v", vm)
	}

	// Path 3: the unpatched twin went stale at the first El expiration;
	// its read must fall back to full recomputation and record latency.
	if _, info, err := e.ReadView("nopatch"); err != nil {
		t.Fatal(err)
	} else if info.Source != view.SourceRecomputed {
		t.Fatalf("stale read source = %s", info.Source)
	}
	nm := e.Metrics().Views["nopatch"]
	if nm.Reads != 1 || nm.Recomputations != 1 {
		t.Fatalf("recomputations = %d, want 1: %+v", nm.Recomputations, nm)
	}
	if nm.RecomputeNanos.Count != 1 {
		t.Fatalf("recompute latency samples = %d, want 1", nm.RecomputeNanos.Count)
	}
	for name, m := range map[string]ViewMetrics{"onlypol": vm, "nopatch": nm} {
		if m.CacheHits+m.Recomputations+m.Moved != m.Reads {
			t.Fatalf("%s read split does not add up: %+v", name, m)
		}
	}
}

func TestMetricsSweepAndLag(t *testing.T) {
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
	m := e.Metrics()
	if m.Sweeps == 0 {
		t.Fatalf("sweeps = 0 after lazy advance: %+v", m)
	}
	if m.TuplesExpired != 1 {
		t.Errorf("tuples expired = %d, want 1", m.TuplesExpired)
	}
	// texp 2, swept at tick 4 → 2 ticks of trigger lag (§3.2 trade-off).
	if m.TriggerLagTicks != 2 {
		t.Errorf("trigger lag = %d ticks, want 2", m.TriggerLagTicks)
	}
}

func TestMetricsJSONShape(t *testing.T) {
	e := newsEngine(t)
	if err := e.Advance(4); err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(e.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"inserts":6`, `"tuples_expired":2`, `"advance_nanos"`,
		`"expiry_batch_size"`, `"scheduler"`, `"pending"`,
	} {
		if !strings.Contains(string(buf), key) {
			t.Errorf("metrics JSON missing %s:\n%s", key, buf)
		}
	}
}

// TestMetricsHotPathAllocs pins the instrumentation cost: the counter and
// histogram updates issued on the insert/Advance/read hot paths must not
// allocate. BenchmarkInsertMetricsOverhead tracks the same property with
// -benchmem against the full insert path.
func TestMetricsHotPathAllocs(t *testing.T) {
	var m Metrics
	if n := testing.AllocsPerRun(1000, func() {
		m.Inserts.Inc()
		m.TuplesExpired.Add(3)
		m.AdvanceNanos.Observe(1234)
		m.ExpiryBatch.Observe(7)
	}); n != 0 {
		t.Fatalf("metrics hot path allocates %v per op, want 0", n)
	}
}

// BenchmarkInsertMetricsOverhead is the allocation benchmark for the
// instrumented insert path; run with -benchmem. The figure should match
// the pre-instrumentation insert cost (map entry + texp-index pair): the
// metric updates themselves contribute zero allocations (see
// TestMetricsHotPathAllocs).
func BenchmarkInsertMetricsOverhead(b *testing.B) {
	e, names := benchTables(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.InsertTTL(names[0], tuple.Ints(int64(i), 0), xtime.Time(1_000_000)); err != nil {
			b.Fatal(err)
		}
	}
}
