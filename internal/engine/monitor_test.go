package engine

import (
	"math/rand"
	"testing"

	"expdb/internal/monitor"
	"expdb/internal/trace"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// TestMonitorSeededLoadDispatchLag is the acceptance load test for the
// expiration-lag SLO: under a seeded workload an eager engine advancing
// tick-by-tick dispatches every expiration at its texp boundary, so the
// steady-state p99 lag stays within the configured budget and nothing
// lands in the catch-up series.
func TestMonitorSeededLoadDispatchLag(t *testing.T) {
	const threshold = 2
	e := New(WithMonitor(monitor.Options{LagThresholdTicks: threshold}))
	if err := e.CreateTable("s", tuple.IntCols("id")); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	const n = 2000
	for i := int64(0); i < n; i++ {
		texp := xtime.Time(1 + rng.Intn(n))
		if err := e.Insert("s", tuple.Ints(i), texp); err != nil {
			t.Fatal(err)
		}
	}
	for tick := xtime.Time(1); tick <= n+10; tick++ {
		if err := e.Advance(tick); err != nil {
			t.Fatal(err)
		}
	}
	slo := e.Monitor().SLO
	if got := slo.DispatchLag.Count(); got != n {
		t.Fatalf("dispatch observations = %d, want %d", got, n)
	}
	if got := slo.CatchupLag.Count(); got != 0 {
		t.Fatalf("catch-up observations = %d, want 0 (no recovery happened)", got)
	}
	if p99 := slo.P99Lag(); p99 > threshold {
		t.Fatalf("p99 dispatch lag = %d ticks, want <= %d", p99, threshold)
	}
	if slo.Breached() {
		t.Fatal("SLO breached under normal tick-by-tick operation")
	}
	if got := slo.HeartbeatGap.Count(); got != n+10-1 {
		t.Fatalf("heartbeat gaps = %d, want %d", got, n+10-1)
	}
}

// TestMonitorCatchupSeparation: expirations missed during downtime fire
// in the first post-recovery advance and are recorded in the catch-up
// series only — downtime must never read as a steady-state SLO breach.
func TestMonitorCatchupSeparation(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir)
	if err := e.CreateTable("s", tuple.IntCols("id")); err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := int64(0); i < n; i++ {
		if err := e.Insert("s", tuple.Ints(i), xtime.Time(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Advance(5); err != nil {
		t.Fatal(err)
	}

	// Crash; reopen with monitoring.
	e2, info := openDurable(t, dir, WithMonitor(monitor.Options{LagThresholdTicks: 2}))
	if !info.Recovered {
		t.Fatal("recovery did not find prior state")
	}
	if !e2.CatchupPending() {
		t.Fatal("catch-up should be pending after recovering real state")
	}
	mon := e2.Monitor()
	if mon.Tick(); mon.Health.State() != monitor.StateDegraded {
		t.Fatalf("health with catch-up pending = %v, want degraded", mon.Health.State())
	}

	// The catch-up advance fires everything missed during downtime, far
	// past each tuple's texp.
	if err := e2.Advance(10_000); err != nil {
		t.Fatal(err)
	}
	slo := mon.SLO
	if got := slo.CatchupLag.Count(); got != n {
		t.Fatalf("catch-up observations = %d, want %d", got, n)
	}
	if got := slo.DispatchLag.Count(); got != 0 {
		t.Fatalf("steady-state observations = %d, want 0 — downtime leaked into the SLO", got)
	}
	if slo.Breached() {
		t.Fatal("catch-up lag must not breach the steady-state SLO")
	}
	if e2.CatchupPending() {
		t.Fatal("catch-up still pending after the catch-up advance")
	}
	if mon.Tick(); mon.Health.State() != monitor.StateReady {
		t.Fatalf("health after catch-up = %v, want ready", mon.Health.State())
	}

	// Subsequent expirations are steady-state again.
	if err := e2.Insert("s", tuple.Ints(int64(n)), 10_010); err != nil {
		t.Fatal(err)
	}
	if err := e2.Advance(10_010); err != nil {
		t.Fatal(err)
	}
	if got := slo.DispatchLag.Count(); got != 1 {
		t.Fatalf("post-catch-up steady observations = %d, want 1", got)
	}
}

// TestMonitorFreshDirReady: a boot on an empty directory has nothing to
// catch up and must be ready immediately.
func TestMonitorFreshDirReady(t *testing.T) {
	e, info := openDurable(t, t.TempDir(), WithMonitor(monitor.Options{}))
	if info.Recovered {
		t.Fatal("fresh dir reported as recovered")
	}
	if e.CatchupPending() {
		t.Fatal("fresh dir has catch-up pending")
	}
	mon := e.Monitor()
	if mon.Tick(); !mon.Health.Ready() {
		t.Fatalf("fresh-dir health = %v, want ready", mon.Health.State())
	}
}

// TestMonitorTracedAdvanceConsumesCatchup: even when the first advance
// after recovery carries a caller trace ID, it is still the catch-up
// batch — readiness must not stay stuck at degraded.
func TestMonitorTracedAdvanceConsumesCatchup(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir)
	if err := e.CreateTable("s", tuple.IntCols("id")); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("s", tuple.Ints(1), 10); err != nil {
		t.Fatal(err)
	}
	if err := e.Advance(5); err != nil {
		t.Fatal(err)
	}
	e2, _ := openDurable(t, dir, WithMonitor(monitor.Options{}))
	if err := e2.AdvanceTraced(100, trace.NextID()); err != nil {
		t.Fatal(err)
	}
	if e2.CatchupPending() {
		t.Fatal("traced catch-up advance left CatchupPending true")
	}
	if got := e2.Monitor().SLO.CatchupLag.Count(); got != 1 {
		t.Fatalf("catch-up observations = %d, want 1", got)
	}
}

// TestMonitorHistorySeries: the engine registers its counters as history
// series and a sampler tick captures their per-interval deltas.
func TestMonitorHistorySeries(t *testing.T) {
	e := New(WithMonitor(monitor.Options{HistoryCapacity: 8}))
	if err := e.CreateTable("s", tuple.IntCols("id")); err != nil {
		t.Fatal(err)
	}
	mon := e.Monitor()
	for i := int64(0); i < 5; i++ {
		if err := e.Insert("s", tuple.Ints(i), xtime.Time(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	mon.Tick()
	snap := mon.History.Snapshot("expdb_inserts_total", 0)
	if len(snap.Series) != 1 || len(snap.Series[0].Points) != 1 {
		t.Fatalf("history snapshot = %+v", snap)
	}
	if got := snap.Series[0].Points[0].Value; got != 5 {
		t.Fatalf("insert delta = %d, want 5", got)
	}
	// Scheduler depth is a gauge behind a short RLock.
	depth := mon.History.Snapshot("expdb_scheduler_pending", 0)
	if got := depth.Series[0].Points[0].Value; got != 5 {
		t.Fatalf("expdb_scheduler_pending = %d, want 5", got)
	}
	names := mon.History.SeriesNames()
	want := map[string]bool{"expdb_inserts_total": false, `expdb_ring_entries_total{ring="events"}`: false, "expdb_cache_hits_total": false, "expdb_slo_p99_lag_ticks": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Fatalf("series %s not registered (have %v)", n, names)
		}
	}
}

// TestMetricsSnapshotRingsAndWAL: the snapshot carries the event and
// trace ring occupancy and, for durable engines, the WAL block.
func TestMetricsSnapshotRingsAndWAL(t *testing.T) {
	e, _ := openDurable(t, t.TempDir())
	if err := e.CreateTable("s", tuple.IntCols("id")); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("s", tuple.Ints(1), 10); err != nil {
		t.Fatal(err)
	}
	if err := e.Advance(10); err != nil {
		t.Fatal(err)
	}
	s := e.Metrics()
	if s.Events.Total == 0 || s.Events.Capacity == 0 || s.Events.HighWater == 0 {
		t.Fatalf("event ring block = %+v", s.Events)
	}
	if s.Events.HighWater > uint64(s.Events.Capacity) {
		t.Fatalf("high-water %d exceeds capacity %d", s.Events.HighWater, s.Events.Capacity)
	}
	if s.Traces.Capacity == 0 {
		t.Fatalf("trace ring block = %+v", s.Traces)
	}
	if s.WAL == nil {
		t.Fatal("durable engine snapshot missing WAL block")
	}
	if s.WAL.Appends == 0 || s.WAL.Syncs == 0 || s.WAL.Poisoned != "" {
		t.Fatalf("wal block = %+v", s.WAL)
	}
	if mem := New(); mem.Metrics().WAL != nil {
		t.Fatal("memory-only engine snapshot has a WAL block")
	}
}

// TestMonitorHealthChangeEvent: watchdog transitions land in the
// engine's lifecycle event log.
func TestMonitorHealthChangeEvent(t *testing.T) {
	e := New(WithMonitor(monitor.Options{}))
	e.Monitor().Tick()
	found := false
	for _, ev := range e.Events().Snapshot(0) {
		if ev.Kind == trace.EvHealthChange && ev.Count == int64(monitor.StateReady) {
			found = true
		}
	}
	if !found {
		t.Fatal("no EvHealthChange event after the first watchdog tick")
	}
}
