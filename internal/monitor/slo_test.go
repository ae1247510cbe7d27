package monitor

import (
	"testing"
	"time"
)

func TestSLODispatchVsCatchup(t *testing.T) {
	s := NewSLO(4)
	for i := 0; i < 100; i++ {
		s.ObserveDispatch(0, false)
	}
	s.ObserveDispatch(1000, true) // downtime catch-up, labelled separately
	if got := s.DispatchLag.Count(); got != 100 {
		t.Fatalf("steady-state observations = %d, want 100", got)
	}
	if got := s.CatchupLag.Count(); got != 1 {
		t.Fatalf("catch-up observations = %d, want 1", got)
	}
	if s.Breached() {
		t.Fatalf("catch-up lag leaked into the steady-state SLO: p99=%d", s.P99Lag())
	}
}

func TestSLOBreach(t *testing.T) {
	// 99 on-time, 2 late: the p99 rank lands in the late bucket.
	observed := func(threshold int64) *SLO {
		s := NewSLO(threshold)
		for i := 0; i < 99; i++ {
			s.ObserveDispatch(0, false)
		}
		s.ObserveDispatch(40, false)
		s.ObserveDispatch(40, false)
		return s
	}
	if s := observed(4); !s.Breached() {
		t.Fatalf("p99=%d threshold=%d: want breached", s.P99Lag(), s.LagThreshold())
	}
	if observed(1 << 10).Breached() {
		t.Fatal("raised threshold should clear the breach")
	}
	if observed(0).Breached() {
		t.Fatal("threshold 0 must disable the breach check")
	}
}

func TestSLOHeartbeat(t *testing.T) {
	s := NewSLO(0)
	if s.LastAdvance() != 0 {
		t.Fatal("LastAdvance before any heartbeat should be 0")
	}
	base := time.Unix(1000, 0)
	s.ObserveAdvance(base)
	if s.HeartbeatGap.Count() != 0 {
		t.Fatal("first heartbeat must not record a gap")
	}
	s.ObserveAdvance(base.Add(250 * time.Millisecond))
	if got := s.HeartbeatGap.Count(); got != 1 {
		t.Fatalf("gap observations = %d, want 1", got)
	}
	if got := s.HeartbeatGap.Sum(); got != int64(250*time.Millisecond) {
		t.Fatalf("gap sum = %d, want 250ms in nanos", got)
	}
	if got := s.LastAdvance(); got != base.Add(250*time.Millisecond).UnixNano() {
		t.Fatalf("LastAdvance = %d", got)
	}
}

func TestSLOSnapshotAndNil(t *testing.T) {
	var nilSLO *SLO
	nilSLO.ObserveDispatch(1, false)
	nilSLO.ObserveAdvance(time.Now())
	if nilSLO.LastAdvance() != 0 || nilSLO.Snapshot().P99LagTicks != 0 {
		t.Fatal("nil SLO should be inert")
	}

	s := NewSLO(2)
	s.ObserveDispatch(5, false)
	snap := s.Snapshot()
	if snap.LagThresholdTicks != 2 || snap.DispatchLag.Count != 1 || !snap.Breached {
		t.Fatalf("snapshot = %+v", snap)
	}
}
