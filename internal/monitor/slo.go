package monitor

import (
	"sync/atomic"
	"time"

	"expdb/internal/metrics"
)

// SLO tracks the one promise the paper makes that an operator must be
// able to verify under load: expirations fire at their texp boundary,
// not after it. Three distributions capture it:
//
//   - DispatchLag: fire tick − texp, in ticks, for every tuple expired
//     during steady-state operation. A healthy eager engine advancing
//     tick-by-tick keeps this at zero; lazy sweeping shows the §3.2
//     grid-period trade-off explicitly.
//   - CatchupLag: the same quantity for the post-recovery catch-up batch
//     — expirations whose tick passed while the process was down. These
//     are *expected* to lag (by the whole downtime), so they are
//     recorded in their own labelled series and never pollute the
//     steady-state SLO.
//   - HeartbeatGap: wall-clock nanoseconds between successive Advance
//     calls — the drift of the engine heartbeat that every validity
//     window ultimately leans on.
//
// All observation paths are a handful of atomic operations; the engine
// calls them inside expiry dispatch without measurable cost.
type SLO struct {
	// DispatchLag is the steady-state expiry lag histogram (ticks).
	DispatchLag metrics.Histogram
	// CatchupLag is the post-recovery catch-up lag histogram (ticks),
	// kept separate so downtime never reads as an SLO breach.
	CatchupLag metrics.Histogram
	// HeartbeatGap is the wall-time distribution between Advances (ns).
	HeartbeatGap metrics.Histogram

	// lagThresholdTicks is the budget the watchdog compares the
	// steady-state p99 lag against (0 disables the breach check). It is
	// fixed at construction.
	lagThresholdTicks int64
	// lastAdvance is the wall time of the most recent Advance in unix
	// nanos (0 = never advanced).
	lastAdvance atomic.Int64
	// Breaches counts watchdog evaluations that found p99 dispatch lag
	// above the threshold.
	Breaches metrics.Counter
}

// NewSLO returns a tracker with the given lag budget in ticks.
func NewSLO(lagThresholdTicks int64) *SLO {
	return &SLO{lagThresholdTicks: lagThresholdTicks}
}

// ObserveDispatch records one expired tuple's lag (fire tick − texp).
// catchup routes the observation to the labelled recovery series.
func (s *SLO) ObserveDispatch(lagTicks int64, catchup bool) {
	if s == nil {
		return
	}
	if catchup {
		s.CatchupLag.Observe(lagTicks)
		return
	}
	s.DispatchLag.Observe(lagTicks)
}

// ObserveAdvance records one engine heartbeat at wall time now,
// observing the gap since the previous one.
func (s *SLO) ObserveAdvance(now time.Time) {
	if s == nil {
		return
	}
	ns := now.UnixNano()
	prev := s.lastAdvance.Swap(ns)
	if prev != 0 && ns > prev {
		s.HeartbeatGap.Observe(ns - prev)
	}
}

// LastAdvance returns the wall time of the most recent Advance in unix
// nanoseconds (0 = never).
func (s *SLO) LastAdvance() int64 {
	if s == nil {
		return 0
	}
	return s.lastAdvance.Load()
}

// LagThreshold returns the current lag budget in ticks.
func (s *SLO) LagThreshold() int64 { return s.lagThresholdTicks }

// P99Lag returns the p99 of the steady-state dispatch-lag distribution.
// Because the histogram's Quantile is a one-sided (upper-bound)
// estimator, comparing it against the threshold can only flag late
// dispatch, never falsely acquit it.
func (s *SLO) P99Lag() int64 { return s.DispatchLag.Quantile(0.99) }

// Breached reports whether the steady-state p99 lag currently exceeds
// the threshold. Allocation-free (one bucket-array pass); the watchdog
// calls it every evaluation tick.
func (s *SLO) Breached() bool {
	t := s.lagThresholdTicks
	return t > 0 && s.P99Lag() > t
}

// SLOSnapshot is the JSON-ready copy of the tracker.
type SLOSnapshot struct {
	LagThresholdTicks int64                     `json:"lag_threshold_ticks"`
	P99LagTicks       int64                     `json:"p99_lag_ticks"`
	Breached          bool                      `json:"breached"`
	Breaches          int64                     `json:"breaches"`
	LastAdvanceNanos  int64                     `json:"last_advance_unix_ns"`
	DispatchLag       metrics.HistogramSnapshot `json:"dispatch_lag_ticks"`
	CatchupLag        metrics.HistogramSnapshot `json:"catchup_lag_ticks"`
	HeartbeatGap      metrics.HistogramSnapshot `json:"heartbeat_gap_ns"`
}

// Snapshot copies the tracker for JSON export.
func (s *SLO) Snapshot() SLOSnapshot {
	if s == nil {
		return SLOSnapshot{}
	}
	return SLOSnapshot{
		LagThresholdTicks: s.LagThreshold(),
		P99LagTicks:       s.P99Lag(),
		Breached:          s.Breached(),
		Breaches:          s.Breaches.Load(),
		LastAdvanceNanos:  s.LastAdvance(),
		DispatchLag:       s.DispatchLag.Snapshot(),
		CatchupLag:        s.CatchupLag.Snapshot(),
		HeartbeatGap:      s.HeartbeatGap.Snapshot(),
	}
}
