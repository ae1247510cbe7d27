package monitor

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"expdb/internal/metrics"
	"expdb/internal/trace"
)

// Defaults for Options zero fields.
const (
	DefaultSampleInterval    = time.Second
	DefaultHistoryCapacity   = 300 // 5 minutes at the default interval
	DefaultLagThresholdTicks = 1
	DefaultSustainedBreaches = 3
	// stallLivenessFactor scales StallAfter into the liveness stall
	// threshold: readiness drops after one StallAfter without an
	// Advance, liveness after stallLivenessFactor of them.
	stallLivenessFactor = 3
)

// Options configures a Monitor. The zero value selects every default;
// StallAfter stays opt-in (0 disables the Advance-freshness checks)
// because only a deployment with a known heartbeat cadence — expsyncd's
// tick loop, not a test advancing logical time at will — can say what
// "stalled" means in wall time.
type Options struct {
	// SampleInterval is the history sampler and watchdog cadence.
	SampleInterval time.Duration
	// HistoryCapacity is the per-series ring size.
	HistoryCapacity int
	// LagThresholdTicks is the steady-state dispatch-lag budget the
	// watchdog compares p99 against (<0 disables; 0 takes the default).
	LagThresholdTicks int64
	// StallAfter is how long without an Advance before readiness drops
	// (liveness drops at 3×). 0 disables both checks.
	StallAfter time.Duration
	// SustainedBreaches is how many consecutive watchdog evaluations
	// must find the lag SLO breached before liveness flips — a single
	// bursty interval degrades, it does not kill.
	SustainedBreaches int
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.SampleInterval <= 0 {
		o.SampleInterval = DefaultSampleInterval
	}
	if o.HistoryCapacity <= 0 {
		o.HistoryCapacity = DefaultHistoryCapacity
	}
	if o.LagThresholdTicks == 0 {
		o.LagThresholdTicks = DefaultLagThresholdTicks
	} else if o.LagThresholdTicks < 0 {
		o.LagThresholdTicks = 0
	}
	if o.SustainedBreaches <= 0 {
		o.SustainedBreaches = DefaultSustainedBreaches
	}
	return o
}

// Preallocated check errors: the watchdog returns these on every failing
// evaluation, so failing steadily costs no allocations either.
var (
	errAdvanceStale   = errors.New("no Advance within the freshness window")
	errAdvanceStalled = errors.New("Advance pipeline stalled (liveness window exceeded)")
	errSLOBreach      = errors.New("expiration-lag SLO breached on consecutive evaluations")
)

// EmitFunc publishes a monitor lifecycle event; the engine wires it to
// its trace-event log, stamping tick and trace ID. cause names the
// check or series concerned.
type EmitFunc func(kind trace.EventKind, cause string, count int64)

// Monitor bundles the three continuous-monitoring primitives — History,
// SLO, Health — behind one periodic tick, optionally driven by its own
// goroutine (Start/Stop). Construction wires the watchdog's own checks
// (Advance freshness/stall, sustained SLO breach); the engine and the
// facade add theirs (WAL poison, recovery catch-up) via Health.AddCheck.
type Monitor struct {
	History *History
	SLO     *SLO
	Health  *Health

	opts Options
	emit EmitFunc

	// consecBreaches counts consecutive watchdog evaluations with the
	// lag SLO breached; the "slo" liveness check trips at
	// opts.SustainedBreaches.
	consecBreaches atomic.Int64

	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	started bool
}

// New builds a monitor. emit may be nil (events are dropped).
func New(opts Options, emit EmitFunc) *Monitor {
	opts = opts.withDefaults()
	m := &Monitor{
		History: NewHistory(opts.HistoryCapacity),
		SLO:     NewSLO(opts.LagThresholdTicks),
		opts:    opts,
		emit:    emit,
	}
	m.Health = NewHealth(func(old, new State, cause string) {
		m.emitEvent(trace.EvHealthChange, cause, int64(new))
	})
	if opts.StallAfter > 0 {
		m.Health.AddCheck("advance-fresh", SevReadiness, m.checkAdvanceFresh)
		m.Health.AddCheck("advance-stalled", SevLiveness, m.checkAdvanceStalled)
	}
	m.Health.AddCheck("expiration-lag-slo", SevLiveness, m.checkSLO)
	// A fresh history holds no names these could collide with.
	_ = m.History.RegisterFamilies(m.Families())
	return m
}

// Families declares the SLO tracker's and the watchdog's metric families,
// in exposition order.
func (m *Monitor) Families() []Family {
	slo, h := m.SLO, m.Health
	return []Family{
		{Name: "expdb_slo_dispatch_lag_ticks", Help: "Expiry dispatch lag (dispatch tick - texp) by phase.",
			Labels: [][]Label{{{Key: "phase", Value: "steady"}}, {{Key: "phase", Value: "catchup"}}},
			Hist:   func(i int) *metrics.Histogram { return [...]*metrics.Histogram{&slo.DispatchLag, &slo.CatchupLag}[i] }},
		Histogram("expdb_slo_heartbeat_gap_nanos", "Wall-clock gap between consecutive Advance calls.", &slo.HeartbeatGap),
		Gauge("expdb_slo_lag_threshold_ticks", "Configured p99 dispatch-lag budget (0 = disabled).", slo.LagThreshold),
		Gauge("expdb_slo_p99_lag_ticks", "Estimated p99 steady-state dispatch lag.", slo.P99Lag),
		Flag("expdb_slo_breached", "1 while p99 dispatch lag exceeds the budget.", slo.Breached),
		Counter("expdb_slo_breach_ticks_total", "Watchdog ticks observed in breach.", slo.Breaches.Load),
		Gauge("expdb_health_state", "Watchdog state (0 starting, 1 ready, 2 degraded, 3 unhealthy).", func() int64 { return int64(h.State()) }),
		Flag("expdb_health_live", "1 while the process should be kept alive.", h.Live),
		Flag("expdb_health_ready", "1 while the database should receive traffic.", h.Ready),
		{Name: "expdb_health_check_ok", Help: "1 while the named health check passes.", Kind: SeriesGauge,
			Scrape: func(emit func([]Label, int64)) {
				for _, c := range h.Snapshot().Checks {
					emit([]Label{{Key: "check", Value: c.Name}, {Key: "severity", Value: c.Severity}}, flag(c.OK))
				}
			}},
	}
}

// Options returns the resolved (defaulted) configuration.
func (m *Monitor) Options() Options { return m.opts }

func (m *Monitor) emitEvent(kind trace.EventKind, cause string, count int64) {
	if m.emit != nil {
		m.emit(kind, cause, count)
	}
}

// checkAdvanceFresh fails once no Advance has happened for StallAfter.
// A process that has never advanced is treated as fresh: readiness at
// boot is recovery's and the WAL's business, not the heartbeat's.
func (m *Monitor) checkAdvanceFresh() error {
	last := m.SLO.LastAdvance()
	if last == 0 || time.Since(time.Unix(0, last)) <= m.opts.StallAfter {
		return nil
	}
	return errAdvanceStale
}

// checkAdvanceStalled is the liveness form: stallLivenessFactor windows
// without a heartbeat means the Advance pipeline is wedged (a stuck
// advMu, a dead ticker goroutine), not merely slow.
func (m *Monitor) checkAdvanceStalled() error {
	last := m.SLO.LastAdvance()
	if last == 0 || time.Since(time.Unix(0, last)) <= stallLivenessFactor*m.opts.StallAfter {
		return nil
	}
	return errAdvanceStalled
}

// checkSLO trips after SustainedBreaches consecutive breached
// evaluations (the counter is maintained by Tick).
func (m *Monitor) checkSLO() error {
	if m.consecBreaches.Load() >= int64(m.opts.SustainedBreaches) {
		return errSLOBreach
	}
	return nil
}

// Tick runs one monitoring cycle: sample the history rings, update the
// SLO breach bookkeeping, evaluate health. It is the loop body Start
// drives and the entry point tests (and the CI alloc gate) call
// directly. Allocation-free.
func (m *Monitor) Tick() {
	m.History.Sample()
	if m.SLO.Breached() {
		m.SLO.Breaches.Inc()
		n := m.consecBreaches.Add(1)
		if n == int64(m.opts.SustainedBreaches) {
			m.emitEvent(trace.EvSLOBreach, "dispatch-lag-p99", m.SLO.P99Lag())
		}
	} else {
		m.consecBreaches.Store(0)
	}
	m.Health.Eval()
}

// Start launches the sampler/watchdog goroutine at the configured
// interval. Idempotent; Stop ends it.
func (m *Monitor) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return
	}
	m.started = true
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	// Evaluate once synchronously so health leaves StateStarting at boot
	// instead of after the first interval — /readyz must answer truthfully
	// immediately.
	m.Tick()
	go func(stop, done chan struct{}) {
		defer close(done)
		ticker := time.NewTicker(m.opts.SampleInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				m.Tick()
			}
		}
	}(m.stop, m.done)
}

// Stop halts the sampler goroutine and waits for it to exit.
// Idempotent; safe when Start was never called.
func (m *Monitor) Stop() {
	m.mu.Lock()
	if !m.started {
		m.mu.Unlock()
		return
	}
	m.started = false
	stop, done := m.stop, m.done
	m.mu.Unlock()
	close(stop)
	<-done
}
