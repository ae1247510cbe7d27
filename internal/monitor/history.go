// Package monitor is the continuous-monitoring subsystem layered over
// internal/metrics: where metrics answers "how much, ever", monitor
// answers the operator questions a production deployment actually asks —
// how is this trending (History), are expirations firing on time (SLO),
// and is the process healthy at all (Health + watchdog). It also owns
// the Prometheus text-format writer every standard scrape stack expects.
//
// The paper's correctness story hinges on the system honouring texp
// boundaries exactly; this package is how that fidelity becomes an
// observable, alertable property rather than an assumption. Everything
// on a periodic path (Sample, watchdog evaluation) is allocation-free
// and CI-gated, matching the discipline of the hot paths it observes.
//
// monitor sits below the engine in the dependency order: it imports only
// metrics, trace and xtime, and the engine injects its state through
// load functions and health checks. That keeps the sampler honest — it
// can only read what the engine exposes lock-free or behind the short
// read-side of Engine.mu (see DESIGN.md §12 for the lock placement).
package monitor

import (
	"fmt"
	"sync"
	"time"
)

// SeriesKind says how a sampled value becomes a history point.
type SeriesKind uint8

const (
	// SeriesCounter stores the per-interval delta of a monotonically
	// increasing source — the rate shape operators graph.
	SeriesCounter SeriesKind = iota
	// SeriesGauge stores the instantaneous level of the source.
	SeriesGauge
)

// String names the kind.
func (k SeriesKind) String() string {
	if k == SeriesCounter {
		return "counter"
	}
	return "gauge"
}

// series is one registered time-series: a load function plus its
// preallocated ring of points.
type series struct {
	name string
	kind SeriesKind
	load func() int64
	last int64   // previous raw reading (counter deltas)
	ring []int64 // len = History capacity
}

// History is a fixed-capacity collection of per-metric time-series,
// periodically filled by Sample from registered load functions. All
// rings are preallocated at Register time, so a Sample tick performs
// zero allocations regardless of how many series are registered — the
// property the CI alloc gate pins.
//
// The mutex is a leaf: Sample holds it while calling load functions,
// which may themselves take short read locks (Engine.mu.RLock for
// scheduler depth) but never a lock that could wait on Sample.
type History struct {
	mu       sync.Mutex
	capacity int
	series   []*series
	byName   map[string]*series
	wall     []int64 // unix nanos per sample, ring
	n        uint64  // samples ever taken
}

// NewHistory returns a history retaining the most recent capacity
// samples per series (minimum 1).
func NewHistory(capacity int) *History {
	if capacity < 1 {
		capacity = 1
	}
	return &History{
		capacity: capacity,
		byName:   make(map[string]*series),
		wall:     make([]int64, capacity),
	}
}

// Capacity returns the per-series ring size.
func (h *History) Capacity() int { return h.capacity }

// Register adds a named series backed by load. load is called once per
// Sample tick and must be cheap and allocation-free (atomic counter
// loads, or reads behind a short RLock). Registering an existing name is
// an error — series identity is how deltas stay meaningful. Nil-safe.
func (h *History) Register(name string, kind SeriesKind, load func() int64) error {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.byName[name]; ok {
		return fmt.Errorf("monitor: series %q already registered", name)
	}
	s := &series{name: name, kind: kind, load: load, ring: make([]int64, h.capacity)}
	// Prime the counter baseline so the first sampled delta covers one
	// interval, not the process's whole lifetime.
	if kind == SeriesCounter {
		s.last = load()
	}
	h.series = append(h.series, s)
	h.byName[name] = s
	return nil
}

// Sample takes one reading of every registered series. It is the
// sampler's hot path: zero allocations, one short mutex hold. Nil-safe.
func (h *History) Sample() {
	if h == nil {
		return
	}
	now := time.Now().UnixNano()
	h.mu.Lock()
	idx := h.n % uint64(h.capacity)
	h.wall[idx] = now
	for _, s := range h.series {
		v := s.load()
		if s.kind == SeriesCounter {
			// A counter that restarted (a swapped cache, a new WAL
			// generation) reads below its baseline: one empty interval.
			s.ring[idx] = max(v-s.last, 0)
			s.last = v
		} else {
			s.ring[idx] = v
		}
	}
	h.n++
	h.mu.Unlock()
}

// Samples returns how many ticks have been taken.
func (h *History) Samples() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Point is one retained sample of one series.
type Point struct {
	// Wall is the sample's wall-clock time in unix nanoseconds.
	Wall int64 `json:"wall_ns"`
	// Value is the per-interval delta (counters) or level (gauges).
	Value int64 `json:"value"`
}

// Series is a snapshot of one series' retained points, oldest first.
type Series struct {
	Name   string     `json:"name"`
	Kind   SeriesKind `json:"kind"`
	Points []Point    `json:"points"`
}

// MarshalJSON renders the kind by name.
func (k SeriesKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// HistorySnapshot is the JSON-ready copy Snapshot returns.
type HistorySnapshot struct {
	// Interval guidance lives with the Monitor; the snapshot carries the
	// raw points and the total tick count so readers can align rings.
	Samples  uint64   `json:"samples"`
	Capacity int      `json:"capacity"`
	Series   []Series `json:"series,omitempty"`
}

// Snapshot copies the retained points, oldest first. A non-empty metric
// restricts the snapshot to that one series (unknown names yield an
// empty series list); a positive limit keeps only the most recent limit
// points per series. Snapshot allocates — it is monitoring output, not a
// hot path.
func (h *History) Snapshot(metric string, limit int) HistorySnapshot {
	if h == nil {
		return HistorySnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	snap := HistorySnapshot{Samples: h.n, Capacity: h.capacity}
	retained := h.n
	if retained > uint64(h.capacity) {
		retained = uint64(h.capacity)
	}
	if limit > 0 && uint64(limit) < retained {
		retained = uint64(limit)
	}
	for _, s := range h.series {
		if metric != "" && s.name != metric {
			continue
		}
		out := Series{Name: s.name, Kind: s.kind, Points: make([]Point, 0, retained)}
		for i := h.n - retained; i < h.n; i++ {
			idx := i % uint64(h.capacity)
			out.Points = append(out.Points, Point{Wall: h.wall[idx], Value: s.ring[idx]})
		}
		snap.Series = append(snap.Series, out)
	}
	return snap
}

// SeriesNames returns the registered names in registration order.
func (h *History) SeriesNames() []string {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	names := make([]string, len(h.series))
	for i, s := range h.series {
		names[i] = s.name
	}
	return names
}
