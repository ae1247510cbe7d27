package trace

import (
	"fmt"

	"expdb/internal/xtime"
)

// EventKind classifies a lifecycle event. The taxonomy follows the
// paper's maintenance decisions: tuples expiring (§3.2), views
// invalidating and being recomputed or patched (Theorems 1–3), patch
// queues truncated by a budget (§3.4.2), and the sweeps behind lazy
// expiration.
type EventKind uint8

const (
	// EvExpiry: a batch of tuples physically expired from one table.
	EvExpiry EventKind = iota
	// EvSweep: a lazy (or manual) sweep removed expired tuples.
	EvSweep
	// EvViewInvalid: an advance crossed a view's texp(e), invalidating
	// its materialisation.
	EvViewInvalid
	// EvViewRecompute: a view's expression was re-evaluated against base
	// data (materialisation, refresh, or read-triggered recovery).
	EvViewRecompute
	// EvViewPatch: Theorem 3 patches were replayed into a
	// materialisation instead of recomputing.
	EvViewPatch
	// EvViewCacheHit: a view read was served from the materialisation
	// without touching base data.
	EvViewCacheHit
	// EvViewMoved: a view read was answered at a shifted instant (§3.3).
	EvViewMoved
	// EvBudgetEvict: critical tuples were dropped from a patch queue
	// because WithPatchBudget bounded it.
	EvBudgetEvict
	// EvWireMaterialize: a remote node materialised a query over the
	// wire protocol.
	EvWireMaterialize
	// EvWireConnOpen: the wire server accepted (and handshook) a
	// connection.
	EvWireConnOpen
	// EvWireConnClose: a wire connection ended (Count carries the number
	// of requests it served).
	EvWireConnClose
	// EvWireTimeout: a wire connection hit its idle read or write
	// deadline and was closed.
	EvWireTimeout
	// EvWirePanic: a connection handler panicked and was recovered; the
	// accept loop survived.
	EvWirePanic
	// EvWireReject: a connection was turned away — connection limit,
	// handshake mismatch, oversized message, or accepted mid-Close.
	EvWireReject
	// EvWireShutdown: the wire server completed a graceful shutdown
	// (Count carries the number of stragglers hard-closed).
	EvWireShutdown
	// EvRecovery: the engine rebuilt its state from the write-ahead log
	// at boot (Count carries the number of log records replayed; the
	// first Advance after it — the catch-up batch — shares its trace ID).
	EvRecovery
	// EvCheckpoint: a durability checkpoint wrote a snapshot and
	// truncated the log (Count carries the number of tables captured).
	EvCheckpoint
	// EvCacheHit: a query was served from the result cache with zero
	// re-evaluation (Texp carries the entry's ValidUntil).
	EvCacheHit
	// EvCacheMiss: a query had no servable cache entry — cold, expired,
	// or invalidated by a base-table write — and was evaluated.
	EvCacheMiss
	// EvCacheInvalidate: result-cache entries were dropped because the
	// clock reached their ValidUntil (Count carries how many).
	EvCacheInvalidate
	// EvHealthChange: the watchdog moved the process between health
	// states (Name carries the check that caused the transition, Count
	// the numeric new state: 0 starting, 1 ready, 2 degraded,
	// 3 unhealthy).
	EvHealthChange
	// EvSLOBreach: the expiration-lag SLO stayed breached for the
	// configured number of consecutive watchdog evaluations (Count
	// carries the p99 dispatch lag in ticks at the moment of the flip).
	EvSLOBreach
	// EvDiskDegraded: a WAL I/O failure moved the engine to read-only
	// degraded mode (Name carries the failure).
	EvDiskDegraded
	// EvDiskRecovered: the engine reopened its log, checkpointed the
	// in-memory state and left degraded mode (Count carries the number
	// of recovery attempts it took).
	EvDiskRecovered
)

var eventKindNames = [...]string{
	EvExpiry:          "expiry",
	EvSweep:           "sweep",
	EvViewInvalid:     "view-invalid",
	EvViewRecompute:   "view-recompute",
	EvViewPatch:       "view-patch",
	EvViewCacheHit:    "view-cache-hit",
	EvViewMoved:       "view-moved",
	EvBudgetEvict:     "budget-evict",
	EvWireMaterialize: "wire-materialize",
	EvWireConnOpen:    "wire-conn-open",
	EvWireConnClose:   "wire-conn-close",
	EvWireTimeout:     "wire-timeout",
	EvWirePanic:       "wire-panic",
	EvWireReject:      "wire-reject",
	EvWireShutdown:    "wire-shutdown",
	EvRecovery:        "recovery",
	EvCheckpoint:      "checkpoint",
	EvCacheHit:        "cache-hit",
	EvCacheMiss:       "cache-miss",
	EvCacheInvalidate: "cache-invalidate",
	EvHealthChange:    "health-change",
	EvSLOBreach:       "slo-breach",
	EvDiskDegraded:    "disk-degraded",
	EvDiskRecovered:   "disk-recovered",
}

// String names the kind.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its name, keeping /debug/events
// readable without a decoder ring.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// Event is one structured lifecycle record. It is a plain value — no
// pointers beyond the name's string header — so emitting one copies a
// few words and never allocates.
type Event struct {
	// Seq is the log-assigned sequence number (1-based, monotonic).
	Seq uint64 `json:"seq"`
	// Trace ties the event to the statement or read that caused it.
	Trace ID `json:"trace"`
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// Name is the table or view concerned ("" for engine-wide events).
	Name string `json:"name,omitempty"`
	// Tick is the logical time the event happened.
	Tick xtime.Time `json:"tick"`
	// Texp carries the expiration time that triggered the event, where
	// one exists (the invalidating texp(e), an expiry batch's tick).
	Texp xtime.Time `json:"texp,omitempty"`
	// Count is the event's magnitude: tuples expired, patches applied,
	// stale events dropped, critical tuples evicted.
	Count int64 `json:"count,omitempty"`
}

// String renders the event in the single-line form SHOW EVENTS prints.
func (e Event) String() string {
	s := fmt.Sprintf("#%d t=%v trace=%s %s", e.Seq, e.Tick, e.Trace, e.Kind)
	if e.Name != "" {
		s += " " + e.Name
	}
	if e.Count != 0 {
		s += fmt.Sprintf(" count=%d", e.Count)
	}
	if e.Texp != 0 {
		s += fmt.Sprintf(" texp=%v", e.Texp)
	}
	return s
}
