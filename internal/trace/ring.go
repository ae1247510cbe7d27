package trace

import "sync"

// Ring is a fixed-capacity ring buffer of the most recent values: the
// engine keeps two, the lifecycle-event log (NewLog) and the slow-query
// log of Traces. When full it overwrites the oldest value and counts the
// loss, so a long-running engine holds the most recent window at a
// bounded, preallocated cost.
//
// Emit takes one short mutex hold and copies the value into the
// preallocated ring, so emitting a plain value such as an Event never
// allocates. The mutex is a leaf in the engine's lock hierarchy — Emit is
// safe to call under any engine, view or table lock. Every method is
// nil-safe.
type Ring[T any] struct {
	mu    sync.Mutex
	ring  []T
	next  uint64           // values ever emitted; the last one's sequence number
	stamp func(*T, uint64) // writes a stored value's sequence number into it, or nil
}

// NewRing returns a ring retaining the most recent capacity values
// (minimum 1). stamp, when not nil, is handed each stored value and its
// 1-based sequence number.
func NewRing[T any](capacity int, stamp func(*T, uint64)) *Ring[T] {
	return &Ring[T]{ring: make([]T, max(capacity, 1)), stamp: stamp}
}

// NewLog returns a lifecycle-event ring, which numbers its events in Seq.
func NewLog(capacity int) *Ring[Event] {
	return NewRing(capacity, func(e *Event, seq uint64) { e.Seq = seq })
}

// Emit stores v, overwriting the oldest value once the ring is full.
func (r *Ring[T]) Emit(v T) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.next++
	slot := &r.ring[(r.next-1)%uint64(len(r.ring))]
	*slot = v
	if r.stamp != nil {
		r.stamp(slot, r.next)
	}
	r.mu.Unlock()
}

// RingStats describes a ring: lifetime volume, losses to wraparound, and
// the most values it has held at once. HighWater at Capacity with a
// non-zero Dropped tells an operator the retention window is too small for
// the rate.
type RingStats struct {
	Total     uint64 `json:"total"`
	Dropped   uint64 `json:"dropped"`
	Capacity  int    `json:"capacity"`
	HighWater uint64 `json:"high_water"`
}

// Stats reports the ring's numbers, read under one lock hold. Nothing is
// ever removed from a ring, so the high-water is min(Total, Capacity).
func (r *Ring[T]) Stats() RingStats {
	if r == nil {
		return RingStats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	held := min(r.next, uint64(len(r.ring)))
	return RingStats{Total: r.next, Dropped: r.next - held, Capacity: len(r.ring), HighWater: held}
}

// Snapshot returns the retained values oldest-first. A positive limit
// keeps only the most recent limit values.
func (r *Ring[T]) Snapshot(limit int) []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := min(r.next, uint64(len(r.ring)))
	if limit > 0 && uint64(limit) < n {
		n = uint64(limit)
	}
	out := make([]T, 0, n)
	for seq := r.next - n; seq < r.next; seq++ {
		out = append(out, r.ring[seq%uint64(len(r.ring))])
	}
	return out
}
