// Package pqueue implements a generic expiration min-heap: items ordered
// by a Time priority with O(log n) push/pop. The paper uses such a queue
// twice: to drive expiration sweeps with predictable latency (§3.2, via
// [24]) and as the helper structure that patches materialised difference
// expressions (Theorem 3, §3.4.2), where it "contains at most |R ∩ S|
// elements" and can be built in O(n log n).
package pqueue

import (
	"container/heap"

	"expdb/internal/xtime"
)

// Item is an element with an expiration priority.
type Item[T any] struct {
	At    xtime.Time
	Value T
}

// Queue is an expiration min-heap. The zero value is ready to use.
type Queue[T any] struct {
	h     itemHeap[T]
	stats Stats
}

// Stats counts cumulative queue activity. The queue is externally
// synchronised (its users hold their own locks), so these are plain
// integers; read them via the Stats method.
type Stats struct {
	Pushes int64 `json:"pushes"` // items enqueued
	Pops   int64 `json:"pops"`   // items dequeued (Pop and PopDue)
	MaxLen int64 `json:"max_len"`
}

// Stats returns the activity counters so far.
func (q *Queue[T]) Stats() Stats { return q.stats }

// New returns an empty queue with capacity hint n.
func New[T any](n int) *Queue[T] {
	q := &Queue[T]{}
	q.h = make(itemHeap[T], 0, n)
	return q
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.h) }

// Push enqueues value with priority at.
func (q *Queue[T]) Push(at xtime.Time, value T) {
	heap.Push(&q.h, Item[T]{At: at, Value: value})
	q.stats.Pushes++
	if n := int64(len(q.h)); n > q.stats.MaxLen {
		q.stats.MaxLen = n
	}
}

// Peek returns the earliest item without removing it; ok is false when the
// queue is empty.
func (q *Queue[T]) Peek() (Item[T], bool) {
	if len(q.h) == 0 {
		return Item[T]{}, false
	}
	return q.h[0], true
}

// Pop removes and returns the earliest item; ok is false when empty.
func (q *Queue[T]) Pop() (Item[T], bool) {
	if len(q.h) == 0 {
		return Item[T]{}, false
	}
	q.stats.Pops++
	return heap.Pop(&q.h).(Item[T]), true
}

// PopDue removes and returns every item with At ≤ tau, earliest first.
// These are the items whose expiration has passed at time tau.
func (q *Queue[T]) PopDue(tau xtime.Time) []Item[T] {
	var due []Item[T]
	for len(q.h) > 0 && q.h[0].At <= tau {
		due = append(due, heap.Pop(&q.h).(Item[T]))
	}
	q.stats.Pops += int64(len(due))
	return due
}

// NextAt returns the priority of the earliest item, or Infinity when empty.
func (q *Queue[T]) NextAt() xtime.Time {
	if len(q.h) == 0 {
		return xtime.Infinity
	}
	return q.h[0].At
}

type itemHeap[T any] []Item[T]

func (h itemHeap[T]) Len() int            { return len(h) }
func (h itemHeap[T]) Less(i, j int) bool  { return h[i].At < h[j].At }
func (h itemHeap[T]) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *itemHeap[T]) Push(x interface{}) { *h = append(*h, x.(Item[T])) }

// Pop zeroes the slot it vacates, or the array would keep every value the
// queue ever held reachable, and moves a heap that has drained to a quarter
// of its array into one half the size, or a queue that was long once would
// stay that long for good. Small arrays stay: a queue that hovers around a
// few items must not allocate on every push.
func (h *itemHeap[T]) Pop() interface{} {
	old := *h
	n := len(old) - 1
	it := old[n]
	old[n] = Item[T]{}
	if *h = old[:n]; cap(old) >= 64 && n <= cap(old)/4 {
		*h = append(make(itemHeap[T], 0, cap(old)/2), old[:n]...)
	}
	return it
}
