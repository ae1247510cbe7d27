package index

import "expdb/internal/xtime"

// TexpHeap is the per-table texp-ordered index: a binary min-heap of
// (texp, set key) pairs with lazy deletion. It is the table's one record
// of when its rows expire — the engine keeps no schedule of its own — and
// makes the two operations that would otherwise scan the table cheap:
//
//   - whether anything is due by a tick (Due) becomes a peek, and
//   - expiry enumeration (every row with texp <= tick) becomes
//     O(k log n) pops instead of a full-table walk.
//
// Pairs order by texp, then by key, so the pop order — the order ON
// EXPIRE triggers fire in — depends only on the table's contents, never
// on the history that produced them (insertion order, heap rebuilds,
// crash recovery).
//
// Deletes and texp extensions do not search the heap; they simply leave a
// stale pair behind. A pair is authoritative only if the owning
// relation's current texp for the key still equals the pair's texp — the
// relation verifies that through the alive callback, and stale pairs are
// discarded as they surface. Infinite texp is never pushed (those rows
// never expire, so they have no business in an expiration queue).
type TexpHeap struct {
	h []texpPair
}

type texpPair struct {
	texp xtime.Time
	key  string
}

func (p texpPair) less(q texpPair) bool {
	return p.texp < q.texp || (p.texp == q.texp && p.key < q.key)
}

// NewTexpHeap returns an empty heap.
func NewTexpHeap() *TexpHeap { return &TexpHeap{} }

// Len reports the number of retained pairs, stale ones included.
func (th *TexpHeap) Len() int { return len(th.h) }

// Push records that key currently expires at texp. Infinity is ignored.
func (th *TexpHeap) Push(key string, texp xtime.Time) {
	if texp == xtime.Infinity {
		return
	}
	th.h = append(th.h, texpPair{texp: texp, key: key})
	i := len(th.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !th.h[i].less(th.h[p]) {
			break
		}
		th.h[p], th.h[i] = th.h[i], th.h[p]
		i = p
	}
}

// Bloated reports whether stale pairs have pushed the heap past 2×live +
// 1024 pairs, live being the number of keys its owner holds: the point at
// which the owner rebuilds it from what is live. A rebuild leaves at most
// live pairs, so the next one is at least live + 1024 pushes away —
// amortised O(1) — and steady churn over few keys never pays one.
func (th *TexpHeap) Bloated(live int) bool { return len(th.h) > 2*live+1024 }

// Due reports whether some pair, stale or not, has texp <= tick: a false
// answer proves PopDue(tick) would deliver nothing. It does not modify
// the heap, so the owning relation's read lock suffices.
func (th *TexpHeap) Due(tick xtime.Time) bool {
	return len(th.h) > 0 && th.h[0].texp <= tick
}

// PopDue pops every authoritative pair with texp <= tick, calling expire
// for each. Stale pairs encountered on the way are discarded silently.
// Returns the number of expirations delivered.
func (th *TexpHeap) PopDue(tick xtime.Time, current func(key string) (xtime.Time, bool), expire func(key string, texp xtime.Time)) int {
	n := 0
	for len(th.h) > 0 && th.h[0].texp <= tick {
		top := th.pop()
		if t, ok := current(top.key); ok && t == top.texp {
			expire(top.key, top.texp)
			n++
		}
	}
	return n
}

func (th *TexpHeap) pop() texpPair {
	top := th.h[0]
	last := len(th.h) - 1
	th.h[0] = th.h[last]
	th.h[last] = texpPair{} // release the key string
	th.h = th.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && th.h[l].less(th.h[small]) {
			small = l
		}
		if r < last && th.h[r].less(th.h[small]) {
			small = r
		}
		if small == i {
			break
		}
		th.h[i], th.h[small] = th.h[small], th.h[i]
		i = small
	}
	return top
}
