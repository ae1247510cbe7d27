package index

import (
	"cmp"
	"slices"
	"strings"

	"expdb/internal/xtime"
)

// TexpHeap is the per-table texp-ordered index: a binary min-heap of
// (texp, set key) pairs with lazy deletion, and the table's one record of
// when its rows expire. Due is a peek, and expiry enumeration O(k log n)
// pops instead of a table walk. Pairs order by texp, then key, so the pop
// order — the order ON EXPIRE triggers fire in — depends on the table's
// contents only, never on its history (insertion order, compactions,
// recovery). Deletes and extensions leave a stale pair behind: a pair
// counts only while the owner's current texp for its key equals the
// pair's, and stale ones are dropped as they surface or by Compact.
// Infinite texp is never pushed.
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
// 1024 pairs, live being its owner's key count: then the owner compacts it,
// leaving at most live pairs, so compactions are amortised O(1).
func (th *TexpHeap) Bloated(live int) bool { return len(th.h) > 2*live+1024 }

// Compact drops the pairs current does not confirm, as PopDue asks it, and
// the repeats a key deleted and inserted again at one texp leaves; the rest
// are sorted, which is a heap order.
func (th *TexpHeap) Compact(current func(key string) (xtime.Time, bool)) {
	th.h = slices.DeleteFunc(th.h, func(p texpPair) bool {
		t, ok := current(p.key)
		return !ok || t != p.texp
	})
	slices.SortFunc(th.h, func(p, q texpPair) int {
		return cmp.Or(cmp.Compare(p.texp, q.texp), strings.Compare(p.key, q.key))
	})
	th.h = slices.Compact(th.h)
}

// Pairs calls fn for every retained pair, stale ones included, in no order.
func (th *TexpHeap) Pairs(fn func(key string, texp xtime.Time)) {
	for _, p := range th.h {
		fn(p.key, p.texp)
	}
}

// Due reports whether some pair, stale or not, has texp <= tick: false
// proves PopDue(tick) would deliver nothing. It writes nothing.
func (th *TexpHeap) Due(tick xtime.Time) bool {
	return len(th.h) > 0 && th.h[0].texp <= tick
}

// PopDue pops every pair with texp <= tick, calling expire for each one
// current confirms and dropping the stale; it returns how many it expired.
// expire runs right after the current call that confirmed its pair, with no
// other call between, so current may leave what its lookup found for expire.
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
