// Package relation implements expiration-time-enabled relations: sets of
// tuples where each tuple r carries an expiration time texp_R(r) after
// which it ceases to be current (paper §2.2).
//
// Relations are sets (the paper's model is set-based): inserting a
// duplicate tuple keeps the later of the two expiration times, the same
// rule union ∪exp applies. The function expτ(R) = {r ∈ R | texp_R(r) > τ}
// is exposed as AliveAt/SnapshotShared.
package relation

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"expdb/internal/index"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// Row pairs a tuple with its expiration time.
type Row struct {
	Tuple tuple.Tuple
	Texp  xtime.Time
}

// Relation is a mutable set of tuples with expiration times. The zero
// value is not usable; construct with New.
//
// A Relation embeds its RWMutex but does not lock around its methods:
// locking is the caller's job. The engine uses the mutex as the per-table
// lock of its lock hierarchy (DESIGN.md "Locking model"); single-goroutine
// intermediates (operator results, snapshots) skip it and pay nothing. A
// probe derives a key set not made yet: as far as locking goes, a write.
//
// Stored tuples are immutable: Insert clones caller-provided tuples, and
// no reader may write into a tuple obtained from a relation, so snapshots,
// streamed rows and InsertOwnedRow share tuple storage instead of cloning.
type Relation struct {
	sync.RWMutex
	order  uint64 // global acquisition order for multi-relation locking
	schema tuple.Schema
	// slots is the row store, in insertion order: expτ(R) is a walk in
	// memory order. A deleted row leaves a hole (Texp == hole), listed in
	// free until an insert reuses it or boundSlots squeezes it out. set files
	// each row's slot under its set key's hash once a probe or a keyed write
	// derives it (keySet); it keeps no key, and a base table's one key
	// string per row is held by its texp heap pair and index entries.
	slots []Row
	set   tuple.Set
	free  []slot
	// floor is the snapshot instant of a SnapshotShared result: every
	// accessor treats rows with texp ≤ floor as absent, so a shared snapshot
	// shows expτ(R) at floor. 0 for ordinary relations.
	floor xtime.Time
	// shared marks the store — slots, set and free — as aliased by another
	// Relation (SnapshotShared). The first write through either handle,
	// lifetime extensions included, detaches it: the three are copied (the
	// tuples stay shared) and the write goes to the copy.
	shared bool
	// inOrder marks a store Merge laid out: its slots in tuple order, no
	// holes, and texps its rows' expiration times ascending, so RowsSorted is
	// one pass and CountAt a binary search. Such a store is frozen from the
	// start (shared): the copy a write detaches to is neither.
	inOrder bool
	texps   []xtime.Time
	// indexes are the attached secondary indexes, maintained by every
	// mutator. Only base tables carry them: New starts with none, and no
	// snapshot copies them, so results pay nothing.
	indexes []NamedIndex
	// exp is a base table's record of when its rows expire; a snapshot of
	// one keeps its due rows there, and every other relation has none.
	exp *expiry
	// ints are a base table's column arrays (EnableIntArrays): ints[c][s] is
	// slots[s].Tuple[c] for each INT column c that has stored only INTs (nil
	// for the others), so ScanInts tests ranges without loading tuples. No
	// snapshot hands them on. A hole's entry is stale.
	ints [][]int64
}

// expiry is what a base table keeps of when its rows expire. heap is its
// texp-ordered index (a lazy-deletion min-heap): ExpiresBy is a peek and
// RemoveExpired O(k); boundTexpIdx keeps it within 2×rows + slack pairs. due
// are lifetimes that ended unswept and that a re-insert of the same tuple
// extended in place: their heap pairs went stale, so the next RemoveExpired
// returns them from here and their triggers still fire. A snapshot of the
// table keeps its due rows and no heap.
type expiry struct {
	heap *index.TexpHeap
	due  []Row
}

// heap is r's texp-ordered index, nil unless r is a base table.
func (r *Relation) heap() *index.TexpHeap {
	if r.exp == nil {
		return nil
	}
	return r.exp.heap
}

// due is what RemoveExpired returns ahead of the heap (expiry).
func (r *Relation) due() []Row {
	if r.exp == nil {
		return nil
	}
	return r.exp.due
}

// slot is a position in Relation.slots.
type slot uint32

// hole is the texp of a freed slot: below every instant, so the texp > τ
// test of every scan skips it. It, not a nil tuple, tells a hole: a
// zero-column relation stores ⟨⟩.
const hole xtime.Time = math.MinInt64

func compareRows(a, b Row) int { return a.Tuple.Compare(b.Tuple) }

// NamedIndex pairs an attached secondary index with its catalog name.
type NamedIndex struct {
	Name string
	Idx  index.Index
}

// lockSeq hands out the global lock-acquisition order of relations.
var lockSeq atomic.Uint64

// New returns an empty relation with the given schema.
func New(schema tuple.Schema) *Relation { return &Relation{order: lockSeq.Add(1), schema: schema} }

// LockOrder returns the relation's position in the global lock order.
// Goroutines that hold locks on several relations at once must acquire
// them in ascending LockOrder to stay deadlock-free.
func (r *Relation) LockOrder() uint64 { return r.order }

// Schema returns the relation's schema.
func (r *Relation) Schema() tuple.Schema { return r.schema }

// effTau is the effective filter instant: accessors of a shared snapshot
// never reveal rows at or below its floor, whatever tau a caller passes.
func (r *Relation) effTau(tau xtime.Time) xtime.Time {
	if tau < r.floor {
		return r.floor
	}
	return tau
}

// detach gives r a private store before a mutation when its store is
// shared: a copy of the slots, in slot order, with the rows dead at the floor
// made holes; tuples are never copied, and the copy's first probe derives
// its own key set. It is the one place a handle leaves a shared store, and
// an in-order one its order. Slot numbers read before a detach are void
// after it.
func (r *Relation) detach() {
	if !r.shared {
		return
	}
	r.slots, r.set, r.free = slices.Clone(r.slots), tuple.Set{}, slices.Clone(r.free)
	for i := range r.slots {
		if row := r.slots[i]; row.Texp <= r.floor && row.Texp != hole {
			r.release(slot(i))
		}
	}
	r.boundSlots()
	r.shared, r.inOrder, r.texps = false, false, nil
}

// count is the number of stored rows: every hole is on the free list.
func (r *Relation) count() int { return len(r.slots) - len(r.free) }

// keySet returns r.set, derived from the rows on first use — by each handle
// on a frozen store for itself, so no probe writes what another reads.
func (r *Relation) keySet() *tuple.Set {
	if !r.set.Made() {
		r.set = tuple.MakeSet(r.count())
		var buf [tuple.KeyBuf]byte
		for i, row := range r.slots {
			if row.Texp != hole {
				r.set.Add(tuple.Hash(row.Tuple.AppendKey(buf[:0])), i)
			}
		}
	}
	return &r.set
}

// find returns the slot of the row whose set key is key, and the key's hash.
func find[K string | []byte](r *Relation, key K) (slot, uint64, bool) {
	h := tuple.Hash(key)
	s, ok := r.keySet().Find(h, func(s int) bool {
		var buf [tuple.KeyBuf]byte
		return string(r.slots[s].Tuple.AppendKey(buf[:0])) == string(key)
	})
	return slot(s), h, ok
}

// release turns slot s into a hole an insert may reuse.
func (r *Relation) release(s slot) {
	r.slots[s] = Row{Texp: hole}
	r.free = append(r.free, s)
}

// slack is what boundSlots tolerates beyond 2×rows, as the texp heap does
// (index.TexpHeap.Bloated), so churn on a small table never compacts.
const slack = 1024

// boundSlots squeezes the holes out, in slot order, once they push the
// store past 2×rows + slack slots, so a table drained from 100 000 rows to
// ten is scanned as ten; the next compaction is rows + slack deletes away.
// Only for a private store. Every slot number changes, so the key set goes,
// to be derived again at the size of what is left.
func (r *Relation) boundSlots() {
	if len(r.slots) <= 2*r.count()+slack {
		return
	}
	slots := make([]Row, 0, r.count())
	for _, row := range r.slots {
		if row.Texp != hole {
			slots = append(slots, row)
		}
	}
	for c, vals := range r.ints {
		if vals != nil {
			kept := make([]int64, 0, len(slots))
			for i, row := range r.slots {
				if row.Texp != hole {
					kept = append(kept, vals[i])
				}
			}
			r.ints[c] = kept
		}
	}
	r.slots, r.set, r.free = slots, tuple.Set{}, nil
}

// Len returns the number of stored tuples, expired-but-unswept ones
// included (§3.2); a shared snapshot counts the rows alive at its floor.
func (r *Relation) Len() int {
	if r.floor == 0 {
		return r.count()
	}
	return r.CountAt(r.floor)
}

// Insert adds t with expiration texp. If an equal tuple is present the
// larger expiration time wins (set semantics consistent with ∪exp). It
// reports whether the relation's visible content changed.
func (r *Relation) Insert(t tuple.Tuple, texp xtime.Time) bool {
	changed, _, _ := r.InsertKeyed(t.Key(), t, texp)
	return changed
}

// InsertKeyed is Insert for callers that computed key = t.Key(). It also
// reports the previous texp when an equal tuple was there (had): a changed
// insert with had set is a lifetime extension.
func (r *Relation) InsertKeyed(key string, t tuple.Tuple, texp xtime.Time) (changed bool, prev xtime.Time, had bool) {
	_, changed, prev, had = insert(r, key, t, texp, false, hole)
	return changed, prev, had
}

// InsertStored is InsertKeyed at the clock reading now that also returns
// the tuple now stored under key — t, cloned unless owned, or the equal
// tuple already there — which callers may retain but must not mutate. An
// equal tuple that expired by now but is not swept yet keeps its ended
// lifetime for the next RemoveExpired (due).
func (r *Relation) InsertStored(key string, t tuple.Tuple, texp, now xtime.Time, owned bool) (stored tuple.Tuple, changed bool, prev xtime.Time, had bool) {
	return insert(r, key, t, texp, owned, now)
}

// insert is the one keyed insert: t, whose set key is key, goes in with
// texp — cloned unless owned — or the equal tuple r holds keeps the later
// texp, one word written in place (the lifetime it ends goes to due if it
// ended by now). The key becomes a string only for an index or the texp
// heap to hold.
func insert[K string | []byte](r *Relation, key K, t tuple.Tuple, texp xtime.Time, owned bool, now xtime.Time) (stored tuple.Tuple, changed bool, prev xtime.Time, had bool) {
	r.detach()
	s, h, had := find(r, key)
	var str string
	if r.indexes != nil || r.heap() != nil {
		str = string(key)
	}
	if had {
		row := &r.slots[s]
		if stored, prev = row.Tuple, row.Texp; texp > prev {
			if prev <= now {
				if r.exp == nil {
					r.exp = &expiry{}
				}
				r.exp.due = append(r.exp.due, *row)
			}
			row.Texp = texp
			r.idxUpdate(str, stored, texp)
		}
		return stored, texp > prev, prev, true
	}
	if stored = t; !owned {
		stored = t.Clone()
	}
	r.place(h, str, stored, texp)
	return stored, true, 0, false
}

// place stores a row not yet present, its set key hashed to h, in a freed
// slot if any, else at the end; t becomes r's own. A store under 64 rows
// grows eightfold — forty rows are three arrays (1, 8, 64), not seven.
func (r *Relation) place(h uint64, key string, t tuple.Tuple, texp xtime.Time) {
	var s slot
	if n := len(r.free); n > 0 {
		s, r.free = r.free[n-1], r.free[:n-1]
		r.slots[s] = Row{Tuple: t, Texp: texp}
	} else {
		if n := len(r.slots); n == cap(r.slots) && n < 64 {
			r.slots = slices.Grow(r.slots, max(1, 7*n))
		}
		s = slot(len(r.slots))
		r.slots = append(r.slots, Row{Tuple: t, Texp: texp})
	}
	r.setInts(s, t)
	if r.set.Made() {
		r.set.Add(h, int(s))
	}
	r.idxInsert(key, t, texp)
}

// setInts writes t's values into slot s of the column arrays — appending
// when s is the slot just added at the end — and drops the array of any
// column where t holds something other than an INT.
func (r *Relation) setInts(s slot, t tuple.Tuple) {
	for c, vals := range r.ints {
		if vals == nil {
			continue
		}
		switch v, ok := t[c].Int64(); {
		case !ok:
			r.ints[c] = nil
		case int(s) < len(vals):
			vals[s] = v
		default:
			r.ints[c] = append(vals, v)
		}
	}
}

// InsertOwnedRow is Insert of a tuple r may store without a clone — built
// by an operator, or stored immutable in another relation — so results
// that may derive a tuple twice take rows from base storage uncopied (the
// others take AppendDistinct). It reports whether r held no equal tuple.
func (r *Relation) InsertOwnedRow(row Row) bool {
	var buf [tuple.KeyBuf]byte
	_, _, _, had := insert(r, row.Tuple.AppendKey(buf[:0]), row.Tuple, row.Texp, true, hole)
	return !had
}

// AppendDistinct adds row of a duplicate-free stream, which r does not
// hold, unhashed: r has no key set until a probe derives one. Onto a
// relation with a key set, an index or column arrays, or a shared store,
// it is InsertOwnedRow.
func (r *Relation) AppendDistinct(row Row) {
	if r.set.Made() || r.shared || r.indexes != nil || r.heap() != nil || r.ints != nil {
		r.InsertOwnedRow(row)
		return
	}
	r.place(0, "", row.Tuple, row.Texp)
}

// Grow makes room for n more rows, set entries included.
func (r *Relation) Grow(n int) {
	r.slots = slices.Grow(r.slots, n)
	r.keySet().Grow(n)
}

// DeleteKey removes the tuple stored under key, reporting whether it was.
func (r *Relation) DeleteKey(key string) bool {
	s, h, ok := find(r, key)
	if !ok || r.slots[s].Texp <= r.floor {
		return false
	}
	if r.shared {
		r.detach()
		s, _, _ = find(r, key)
	}
	r.remove(h, key, s)
	r.boundSlots()
	r.boundTexpIdx()
	return true
}

// remove drops the row in slot s of a private store, its set key hashed to
// h and held in key ("" to derive it), from r and its indexes.
func (r *Relation) remove(h uint64, key string, s slot) Row {
	row := r.slots[s]
	r.set.Delete(h, int(s))
	r.release(s)
	r.idxRemove(key, row.Tuple)
	return row
}

// RowByKey returns the row stored under key (a value of Tuple.Key). The
// returned row's tuple is the relation's own storage: callers must not
// mutate it, and should only retain it after deleting the row.
func (r *Relation) RowByKey(key string) (Row, bool) { return rowBy(r, key) }

func rowBy[K string | []byte](r *Relation, key K) (Row, bool) {
	if s, _, ok := find(r, key); ok && r.slots[s].Texp > r.floor {
		return r.slots[s], true
	}
	return Row{}, false
}

// Texp returns texp_R(t) and whether t ∈ R.
func (r *Relation) Texp(t tuple.Tuple) (xtime.Time, bool) {
	var buf [tuple.KeyBuf]byte
	row, ok := rowBy(r, t.AppendKey(buf[:0]))
	return row.Texp, ok
}

// TexpKey is Texp for callers that already computed t.Key().
func (r *Relation) TexpKey(key string) (xtime.Time, bool) {
	row, ok := r.RowByKey(key)
	return row.Texp, ok
}

// Contains reports whether t ∈ expτ(R): present and unexpired at tau.
func (r *Relation) Contains(t tuple.Tuple, tau xtime.Time) bool {
	texp, ok := r.Texp(t)
	return ok && texp > r.effTau(tau)
}

// AliveAt calls fn, which must not mutate r, for every row of expτ(R).
func (r *Relation) AliveAt(tau xtime.Time, fn func(Row)) {
	tau = r.effTau(tau)
	slots := r.slots // fn is opaque: without the copy the header is reloaded after every call
	for i := range slots {
		if slots[i].Texp > tau {
			fn(slots[i])
		}
	}
}

// IntRange is the closed interval [Lo, Hi] the INT in column Col must lie
// in; Lo > Hi is the empty interval.
type IntRange struct {
	Col    int
	Lo, Hi int64
}

// HasIntArray reports whether column c keeps a slot array (EnableIntArrays)
// — then every value stored in it is an INT, and ScanInts can test it.
func (r *Relation) HasIntArray(c int) bool { return c < len(r.ints) && r.ints[c] != nil }

// ScanInts is AliveAt restricted to the rows whose INT in column rg.Col
// lies in rg for every rg in ranges and, when in is not nil, whose INT in
// column in.Col is in the set; every column tested has an array. It walks
// one array, uint64(v−lo) ≤ uint64(hi−lo) a row, and reads the texp, the
// other arrays and the row only for a row that passes there. A bitmap key
// set leads with its span and a bit test, well predicted where an interval
// that passes half the rows is not; else the first interval leads.
func (r *Relation) ScanInts(tau xtime.Time, ranges []IntRange, in *IntSet, fn func(Row)) {
	if slices.ContainsFunc(ranges, func(rg IntRange) bool { return rg.Lo > rg.Hi }) {
		return
	}
	first := IntRange{Lo: math.MinInt64, Hi: math.MaxInt64} // tested before the texp
	var bits []uint64
	switch {
	case in != nil && in.bits != nil:
		first, bits, in = IntRange{Col: in.Col, Lo: in.lo, Hi: in.lo + int64(len(in.bits))*64 - 1}, in.bits, nil
	case len(ranges) > 0:
		first, ranges = ranges[0], ranges[1:]
	case in != nil:
		first.Col = in.Col
	default:
		r.AliveAt(tau, fn)
		return
	}
	tau = r.effTau(tau)
	slots, lo, width := r.slots, first.Lo, uint64(first.Hi-first.Lo)
	for i, v := range r.ints[first.Col][:len(slots)] {
		if d := uint64(v - lo); d > width || bits != nil && bits[d/64]&(1<<(d%64)) == 0 || slots[i].Texp <= tau || !r.passes(i, ranges, in) {
			continue
		}
		fn(slots[i])
	}
}

// passes reports whether slot i passes ranges and in (ScanInts).
func (r *Relation) passes(i int, ranges []IntRange, in *IntSet) bool {
	for _, rg := range ranges {
		if uint64(r.ints[rg.Col][i]-rg.Lo) > uint64(rg.Hi-rg.Lo) {
			return false
		}
	}
	return in == nil || in.Has(r.ints[in.Col][i])
}

// IntSet is a set of INT keys that ScanInts tests column Col against: a
// hash join's build keys, a difference's left values. When its span
// [lo, max] is no more bits than 64 a key plus 4 096 — no more memory than a
// hash table of the keys — it is a bitmap over the span, which leads the
// scan; a wider one is a map.
type IntSet struct {
	Col    int
	lo     int64
	bits   []uint64 // nil for a sparse set
	sparse map[int64]struct{}
}

// NewIntSet returns the set of vals tested against col.
func NewIntSet(col int, vals []int64) *IntSet {
	s, hi := &IntSet{Col: col}, int64(0)
	if len(vals) > 0 {
		s.lo, hi = slices.Min(vals), slices.Max(vals)
	}
	if span := uint64(hi - s.lo); span < 64*uint64(len(vals))+4096 {
		s.bits = make([]uint64, span/64+1)
		for _, v := range vals {
			d := uint64(v - s.lo)
			s.bits[d/64] |= 1 << (d % 64)
		}
		return s
	}
	s.sparse = make(map[int64]struct{}, len(vals))
	for _, v := range vals {
		s.sparse[v] = struct{}{}
	}
	return s
}

// Has reports whether v is in s.
func (s *IntSet) Has(v int64) bool {
	if s.bits == nil {
		_, ok := s.sparse[v]
		return ok
	}
	d := uint64(v - s.lo)
	return d < uint64(len(s.bits))*64 && s.bits[d/64]&(1<<(d%64)) != 0
}

// All calls fn for every stored row regardless of expiration (for a
// shared snapshot: every row alive at its snapshot instant), after the due
// lifetimes, which reach the row of their tuple in the order they ended.
func (r *Relation) All(fn func(Row)) {
	for _, row := range r.due() {
		if row.Texp > r.floor {
			fn(row)
		}
	}
	r.AliveAt(r.floor, fn)
}

// CountAt returns |expτ(R)|.
func (r *Relation) CountAt(tau xtime.Time) int {
	tau = r.effTau(tau)
	if r.inOrder {
		return len(r.texps) - sort.Search(len(r.texps), func(i int) bool { return r.texps[i] > tau })
	}
	n := 0
	for i := range r.slots {
		if r.slots[i].Texp > tau {
			n++
		}
	}
	return n
}

// SnapshotShared returns expτ(R) as a zero-copy snapshot: the result
// aliases r's store (O(1), a header) and hides rows dead at tau on every
// access. The first mutation through either handle copies the store first
// (detach), so the snapshot never changes. Views serve reads from it.
//
// A store is frozen far longer than it was built, so the first freeze moves
// the slots to an array of their own size when growth left more than an
// allocator size class of room. Like any write to r, the call needs r
// exclusively.
func (r *Relation) SnapshotShared(tau xtime.Time) *Relation {
	if !r.shared && cap(r.slots)-len(r.slots) > len(r.slots)/8 {
		r.slots = slices.Clone(r.slots)
	}
	r.shared = true
	out := &Relation{
		order:   lockSeq.Add(1),
		schema:  r.schema,
		slots:   r.slots,
		set:     r.set,
		free:    r.free,
		floor:   r.effTau(tau),
		shared:  true,
		inOrder: r.inOrder,
		texps:   r.texps,
	}
	if due := r.due(); len(due) > 0 {
		out.exp = &expiry{due: slices.Clone(due)}
	}
	return out
}

// InOrder reports whether r's store is laid out in tuple order (Merge).
func (r *Relation) InOrder() bool { return r.inOrder }

// Shared reports whether r's store is aliased by a snapshot (SnapshotShared),
// so that a write copies it first.
func (r *Relation) Shared() bool { return r.shared }

// Merge returns a new store in tuple order, frozen: the rows of r and of
// run, which is in tuple order, alive at tau; of equal tuples, in r and run
// or within run, the later texp wins, as Insert keeps it. It is the one
// constructor of an in-order store — a first lay-out, a birth batch merged
// in, a compaction (no run) — and copies no tuple. An r not in order is
// sorted first (RowsSorted).
func (r *Relation) Merge(tau xtime.Time, run []Row) *Relation {
	tau = r.effTau(tau)
	n := r.CountAt(tau)
	rows, own := make([]Row, n+len(run)), r.slots
	if !r.inOrder {
		own = r.RowsSorted(tau)
	}
	// A compaction of an in-order store keeps the texps it carries, the
	// last n of r's: no code writes a store's texps once Merge has built
	// them, so the two stores share them.
	shed := r.inOrder && len(run) == 0
	var texps []xtime.Time
	if shed {
		texps = r.texps[len(r.texps)-n:]
	} else {
		texps = make([]xtime.Time, n+len(run))
	}
	born, both := texps[n:n], false
	w, i := 0, 0
	for _, b := range run {
		c := -1
		for ; i < len(own); i++ {
			if c = own[i].Tuple.Compare(b.Tuple); c >= 0 {
				break
			}
			if own[i].Texp > tau {
				rows[w], w = own[i], w+1
			}
		}
		if c == 0 {
			b.Texp, i, both = max(b.Texp, own[i].Texp), i+1, both || own[i].Texp > tau
		}
		if w > 0 && rows[w-1].Tuple.Equal(b.Tuple) {
			rows[w-1].Texp, both = max(rows[w-1].Texp, b.Texp), true
		} else if b.Texp > tau {
			rows[w], w, born = b, w+1, append(born, b.Texp)
		}
	}
	for ; i < len(own); i++ {
		if own[i].Texp > tau {
			rows[w], w = own[i], w+1
		}
	}
	// The texps ascending: for a compaction, r's own; else those carried
	// over merged in one pass with those born, sorted in texps[n:], past
	// every place the merge writes; for an r not in order, or a tuple in
	// both, every row's, sorted.
	texps = texps[:w]
	switch {
	case shed:
	case r.inOrder && !both:
		slices.Sort(born)
		carried, i, j := r.texps[len(r.texps)-n:], 0, 0
		for p := range texps {
			if j == len(born) || i < n && carried[i] <= born[j] {
				texps[p], i = carried[i], i+1
			} else {
				texps[p], j = born[j], j+1
			}
		}
	default:
		for i, row := range rows[:w] {
			texps[i] = row.Texp
		}
		slices.Sort(texps)
	}
	return &Relation{order: lockSeq.Add(1), schema: r.schema, slots: rows[:w], shared: true, inOrder: true, texps: texps}
}

// RemoveExpired physically deletes rows with texp ≤ tau and returns them:
// the eager/lazy removal hook of §3.2. With the texp-ordered index it pops
// the k due rows, O(k log n), instead of walking the table.
func (r *Relation) RemoveExpired(tau xtime.Time) []Row {
	r.detach()
	// A sweep runs at or after the tick of the re-insert that made a row
	// due, so every due row goes now.
	var removed []Row
	if r.exp != nil {
		removed, r.exp.due = r.exp.due, nil
	}
	displaced := len(removed) > 0
	if heap := r.heap(); heap != nil {
		// PopDue expires the pair current just confirmed: its probe's slot
		// and hash are the row to remove.
		var s slot
		var h uint64
		heap.PopDue(tau, func(key string) (xtime.Time, bool) {
			var ok bool
			if s, h, ok = find(r, key); ok {
				return r.slots[s].Texp, true
			}
			return 0, false
		}, func(key string, _ xtime.Time) {
			removed = append(removed, r.remove(h, key, s))
		})
		r.boundTexpIdx()
	} else {
		var buf [tuple.KeyBuf]byte
		for i, row := range r.slots {
			if row.Texp <= tau && row.Texp != hole {
				removed = append(removed, r.remove(tuple.Hash(row.Tuple.AppendKey(buf[:0])), "", slot(i)))
			}
		}
	}
	r.boundSlots()
	if displaced {
		// Due lifetimes are filed in the order of the writes that ended them:
		// sorted in among the popped rows by (texp, set key), as the heap pops,
		// the order is the rows' own.
		var ka, kb [tuple.KeyBuf]byte
		slices.SortFunc(removed, func(a, b Row) int {
			return cmp.Or(cmp.Compare(a.Texp, b.Texp), bytes.Compare(a.Tuple.AppendKey(ka[:0]), b.Tuple.AppendKey(kb[:0])))
		})
	}
	return removed
}

// ExpiresBy reports whether RemoveExpired(tau) could remove anything: true
// may be a false alarm (a stale heap pair), false is exact. It writes
// nothing, so the engine leaves tables with nothing due unlocked.
func (r *Relation) ExpiresBy(tau xtime.Time) bool {
	if h := r.heap(); h != nil {
		return len(r.exp.due) > 0 || h.Due(tau)
	}
	return r.count() > 0
}

// TexpPending returns the number of pairs in the texp-ordered index,
// stale ones included (0 when the index is not enabled).
func (r *Relation) TexpPending() int {
	if h := r.heap(); h != nil {
		return h.Len()
	}
	return 0
}

// currentTexp is the texp-heap's staleness oracle: the live expiration
// time stored for key, if any.
func (r *Relation) currentTexp(key string) (xtime.Time, bool) {
	if s, _, ok := find(r, key); ok {
		return r.slots[s].Texp, true
	}
	return 0, false
}

// Rows returns the rows of expτ(R) in no order; deterministic consumers
// (rendering, tests) want RowsSorted.
func (r *Relation) Rows(tau xtime.Time) []Row {
	tau = r.effTau(tau)
	out := make([]Row, 0, r.count())
	for i := range r.slots {
		if r.slots[i].Texp > tau {
			out = append(out, r.slots[i])
		}
	}
	return out
}

// RowsSorted returns the rows of expτ(R) in tuple order, in a slice of the
// caller's own (ORDER BY re-sorts it in place): for tests, rendering and
// ORDER BY. A store in order — a view, a cached result, a remote copy — is
// filtered in one pass into a slice its texps size; any other is sorted.
func (r *Relation) RowsSorted(tau xtime.Time) []Row { return r.sorted(tau, false) }

// RowsShared is RowsSorted without the copy when the store already is
// expτ(R) in tuple order: frozen (shared), laid out by Merge or holding one
// row, and every row alive at tau. It then returns the store's own rows, the
// capacity clipped so that an append copies; like the tuples in them they
// are read-only, and no write through any handle changes them (detach).
// Any other store gets RowsSorted's copy.
func (r *Relation) RowsShared(tau xtime.Time) []Row { return r.sorted(tau, true) }

// sorted is RowsSorted, and RowsShared with share.
func (r *Relation) sorted(tau xtime.Time, share bool) []Row {
	share = share && r.shared
	if !r.inOrder && !(share && len(r.slots) == 1) {
		out := r.Rows(tau)
		slices.SortFunc(out, compareRows)
		return out
	}
	tau = r.effTau(tau)
	n := r.CountAt(tau)
	if share && n == len(r.slots) {
		return r.slots[:n:n]
	}
	out := make([]Row, 0, n)
	for _, row := range r.slots {
		if row.Texp > tau {
			out = append(out, row)
		}
	}
	return out
}

// String renders expτ(R) at τ=-1 (i.e. every stored row) as an aligned
// table with a texp column, in the style of the paper's Figure 1.
func (r *Relation) String() string { return r.Render(-1) }

// Render renders expτ(R) as a table.
func (r *Relation) Render(tau xtime.Time) string {
	var b strings.Builder
	b.WriteString("texp |")
	for _, c := range r.schema.Cols {
		fmt.Fprintf(&b, " %s", c.Name)
	}
	b.WriteByte('\n')
	for _, row := range r.RowsSorted(tau) {
		fmt.Fprintf(&b, "%4s |", row.Texp)
		for _, v := range row.Tuple {
			fmt.Fprintf(&b, " %s", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// idxInsert fans a fresh row out to every attached index. t must be the
// stored tuple (the relation's own storage), never a caller-owned one.
func (r *Relation) idxInsert(key string, t tuple.Tuple, texp xtime.Time) {
	for _, ni := range r.indexes {
		ni.Idx.Insert(index.Entry{Key: key, Tuple: t, Texp: texp})
	}
	if h := r.heap(); h != nil {
		h.Push(key, texp)
	}
}

// idxUpdate records a texp extension (set-semantics duplicate insert).
// The old heap pair goes stale and is discarded lazily.
func (r *Relation) idxUpdate(key string, t tuple.Tuple, texp xtime.Time) {
	for _, ni := range r.indexes {
		ni.Idx.Update(key, t, texp)
	}
	if h := r.heap(); h != nil {
		h.Push(key, texp)
		r.boundTexpIdx()
	}
}

// idxRemove drops a deleted/expired row from the secondary indexes. The
// texp heap is left alone: its pair is stale now and PopDue discards it
// when it surfaces.
func (r *Relation) idxRemove(key string, t tuple.Tuple) {
	if key == "" && r.indexes != nil {
		key = t.Key()
	}
	for _, ni := range r.indexes {
		ni.Idx.Remove(key, t)
	}
}

// AttachIndex attaches idx under name and backfills it, in slot order, from
// every stored row, expired-but-unswept ones included (probes filter by
// tau). A row shares the key string of its current texp heap pair; only a
// row that never expires has its key derived. Caller holds the write lock.
// Backfilling here makes WAL replay order-independent: a CREATE INDEX
// replayed after its table's inserts sees them, later ones use the hooks.
func (r *Relation) AttachIndex(name string, idx index.Index) {
	keys := make([]string, len(r.slots))
	if h := r.heap(); h != nil {
		h.Pairs(func(key string, texp xtime.Time) {
			if s, _, ok := find(r, key); ok && r.slots[s].Texp == texp {
				keys[s] = key
			}
		})
	}
	for i, row := range r.slots {
		if row.Texp > r.floor {
			if keys[i] == "" {
				keys[i] = row.Tuple.Key()
			}
			idx.Insert(index.Entry{Key: keys[i], Tuple: row.Tuple, Texp: row.Texp})
		}
	}
	r.indexes = append(r.indexes, NamedIndex{Name: name, Idx: idx})
}

// DetachIndex removes the named index, reporting whether it was attached.
func (r *Relation) DetachIndex(name string) bool {
	for i, ni := range r.indexes {
		if ni.Name == name {
			r.indexes = append(r.indexes[:i], r.indexes[i+1:]...)
			return true
		}
	}
	return false
}

// IndexNamed returns the attached index with the given name, or nil: a
// plan whose index was dropped since degrades to a scan.
func (r *Relation) IndexNamed(name string) index.Index {
	for _, ni := range r.indexes {
		if ni.Name == name {
			return ni.Idx
		}
	}
	return nil
}

// Indexes returns the attached named indexes (the engine's catalog view).
func (r *Relation) Indexes() []NamedIndex { return r.indexes }

// EnableIntArrays gives every INT column not holding another value a slot
// array (Relation.ints). Idempotent; caller holds the write lock.
func (r *Relation) EnableIntArrays() {
	if r.ints != nil {
		return
	}
	r.ints = make([][]int64, len(r.schema.Cols))
	for c, col := range r.schema.Cols {
		if col.Kind == value.KindInt {
			r.ints[c] = make([]int64, len(r.slots))
		}
	}
	for s, row := range r.slots {
		if row.Texp != hole {
			r.setInts(slot(s), row.Tuple)
		}
	}
}

// EnableTexpIndex turns on the texp-ordered index with a pair per stored
// finite-texp row (a recovering table's). Idempotent; caller holds the
// write lock.
func (r *Relation) EnableTexpIndex() {
	if r.heap() != nil {
		return
	}
	if r.exp == nil {
		r.exp = &expiry{}
	}
	r.exp.heap = index.NewTexpHeap()
	for _, row := range r.slots {
		if row.Texp != hole && row.Texp != xtime.Infinity {
			r.exp.heap.Push(row.Tuple.Key(), row.Texp)
		}
	}
}

// boundTexpIdx compacts the texp heap once the stale pairs deletes and
// extensions leave behind bloat it, so churn with long TTLs cannot grow it
// without bound. Every mutator that can break the bound calls it.
func (r *Relation) boundTexpIdx() {
	if h := r.heap(); h != nil && h.Bloated(r.count()) {
		h.Compact(r.currentTexp)
	}
}
