// Package relation implements expiration-time-enabled relations: sets of
// tuples where each tuple r carries an expiration time texp_R(r) after
// which it ceases to be current (paper §2.2).
//
// Relations are sets (the paper's model is set-based): inserting a
// duplicate tuple keeps the later of the two expiration times, the same
// rule union ∪exp applies. The function expτ(R) = {r ∈ R | texp_R(r) > τ}
// is exposed as AliveAt/Snapshot.
package relation

import (
	"fmt"
	"maps"
	"math"
	"slices"
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
// A Relation carries its own RWMutex but does not lock around its
// methods: locking is the caller's job. The engine uses the mutex as the
// per-table lock of its lock hierarchy (see DESIGN.md "Locking model"),
// so concurrent access must go through Lock/RLock; relations used as
// single-goroutine intermediates (operator results, snapshots) can skip
// locking entirely and pay nothing. A probe derives a key map not made yet
// (AppendDistinct makes none): as far as locking goes, it is a write.
//
// Stored tuples are immutable: Insert clones caller-provided tuples, and
// no reader may write into a tuple obtained from a relation. The
// invariant is what makes the zero-copy execution paths safe — snapshots,
// streamed rows and InsertOwned all share tuple storage rather than
// cloning it (see DESIGN.md "Execution engine").
type Relation struct {
	mu     sync.RWMutex
	order  uint64 // global acquisition order for multi-relation locking
	schema tuple.Schema
	// slots is the row store: rows in insertion order, so expτ(R) is a walk
	// in memory order. A deleted row leaves a hole (Texp == hole), listed in
	// free until an insert reuses it or boundSlots squeezes it out (count).
	// keys maps each stored tuple's set key to its slot, or is nil until a
	// probe or a keyed write derives it (keyMap). No key is kept beside a
	// row: a key is a function of its tuple, so the copy that must drop a
	// row from keys re-derives it (Tuple.AppendKey).
	slots []Row
	keys  map[string]slot
	free  []slot
	// floor is the snapshot instant of a SnapshotShared result: rows with
	// texp ≤ floor are treated as absent by every accessor (the lazy
	// alive-at-τ filter), so a shared snapshot observes exactly what a
	// physical Snapshot(floor) would contain. 0 for ordinary relations.
	floor xtime.Time
	// shared marks the store — slots, keys and free alike — as aliased by
	// at least one other Relation (SnapshotShared). The first mutation
	// through either handle detaches it: the three are copied (tuples stay
	// shared — they are immutable) and the write goes to the private copy,
	// so snapshots handed out earlier never observe later mutations. A
	// lifetime extension writes a slot in place and an insert may reuse a
	// freed one, so those detach first like any other write.
	shared bool
	// sorted is the remembered tuple order of a shared store, the same
	// pointer in every handle that aliases it; nil on a private store and
	// on a shared one with fewer than two rows. See sortedRows.
	sorted *sortedRows
	// indexes are the attached secondary indexes, maintained inline by
	// every mutator under the caller's write lock. Only engine-owned base
	// tables carry them; snapshots, clones and operator results never do
	// (New starts with none and Snapshot/SnapshotShared/Clone do not copy
	// them), so result-relation churn pays nothing.
	indexes []NamedIndex
	// texpIdx is the per-table texp-ordered index (a lazy-deletion
	// min-heap): it makes ExpiresBy a peek and RemoveExpired O(k) instead
	// of O(n). Enabled by the engine on base tables, where it is the only
	// record of when rows expire; boundTexpIdx keeps it within
	// 2×rows + slack pairs.
	texpIdx *index.TexpHeap
	// ints are the column arrays of a base table (EnableIntArrays):
	// ints[c][s] is slots[s].Tuple[c] for each INT column c that has stored
	// nothing but INTs (nil for the others), so that ScanInts tests ranges
	// without loading tuples. They are this handle's alone — Snapshot,
	// Clone and SnapshotShared hand none on — so a detached store keeps
	// writing them in place. A hole's entry is stale.
	ints [][]int64
}

// slot is a position in Relation.slots.
type slot uint32

// hole is the texp of a freed slot. It lies below every instant (xtime's
// instants are the non-negative integers), so the texp > τ compare every
// scan makes anyway skips a hole for free. A hole is told by this sentinel
// and never by its nil tuple: a zero-column relation stores ⟨⟩.
const hole xtime.Time = math.MinInt64

// sortedRows holds the slot of every row of one frozen store in tuple
// order — a permutation, 4 bytes a row, not a second copy of the rows —
// sorted on first use and at most once. A shared store is never written
// again, and expiry only hides rows — filtering a sorted sequence keeps it
// sorted — so the order stands for as long as the store does: there is
// nothing to invalidate, and a handle that detaches simply lets go of the
// pointer.
type sortedRows struct {
	once sync.Once
	perm []slot
}

// of returns the tuple order of r's store, the frozen one s was created
// for. Handles on different goroutines may race here: one sorts.
func (s *sortedRows) of(r *Relation) []slot {
	s.once.Do(func() {
		s.perm = make([]slot, 0, r.count())
		for i := range r.slots {
			if r.slots[i].Texp != hole {
				s.perm = append(s.perm, slot(i))
			}
		}
		slices.SortFunc(s.perm, func(a, b slot) int { return r.slots[a].Tuple.Compare(r.slots[b].Tuple) })
	})
	return s.perm
}

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

// Lock write-locks the relation.
func (r *Relation) Lock() { r.mu.Lock() }

// Unlock releases a write lock.
func (r *Relation) Unlock() { r.mu.Unlock() }

// RLock read-locks the relation.
func (r *Relation) RLock() { r.mu.RLock() }

// RUnlock releases a read lock.
func (r *Relation) RUnlock() { r.mu.RUnlock() }

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

// detach gives r a private store before a mutation when the current one is
// shared with snapshots. Rows dead at the floor are dropped from the copy —
// they were invisible anyway. Tuples are never copied. This is the one
// place a handle leaves a shared store, so also where it gives up the
// store's remembered order; the handles still on the store keep theirs.
// Slot numbers read before a detach are void after it (the copy may have
// been compacted).
func (r *Relation) detach() {
	if !r.shared {
		return
	}
	r.copyStore(r, r.floor)
	r.shared = false
	r.sorted = nil
}

// copyStore gives dst a private copy of r's store less the rows dead at
// tau: bulk clones, then each dead row is punched out — its slot made a
// hole, its key (if r keeps a map) re-derived into one scratch buffer and
// deleted (a map delete by string(buf) does not allocate). Slot order
// survives the copy.
func (r *Relation) copyStore(dst *Relation, tau xtime.Time) {
	dst.slots, dst.keys, dst.free = slices.Clone(r.slots), maps.Clone(r.keys), slices.Clone(r.free)
	var key []byte
	for i := range dst.slots {
		if row := dst.slots[i]; row.Texp <= tau && row.Texp != hole {
			if dst.keys != nil {
				key = row.Tuple.AppendKey(key[:0])
				delete(dst.keys, string(key))
			}
			dst.release(slot(i))
		}
	}
	dst.boundSlots()
}

// count is the number of stored rows: every hole is on the free list.
func (r *Relation) count() int { return len(r.slots) - len(r.free) }

// keyMap returns r.keys, deriving it from the rows on first use. Each
// handle on a frozen store derives its own: a probe through one handle
// writes nothing another can read.
func (r *Relation) keyMap() map[string]slot {
	if r.keys == nil {
		r.keys = make(map[string]slot, r.count())
		for i, row := range r.slots {
			if row.Texp != hole {
				r.keys[row.Tuple.Key()] = slot(i)
			}
		}
	}
	return r.keys
}

// release turns slot s into a hole an insert may reuse.
func (r *Relation) release(s slot) {
	r.slots[s] = Row{Texp: hole}
	r.free = append(r.free, s)
}

// slack is what boundSlots tolerates beyond 2×rows, as the texp heap does
// (index.TexpHeap.Bloated): large enough that steady churn on a small table
// never pays a rebuild.
const slack = 1024

// boundSlots squeezes the holes out, in slot order, once they push the
// store past 2×rows + slack slots, so a table that drains from 100 000 rows
// to ten is scanned as ten. What is left holds no hole, so the next
// compaction is at least rows + slack deletes away: amortised O(1). Only
// ever called on a private store; every slot number changes.
func (r *Relation) boundSlots() {
	if len(r.slots) <= 2*r.count()+slack {
		return
	}
	slots, moved := make([]Row, 0, r.count()), make([]slot, len(r.slots))
	for i, row := range r.slots {
		if row.Texp != hole {
			moved[i] = slot(len(slots))
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
	if r.keys != nil {
		keys := make(map[string]slot, len(slots))
		for k, s := range r.keys {
			keys[k] = moved[s]
		}
		r.keys = keys
	}
	r.slots, r.free = slots, nil
}

// Len returns the number of stored tuples, including ones that may already
// have expired logically but have not been removed (lazy removal, §3.2).
// A shared snapshot counts only the rows alive at its snapshot instant.
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

// InsertKeyed is Insert for callers that already computed t.Key(), sparing
// the hot insert path a second key encoding (key must equal t.Key()). It
// also reports the tuple's previous expiration time when an equal tuple was
// already present (a changed insert with had set is a lifetime extension).
func (r *Relation) InsertKeyed(key string, t tuple.Tuple, texp xtime.Time) (changed bool, prev xtime.Time, had bool) {
	_, changed, prev, had = r.InsertStored(key, t, texp)
	return changed, prev, had
}

// InsertStored is InsertKeyed that also returns the tuple now stored under
// key — the clone it just made, or the equal tuple already there — which
// callers may retain but must not mutate.
func (r *Relation) InsertStored(key string, t tuple.Tuple, texp xtime.Time) (stored tuple.Tuple, changed bool, prev xtime.Time, had bool) {
	r.detach()
	if s, ok := r.keyMap()[key]; ok {
		stored, prev = r.slots[s].Tuple, r.slots[s].Texp
		return stored, r.extend(key, s, texp), prev, true
	}
	stored = t.Clone()
	r.place(key, stored, texp)
	return stored, true, 0, false
}

// extend raises the texp of the row in slot s, stored under key, to texp —
// one word written in place, on a store already private — unless it
// already expires as late.
func (r *Relation) extend(key string, s slot, texp xtime.Time) bool {
	row := &r.slots[s]
	if texp <= row.Texp {
		return false
	}
	row.Texp = texp
	r.idxUpdate(key, row.Tuple, texp)
	return true
}

// place stores a row not yet present, in a freed slot when there is one and
// at the end otherwise; t becomes the relation's own. A store grows
// eightfold while it is small — a result of forty rows is three arrays
// (1, 8 and 64 rows), not seven — and by append's rule from 64 rows on.
func (r *Relation) place(key string, t tuple.Tuple, texp xtime.Time) {
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
	if r.keys != nil {
		r.keys[key] = s
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

// InsertOwned is InsertKeyed for tuples the relation may store without a
// defensive clone: tuples freshly built by an operator, or shared
// immutable tuples already stored in another relation. key must equal
// t.Key(). The streaming executor routes every result that may derive a
// tuple twice through it (the others through AppendDistinct), so tuples
// flow from base storage to query results without a single copy.
func (r *Relation) InsertOwned(key string, t tuple.Tuple, texp xtime.Time) bool {
	r.detach()
	if s, ok := r.keyMap()[key]; ok {
		return r.extend(key, s, texp)
	}
	r.place(key, t, texp)
	return true
}

// InsertOwnedRow is InsertOwned for a Row value, computing the set key.
func (r *Relation) InsertOwnedRow(row Row) bool {
	return r.InsertOwned(row.Tuple.Key(), row.Tuple, row.Texp)
}

// AppendDistinct adds row, whose tuple the caller knows r does not hold —
// a row of a duplicate-free stream or of a set a peer sent — without its
// set key: a relation filled this way keeps no key map until one is needed.
// Onto a relation that keeps a map, an index or column arrays, or shares its
// store, it is InsertOwnedRow.
func (r *Relation) AppendDistinct(row Row) {
	if r.keys != nil || r.shared || r.indexes != nil || r.texpIdx != nil || r.ints != nil {
		r.InsertOwnedRow(row)
		return
	}
	r.place("", row.Tuple, row.Texp)
}

// DeleteKey removes the tuple stored under key (a value of Tuple.Key),
// reporting whether it was present.
func (r *Relation) DeleteKey(key string) bool {
	s, ok := r.keyMap()[key]
	if !ok || r.slots[s].Texp <= r.floor {
		return false
	}
	if r.shared {
		r.detach()
		s = r.keys[key]
	}
	r.remove(key, s)
	r.boundSlots()
	r.boundTexpIdx()
	return true
}

// remove drops the row stored under key, in slot s of a private store, from
// the store and the secondary indexes, and returns it.
func (r *Relation) remove(key string, s slot) Row {
	row := r.slots[s]
	delete(r.keys, key)
	r.release(s)
	r.idxRemove(key, row.Tuple)
	return row
}

// RowByKey returns the row stored under key (a value of Tuple.Key). The
// returned row's tuple is the relation's own storage: callers must not
// mutate it, and should only retain it after deleting the row.
func (r *Relation) RowByKey(key string) (Row, bool) {
	s, ok := r.keyMap()[key]
	if !ok || r.slots[s].Texp <= r.floor {
		return Row{}, false
	}
	return r.slots[s], true
}

// Texp returns texp_R(t) and whether t ∈ R.
func (r *Relation) Texp(t tuple.Tuple) (xtime.Time, bool) {
	return r.TexpKey(t.Key())
}

// TexpKey is Texp for callers that already computed t.Key().
func (r *Relation) TexpKey(key string) (xtime.Time, bool) {
	row, ok := r.RowByKey(key)
	return row.Texp, ok
}

// Contains reports whether t ∈ expτ(R), i.e. t is present and unexpired at
// time tau.
func (r *Relation) Contains(t tuple.Tuple, tau xtime.Time) bool {
	s, ok := r.keyMap()[t.Key()]
	return ok && r.slots[s].Texp > r.effTau(tau)
}

// AliveAt calls fn for every row of expτ(R). Iteration order is
// unspecified; fn must not mutate the relation.
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
// column in.Col is in the set. Every column it tests must have an array
// (HasIntArray). It walks the first interval's array in slot order —
// uint64(v−lo) ≤ uint64(hi−lo), one subtraction and one unsigned compare a
// row — and only for a row inside it reads the texp, the other arrays and,
// when the row passes them all, the row itself.
func (r *Relation) ScanInts(tau xtime.Time, ranges []IntRange, in *IntSet, fn func(Row)) {
	if slices.ContainsFunc(ranges, func(rg IntRange) bool { return rg.Lo > rg.Hi }) {
		return
	}
	first := IntRange{Lo: math.MinInt64, Hi: math.MaxInt64} // tested before the texp
	switch {
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
		if uint64(v-lo) > width || slots[i].Texp <= tau || !r.passes(i, ranges, in) {
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

// IntSet is a set of INTs that ScanInts tests column Col against — a hash
// join's build keys. A bitmap indexed by a multiplicative hash, 16 bits a
// member, turns most non-members away with one load; a binary search of
// the sorted members settles the rest.
type IntSet struct {
	Col   int
	shift uint
	bits  []uint64
	vals  []int64
}

// NewIntSet returns the set of vals, tested against column col. It keeps
// vals, sorted in place.
func NewIntSet(col int, vals []int64) *IntSet {
	slices.Sort(vals)
	s := &IntSet{Col: col, vals: slices.Compact(vals)}
	b := uint(6)
	for 1<<b < 16*len(s.vals) {
		b++
	}
	s.shift, s.bits = 64-b, make([]uint64, 1<<(b-6))
	for _, v := range s.vals {
		h := s.hash(v)
		s.bits[h>>6] |= 1 << (h & 63)
	}
	return s
}

func (s *IntSet) hash(v int64) uint64 { return uint64(v) * 0x9E3779B97F4A7C15 >> s.shift }

// Has reports whether v is in s.
func (s *IntSet) Has(v int64) bool {
	if h := s.hash(v); s.bits[h>>6]&(1<<(h&63)) == 0 {
		return false
	}
	_, ok := slices.BinarySearch(s.vals, v)
	return ok
}

// AliveKeyedAt is AliveAt that also hands fn each row's set key — the
// stored string, not a re-encoding — in slot order, like AliveAt: an index
// backfilled from it orders its buckets by the history, not by the key
// map's iteration order.
func (r *Relation) AliveKeyedAt(tau xtime.Time, fn func(key string, row Row)) {
	keys := make([]string, len(r.slots))
	for k, s := range r.keyMap() {
		keys[s] = k
	}
	tau = r.effTau(tau)
	for i, row := range r.slots {
		if row.Texp > tau {
			fn(keys[i], row)
		}
	}
}

// All calls fn for every stored row regardless of expiration (for a
// shared snapshot: every row alive at its snapshot instant).
func (r *Relation) All(fn func(Row)) { r.AliveAt(r.floor, fn) }

// CountAt returns |expτ(R)|.
func (r *Relation) CountAt(tau xtime.Time) int {
	tau = r.effTau(tau)
	n := 0
	for i := range r.slots {
		if r.slots[i].Texp > tau {
			n++
		}
	}
	return n
}

// Snapshot returns a new relation holding exactly expτ(R). The result has
// a private store but shares the (immutable) tuples with r, so the cost is
// one copy of the store, not a deep copy of the data.
func (r *Relation) Snapshot(tau xtime.Time) *Relation {
	out := &Relation{order: lockSeq.Add(1), schema: r.schema}
	r.copyStore(out, r.effTau(tau))
	return out
}

// SnapshotShared returns expτ(R) as a zero-copy snapshot: the result
// aliases r's store (O(1), no allocation beyond the header) and filters
// rows dead at tau lazily on every access. Both handles stay safe to
// mutate — the first mutation on either side copies the store before
// writing (tuples are immutable and stay shared), so the snapshot is
// effectively immutable from the moment it is taken. Views use it to
// serve reads from the materialisation without copying it.
//
// A store is frozen far longer than it was built, so the first freeze moves
// the slots to an array of their own size when growth left more than an
// allocator size class of room behind them. Freezing the store freezes its
// tuple order too, so every handle on it shares one sortedRows (fewer than
// two rows have no order worth the allocation). Like any write to r, the
// call needs r exclusively.
func (r *Relation) SnapshotShared(tau xtime.Time) *Relation {
	if !r.shared && cap(r.slots)-len(r.slots) > len(r.slots)/8 {
		r.slots = slices.Clone(r.slots)
	}
	r.shared = true
	if r.sorted == nil && r.count() > 1 {
		r.sorted = new(sortedRows)
	}
	return &Relation{
		order:  lockSeq.Add(1),
		schema: r.schema,
		slots:  r.slots,
		keys:   r.keys,
		free:   r.free,
		floor:  r.effTau(tau),
		shared: true,
		sorted: r.sorted,
	}
}

// RemoveExpired physically deletes rows with texp ≤ tau and returns them.
// This is the eager/lazy removal hook of §3.2: eager engines call it on
// every expiration event, lazy ones batch calls. With the texp-ordered
// index enabled the candidates are enumerated by popping the heap —
// O(k log n) for k removals — instead of walking the whole table.
func (r *Relation) RemoveExpired(tau xtime.Time) []Row {
	r.detach()
	var removed []Row
	if r.texpIdx != nil {
		r.texpIdx.PopDue(tau, r.currentTexp, func(key string, _ xtime.Time) {
			removed = append(removed, r.remove(key, r.keys[key]))
		})
		r.boundTexpIdx()
	} else {
		for k, s := range r.keyMap() {
			if r.slots[s].Texp <= tau {
				removed = append(removed, r.remove(k, s))
			}
		}
	}
	r.boundSlots()
	return removed
}

// ExpiresBy reports whether RemoveExpired(tau) could remove anything. A
// true answer may be a false alarm (a stale heap pair); a false one is
// exact. It mutates nothing, so callers need only the read lock — the
// engine uses it to leave tables with nothing due unlocked for writing.
func (r *Relation) ExpiresBy(tau xtime.Time) bool {
	if r.texpIdx != nil {
		return r.texpIdx.Due(tau)
	}
	return r.count() > 0
}

// TexpPending returns the number of pairs in the texp-ordered index,
// stale ones included (0 when the index is not enabled).
func (r *Relation) TexpPending() int {
	if r.texpIdx == nil {
		return 0
	}
	return r.texpIdx.Len()
}

// currentTexp is the texp-heap's staleness oracle: the live expiration
// time stored for key, if any.
func (r *Relation) currentTexp(key string) (xtime.Time, bool) {
	s, ok := r.keyMap()[key]
	if !ok {
		return 0, false
	}
	return r.slots[s].Texp, true
}

// Rows returns the rows of expτ(R) in unspecified order — the
// allocation-lean form for executor hot paths that only need the alive
// set. Deterministic consumers (rendering, tests) want RowsSorted.
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

// RowsSorted returns the rows of expτ(R) sorted by tuple order — a
// deterministic view for tests, rendering and ORDER BY's base order. A set
// has no order: callers that only consume the rows want AliveAt or Rows.
// The slice is the caller's own (ORDER BY re-sorts it in place). A private
// store is collected and sorted per call; a shared one — a materialised
// view, a cached result, every snapshot of either — is sorted once for all
// its handles and filtered to the rows alive past max(floor, τ) per call,
// counted first so the result is as large as what is alive and no larger.
func (r *Relation) RowsSorted(tau xtime.Time) []Row {
	if r.sorted == nil {
		out := r.Rows(tau)
		slices.SortFunc(out, compareRows)
		return out
	}
	tau = r.effTau(tau)
	out := make([]Row, 0, r.CountAt(tau))
	for _, s := range r.sorted.of(r) {
		if row := r.slots[s]; row.Texp > tau {
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
	if r.texpIdx != nil {
		r.texpIdx.Push(key, texp)
	}
}

// idxUpdate records a texp extension (set-semantics duplicate insert).
// The old heap pair goes stale and is discarded lazily.
func (r *Relation) idxUpdate(key string, t tuple.Tuple, texp xtime.Time) {
	for _, ni := range r.indexes {
		ni.Idx.Update(key, t, texp)
	}
	if r.texpIdx != nil {
		r.texpIdx.Push(key, texp)
		r.boundTexpIdx()
	}
}

// idxRemove drops a deleted/expired row from the secondary indexes. The
// texp heap is left alone: its pair is stale now and PopDue discards it
// when it surfaces.
func (r *Relation) idxRemove(key string, t tuple.Tuple) {
	for _, ni := range r.indexes {
		ni.Idx.Remove(key, t)
	}
}

// AttachIndex attaches idx under name and backfills it from every stored
// row (expired-but-unswept rows included — probes filter by tau, and the
// sweep will remove them from the index like any other row). Caller holds
// the write lock. Backfilling at attach time is what makes WAL replay
// order-independent: a CREATE INDEX replayed after its table's inserts
// sees them here, and inserts replayed later flow through the hooks.
func (r *Relation) AttachIndex(name string, idx index.Index) {
	r.AliveKeyedAt(r.floor, func(k string, row Row) {
		idx.Insert(index.Entry{Key: k, Tuple: row.Tuple, Texp: row.Texp})
	})
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

// IndexNamed returns the attached index with the given name, or nil. The
// executor resolves plan-time index choices through it at stream time, so
// a concurrently dropped index degrades to a scan instead of failing.
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

// EnableIntArrays gives every INT column a slot array (see Relation.ints),
// backfilled from the stored rows: a column already holding another value
// gets none. Idempotent; caller holds the write lock.
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

// EnableTexpIndex turns on the texp-ordered index, backfilling it from
// the stored rows. Idempotent; caller holds the write lock.
func (r *Relation) EnableTexpIndex() {
	if r.texpIdx == nil {
		r.rebuildTexpIdx()
	}
}

// rebuildTexpIdx replaces the texp heap with one pair per stored
// finite-texp row.
func (r *Relation) rebuildTexpIdx() {
	th := index.NewTexpHeap()
	for k, s := range r.keyMap() {
		th.Push(k, r.slots[s].Texp)
	}
	r.texpIdx = th
}

// boundTexpIdx rebuilds the texp heap from the stored rows once the
// stale pairs that deletes and lifetime extensions leave behind bloat it,
// so delete-heavy churn with long TTLs cannot grow it without bound. Every
// mutator that can break the bound calls it under the write lock it
// already holds.
func (r *Relation) boundTexpIdx() {
	if r.texpIdx != nil && r.texpIdx.Bloated(r.count()) {
		r.rebuildTexpIdx()
	}
}
