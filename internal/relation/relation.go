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
// locking entirely and pay nothing.
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
	rows   map[string]Row // set key -> row
	// floor is the snapshot instant of a SnapshotShared result: rows with
	// texp ≤ floor are treated as absent by every accessor (the lazy
	// alive-at-τ filter), so a shared snapshot observes exactly what a
	// physical Snapshot(floor) would contain. 0 for ordinary relations.
	floor xtime.Time
	// shared marks the row map as aliased by at least one other Relation
	// (SnapshotShared). The first mutation through either handle detaches
	// it: the map is shallow-copied (tuples stay shared — they are
	// immutable) and the write goes to the private copy, so snapshots
	// handed out earlier never observe later mutations.
	shared bool
	// sorted is the remembered tuple order of a shared row map, the same
	// pointer in every handle that aliases the map; nil on a private map
	// and on a shared one with fewer than two rows. See sortedRows.
	sorted *sortedRows
	// indexes are the attached secondary indexes, maintained inline by
	// every mutator under the caller's write lock. Only engine-owned base
	// tables carry them; snapshots, clones and operator results never do
	// (New starts with none and Snapshot/SnapshotShared/Clone do not copy
	// them), so result-relation churn pays nothing.
	indexes []NamedIndex
	// texpIdx is the per-table texp-ordered index (a lazy-deletion
	// min-heap): it makes NextExpiration a peek and RemoveExpired O(k)
	// instead of O(n). Enabled by the engine on base tables, where it is
	// the only record of when rows expire; boundTexpIdx keeps it within
	// 2×rows + texpSlack pairs.
	texpIdx *index.TexpHeap
}

// sortedRows holds every row of one frozen row map in tuple order, sorted
// on first use and at most once. A shared map is never written again, and
// expiry only hides rows — filtering a sorted slice keeps it sorted — so
// the order stands for as long as the map does: there is nothing to
// invalidate, and a handle that detaches simply lets go of the pointer.
type sortedRows struct {
	once sync.Once
	rows []Row
}

// of returns the rows of m, the frozen map s was created for, in tuple
// order. Handles on different goroutines may race here: one sorts.
func (s *sortedRows) of(m map[string]Row) []Row {
	s.once.Do(func() {
		s.rows = make([]Row, 0, len(m))
		for _, row := range m {
			s.rows = append(s.rows, row)
		}
		slices.SortFunc(s.rows, compareRows)
	})
	return s.rows
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
func New(schema tuple.Schema) *Relation {
	return &Relation{order: lockSeq.Add(1), schema: schema, rows: make(map[string]Row)}
}

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

// FromRows builds a relation from rows, applying set semantics.
func FromRows(schema tuple.Schema, rows []Row) *Relation {
	r := New(schema)
	for _, row := range rows {
		r.Insert(row.Tuple, row.Texp)
	}
	return r
}

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

// detach gives r a private row map before a mutation when the current map
// is shared with snapshots. Rows dead at the floor are dropped while
// copying — they were invisible anyway. Tuples are never copied. This is
// the one place a handle leaves a shared map, so also where it gives up the
// map's remembered order; the handles still on the map keep theirs.
func (r *Relation) detach() {
	if !r.shared {
		return
	}
	rows := make(map[string]Row, len(r.rows))
	for k, row := range r.rows {
		if row.Texp > r.floor {
			rows[k] = row
		}
	}
	r.rows = rows
	r.shared = false
	r.sorted = nil
}

// Len returns the number of stored tuples, including ones that may already
// have expired logically but have not been removed (lazy removal, §3.2).
// A shared snapshot counts only the rows alive at its snapshot instant.
func (r *Relation) Len() int {
	if r.floor == 0 {
		return len(r.rows)
	}
	n := 0
	for _, row := range r.rows {
		if row.Texp > r.floor {
			n++
		}
	}
	return n
}

// Insert adds t with expiration texp. If an equal tuple is present the
// larger expiration time wins (set semantics consistent with ∪exp). It
// reports whether the relation's visible content changed.
func (r *Relation) Insert(t tuple.Tuple, texp xtime.Time) bool {
	changed, _, _ := r.InsertPrev(t, texp)
	return changed
}

// InsertPrev is Insert, additionally reporting the tuple's previous
// expiration time when an equal tuple was already present (a changed
// insert with had set is a lifetime extension).
func (r *Relation) InsertPrev(t tuple.Tuple, texp xtime.Time) (changed bool, prev xtime.Time, had bool) {
	return r.InsertKeyed(t.Key(), t, texp)
}

// InsertKeyed is InsertPrev for callers that already computed t.Key(),
// sparing the hot insert path a second key encoding. key must equal
// t.Key().
func (r *Relation) InsertKeyed(key string, t tuple.Tuple, texp xtime.Time) (changed bool, prev xtime.Time, had bool) {
	r.detach()
	if old, ok := r.rows[key]; ok {
		if texp > old.Texp {
			r.rows[key] = Row{Tuple: old.Tuple, Texp: texp}
			r.idxUpdate(key, old.Tuple, texp)
			return true, old.Texp, true
		}
		return false, old.Texp, true
	}
	ct := t.Clone()
	r.rows[key] = Row{Tuple: ct, Texp: texp}
	r.idxInsert(key, ct, texp)
	return true, 0, false
}

// InsertOwned is InsertKeyed for tuples the relation may store without a
// defensive clone: tuples freshly built by an operator, or shared
// immutable tuples already stored in another relation. key must equal
// t.Key(). The streaming executor routes every operator result through
// it, so tuples flow from base storage to query results without a single
// copy.
func (r *Relation) InsertOwned(key string, t tuple.Tuple, texp xtime.Time) bool {
	r.detach()
	if old, ok := r.rows[key]; ok {
		if texp > old.Texp {
			r.rows[key] = Row{Tuple: old.Tuple, Texp: texp}
			r.idxUpdate(key, old.Tuple, texp)
			return true
		}
		return false
	}
	r.rows[key] = Row{Tuple: t, Texp: texp}
	r.idxInsert(key, t, texp)
	return true
}

// InsertOwnedRow is InsertOwned for a Row value, computing the set key.
func (r *Relation) InsertOwnedRow(row Row) bool {
	return r.InsertOwned(row.Tuple.Key(), row.Tuple, row.Texp)
}

// InsertRow is Insert for a Row value.
func (r *Relation) InsertRow(row Row) bool { return r.Insert(row.Tuple, row.Texp) }

// Delete removes the tuple equal to t, reporting whether it was present.
func (r *Relation) Delete(t tuple.Tuple) bool {
	return r.DeleteKey(t.Key())
}

// DeleteKey removes the tuple stored under key (a value of Tuple.Key),
// reporting whether it was present.
func (r *Relation) DeleteKey(key string) bool {
	row, ok := r.rows[key]
	if !ok || row.Texp <= r.floor {
		return false
	}
	r.detach()
	delete(r.rows, key)
	r.idxRemove(key, row.Tuple)
	r.boundTexpIdx()
	return true
}

// RowByKey returns the row stored under key (a value of Tuple.Key). The
// returned row's tuple is the relation's own storage: callers must not
// mutate it, and should only retain it after deleting the row.
func (r *Relation) RowByKey(key string) (Row, bool) {
	row, ok := r.rows[key]
	if !ok || row.Texp <= r.floor {
		return Row{}, false
	}
	return row, true
}

// Texp returns texp_R(t) and whether t ∈ R.
func (r *Relation) Texp(t tuple.Tuple) (xtime.Time, bool) {
	row, ok := r.rows[t.Key()]
	if !ok || row.Texp <= r.floor {
		return 0, false
	}
	return row.Texp, true
}

// TexpKey is Texp for callers that already computed t.Key().
func (r *Relation) TexpKey(key string) (xtime.Time, bool) {
	row, ok := r.rows[key]
	if !ok || row.Texp <= r.floor {
		return 0, false
	}
	return row.Texp, true
}

// Contains reports whether t ∈ expτ(R), i.e. t is present and unexpired at
// time tau.
func (r *Relation) Contains(t tuple.Tuple, tau xtime.Time) bool {
	row, ok := r.rows[t.Key()]
	return ok && row.Texp > r.effTau(tau)
}

// AliveAt calls fn for every row of expτ(R). Iteration order is
// unspecified; fn must not mutate the relation.
func (r *Relation) AliveAt(tau xtime.Time, fn func(Row)) {
	tau = r.effTau(tau)
	for _, row := range r.rows {
		if row.Texp > tau {
			fn(row)
		}
	}
}

// AliveKeyedAt is AliveAt that also hands fn each row's set key, so a
// caller about to DeleteKey the rows it picks need not re-encode them.
func (r *Relation) AliveKeyedAt(tau xtime.Time, fn func(key string, row Row)) {
	tau = r.effTau(tau)
	for k, row := range r.rows {
		if row.Texp > tau {
			fn(k, row)
		}
	}
}

// All calls fn for every stored row regardless of expiration (for a
// shared snapshot: every row alive at its snapshot instant).
func (r *Relation) All(fn func(Row)) {
	for _, row := range r.rows {
		if row.Texp > r.floor {
			fn(row)
		}
	}
}

// CountAt returns |expτ(R)|.
func (r *Relation) CountAt(tau xtime.Time) int {
	tau = r.effTau(tau)
	n := 0
	for _, row := range r.rows {
		if row.Texp > tau {
			n++
		}
	}
	return n
}

// Snapshot returns a new relation holding exactly expτ(R). The result has
// a private row map but shares the (immutable) tuples with r, so the cost
// is one map, not a deep copy of the data.
func (r *Relation) Snapshot(tau xtime.Time) *Relation {
	tau = r.effTau(tau)
	out := New(r.schema)
	for k, row := range r.rows {
		if row.Texp > tau {
			out.rows[k] = row
		}
	}
	return out
}

// SnapshotShared returns expτ(R) as a zero-copy snapshot: the result
// aliases r's row map (O(1), no allocation beyond the header) and filters
// rows dead at tau lazily on every access. Both handles stay safe to
// mutate — the first mutation on either side copies the map before
// writing (tuples are immutable and stay shared), so the snapshot is
// effectively immutable from the moment it is taken. Views use it to
// serve reads from the materialisation without copying it.
//
// Freezing the map freezes its tuple order too, so every handle on it
// shares one sortedRows (fewer than two rows have no order worth the
// allocation). Like any write to r, the call needs r exclusively.
func (r *Relation) SnapshotShared(tau xtime.Time) *Relation {
	r.shared = true
	if r.sorted == nil && len(r.rows) > 1 {
		r.sorted = new(sortedRows)
	}
	return &Relation{
		order:  lockSeq.Add(1),
		schema: r.schema,
		rows:   r.rows,
		floor:  r.effTau(tau),
		shared: true,
		sorted: r.sorted,
	}
}

// Clone returns an independent copy of r, expired rows included. Tuples
// are shared (they are immutable); the row map is private.
func (r *Relation) Clone() *Relation {
	out := New(r.schema)
	for k, row := range r.rows {
		if row.Texp > r.floor {
			out.rows[k] = row
		}
	}
	return out
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
			row := r.rows[key]
			removed = append(removed, row)
			delete(r.rows, key)
			r.idxRemove(key, row.Tuple)
		})
		r.boundTexpIdx()
		return removed
	}
	for k, row := range r.rows {
		if row.Texp <= tau {
			removed = append(removed, row)
			delete(r.rows, k)
			r.idxRemove(k, row.Tuple)
		}
	}
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
	return len(r.rows) > 0
}

// TexpPending returns the number of pairs in the texp-ordered index,
// stale ones included (0 when the index is not enabled).
func (r *Relation) TexpPending() int {
	if r.texpIdx == nil {
		return 0
	}
	return r.texpIdx.Len()
}

// NextExpiration returns the smallest finite texp strictly greater than
// tau, or Infinity when no stored tuple expires after tau. Engines use it
// to schedule sweeps and triggers. With the texp-ordered index this is a
// heap peek (plus discarding stale pairs) instead of an O(n) scan.
func (r *Relation) NextExpiration(tau xtime.Time) xtime.Time {
	tau = r.effTau(tau)
	if r.texpIdx != nil {
		return r.texpIdx.NextAfter(tau, r.currentTexp)
	}
	next := xtime.Infinity
	for _, row := range r.rows {
		if row.Texp > tau && row.Texp < next {
			next = row.Texp
		}
	}
	return next
}

// currentTexp is the texp-heap's staleness oracle: the live expiration
// time stored for key, if any.
func (r *Relation) currentTexp(key string) (xtime.Time, bool) {
	row, ok := r.rows[key]
	if !ok {
		return 0, false
	}
	return row.Texp, true
}

// Rows returns the rows of expτ(R) in unspecified order — the
// allocation-lean form for executor hot paths that only need the alive
// set. Deterministic consumers (rendering, tests) want RowsSorted.
func (r *Relation) Rows(tau xtime.Time) []Row {
	tau = r.effTau(tau)
	out := make([]Row, 0, len(r.rows))
	for _, row := range r.rows {
		if row.Texp > tau {
			out = append(out, row)
		}
	}
	return out
}

// RowsSorted returns the rows of expτ(R) sorted by tuple order — a
// deterministic view for tests, rendering and ORDER BY's base order. A set
// has no order: callers that only consume the rows want AliveAt or Rows.
// The slice is the caller's own (ORDER BY re-sorts it in place). A private
// map is collected and sorted per call; a shared one — a materialised view,
// a cached result, every snapshot of either — is sorted once for all its
// handles and filtered to the rows alive past max(floor, τ) per call.
func (r *Relation) RowsSorted(tau xtime.Time) []Row {
	if r.sorted == nil {
		out := r.Rows(tau)
		slices.SortFunc(out, compareRows)
		return out
	}
	tau = r.effTau(tau)
	all := r.sorted.of(r.rows)
	out := make([]Row, 0, len(all))
	for _, row := range all {
		if row.Texp > tau {
			out = append(out, row)
		}
	}
	return out
}

// EqualAt reports whether expτ(r) and expτ(o) contain the same tuples with
// the same expiration times.
func (r *Relation) EqualAt(o *Relation, tau xtime.Time) bool {
	if r.CountAt(tau) != o.CountAt(tau) {
		return false
	}
	otau := o.effTau(tau)
	equal := true
	r.AliveAt(tau, func(row Row) {
		other, ok := o.rows[row.Tuple.Key()]
		if !ok || other.Texp <= otau || other.Texp != row.Texp {
			equal = false
		}
	})
	return equal
}

// SameTuplesAt is EqualAt ignoring expiration times: the two relations are
// equal as plain sets at time tau.
func (r *Relation) SameTuplesAt(o *Relation, tau xtime.Time) bool {
	if r.CountAt(tau) != o.CountAt(tau) {
		return false
	}
	otau := o.effTau(tau)
	equal := true
	r.AliveAt(tau, func(row Row) {
		other, ok := o.rows[row.Tuple.Key()]
		if !ok || other.Texp <= otau {
			equal = false
		}
	})
	return equal
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
// texp heap is left alone: its pair is stale now and Next/PopDue discard
// it when it surfaces.
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
	for k, row := range r.rows {
		if row.Texp > r.floor {
			idx.Insert(index.Entry{Key: k, Tuple: row.Tuple, Texp: row.Texp})
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
	for k, row := range r.rows {
		th.Push(k, row.Texp)
	}
	r.texpIdx = th
}

// texpSlack is the number of texp-heap pairs tolerated beyond 2×rows:
// large enough that steady churn on a small table never pays a rebuild.
const texpSlack = 1024

// boundTexpIdx rebuilds the texp heap from the stored rows once the
// stale pairs that deletes and lifetime extensions leave behind push it
// past 2×rows + texpSlack, so delete-heavy churn with long TTLs cannot
// grow it without bound. A rebuild leaves at most rows pairs, so the next
// one is at least rows + texpSlack mutations away: amortised O(1). Every
// mutator that can break the bound calls it under the write lock it
// already holds.
func (r *Relation) boundTexpIdx() {
	if r.texpIdx != nil && r.texpIdx.Len() > 2*len(r.rows)+texpSlack {
		r.rebuildTexpIdx()
	}
}

// Index is a hash index over a column subset, mapping projected keys to
// rows: the build side of a hash join.
type Index struct {
	cols    []int
	buckets map[string]int // key of the indexed columns → position in rows
	rows    [][]Row
	key     []byte // Add's scratch; a key string is made once per bucket
}

// NewIndex returns an empty index over the given 0-based columns; feed it
// with Add.
func NewIndex(cols []int) *Index {
	return &Index{cols: cols, buckets: make(map[string]int)}
}

// Add indexes one row under the key of its indexed columns.
func (idx *Index) Add(row Row) {
	idx.key = row.Tuple.AppendKeyCols(idx.key[:0], idx.cols)
	if i, ok := idx.buckets[string(idx.key)]; ok {
		idx.rows[i] = append(idx.rows[i], row)
		return
	}
	idx.buckets[string(idx.key)] = len(idx.rows)
	idx.rows = append(idx.rows, []Row{row})
}

// BuildIndex builds an index of expτ(R) on the given 0-based columns.
func (r *Relation) BuildIndex(tau xtime.Time, cols []int) *Index {
	idx := NewIndex(cols)
	r.AliveAt(tau, idx.Add)
	return idx
}

// Probe returns the rows whose indexed columns equal ⟨t(c) | c ∈ cols⟩. The
// key is encoded into buf and looked up without becoming a string, so a
// probe allocates nothing once buf has grown; buf comes back for the next
// probe. Goroutines probing one index each bring their own buffer.
func (idx *Index) Probe(t tuple.Tuple, cols []int, buf []byte) ([]Row, []byte) {
	buf = t.AppendKeyCols(buf[:0], cols)
	if i, ok := idx.buckets[string(buf)]; ok {
		return idx.rows[i], buf
	}
	return nil, buf
}

// Sum of lifetimes helper: TotalRemainingLifetime returns Σ max(0,
// texp-tau) over alive rows with finite texp — used by experiments to
// quantify how long materialised data stays maintainable.
func (r *Relation) TotalRemainingLifetime(tau xtime.Time) int64 {
	var total int64
	r.AliveAt(tau, func(row Row) {
		if row.Texp.IsFinite() {
			total += int64(row.Texp - tau)
		}
	})
	return total
}

// MustInsertInts is a test/demo helper: insert an all-integer tuple.
func (r *Relation) MustInsertInts(texp xtime.Time, vs ...int64) {
	t := tuple.Ints(vs...)
	if err := r.schema.Validate(t); err != nil {
		panic(err)
	}
	r.Insert(t, texp)
}

// ValueAt returns attribute i (0-based) of the single column c of row
// tuples; convenience for aggregates. (Kept here to avoid exporting row
// internals elsewhere.)
func ValueAt(row Row, c int) value.Value { return row.Tuple[c] }
