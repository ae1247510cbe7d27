package engine

import (
	"fmt"
	"sync"
	"time"

	"expdb/internal/algebra"
	"expdb/internal/catalog"
	"expdb/internal/interval"
	"expdb/internal/metrics"
	"expdb/internal/pqueue"
	"expdb/internal/relation"
	"expdb/internal/trace"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// ErrCacheDisabled: the validity-interval result cache is switched off
// (size 0). Re-exported from the catalog sentinel so errors.Is works
// across catalog, engine, SQL and the facade.
var ErrCacheDisabled = catalog.ErrCacheDisabled

// DefaultResultCacheSize is the entry capacity the result cache starts
// with. The cache is on by default: the paper's whole point is that the
// engine already knows how long an answer stays correct, so serving it
// again for free is the normal mode, not an opt-in.
const DefaultResultCacheSize = 256

// QueryResult is a query answer stamped with its validity interval — the
// uniform read currency of the engine. At is the tick the read answered
// at; Validity is [materialised-at, texp(e)) per Theorem 1 and the χ/ν
// change-point rules for aggregates; Cached reports whether the answer
// was served from the result cache with zero re-evaluation.
type QueryResult struct {
	Rel      *relation.Relation
	At       xtime.Time
	Validity interval.Validity
	Cached   bool
}

// cacheEntry is one cached materialisation. tables records, per base
// relation the plan reads, the write epoch the rows were evaluated under and
// what the plan's leaves select from it: what freshness tests.
type cacheEntry struct {
	key        string
	rel        *relation.Relation
	at         xtime.Time
	validUntil xtime.Time
	tables     []leafTable
	prev, next *cacheEntry // LRU list, head = most recently used
}

// leafTable is what a plan reads of one base table: every leaf over the
// table is σ[p](table) — an IndexScan is the selection it replaced, a bare
// table is σ[TRUE] — and preds holds each leaf's p, arity the number of
// columns they reach.
type leafTable struct {
	name  string
	epoch uint64
	preds []algebra.Predicate
	arity int
}

// selects reports whether any leaf over the table selects t. A tuple too
// short for the predicates was written to a table re-created under the name
// with another schema while the plan was in flight: the entry is not its
// answer.
func (lt *leafTable) selects(t tuple.Tuple) bool {
	if len(t) < lt.arity {
		return true
	}
	for _, p := range lt.preds {
		if p.Holds(t) {
			return true
		}
	}
	return false
}

// leafTables lists the base tables expr reads, each with the predicates
// directly over its leaves; tabs is appended to and returned.
func leafTables(expr algebra.Expr, tabs []leafTable) []leafTable {
	var name string
	var pred algebra.Predicate = algebra.True{}
	switch x := expr.(type) {
	case *algebra.Base:
		name = x.Name
	case *algebra.IndexScan:
		name, pred = x.Base.Name, x.Full
	case *algebra.Select:
		if b, ok := x.Child.(*algebra.Base); ok {
			name, pred = b.Name, x.Pred
		}
	}
	if name == "" {
		for _, k := range expr.Children() {
			tabs = leafTables(k, tabs)
		}
		return tabs
	}
	i := 0
	for i < len(tabs) && tabs[i].name != name {
		i++
	}
	if i == len(tabs) {
		tabs = append(tabs, leafTable{name: name})
	}
	tabs[i].preds = append(tabs[i].preds, pred)
	tabs[i].arity = max(tabs[i].arity, pred.MaxCol()+1)
	return tabs
}

// writeTailLen is how many written tuples a table remembers; an entry that
// sleeps through more writes to one of its tables is re-evaluated.
const writeTailLen = 64

// writeTail is a base table's recent write history, kept beside its epoch
// under Engine.mu: the tuples its last writes changed — the stored
// (immutable, hence shared) tuple of an insert or a lifetime extension, the
// tuple of each row a DELETE removed — each with the epoch the write moved
// the table to.
type writeTail struct {
	// floor is the latest epoch some of whose tuples the ring no longer
	// holds: only an entry evaluated at floor or later can be checked.
	floor uint64
	n     uint64 // tuples ever recorded; ring[n%writeTailLen] is overwritten next
	ring  [writeTailLen]struct {
		epoch uint64
		t     tuple.Tuple
	}
}

// wrote is the only place a table's write epoch moves, so no write can move
// it without saying what it changed: t is the stored tuple of an insert or
// an extension or the tuple of a row a DELETE removed — more marks a further
// row of the same DELETE, which shares its epoch — and nil for CREATE / DROP
// TABLE. The caller holds e.mu, inside the critical section that applies the
// mutation. DDL, and any write while the cache is off, leaves the table
// without a tail — nothing older can then be vouched for — and the next
// recorded write starts one whose floor is the epoch before its own.
func (e *Engine) wrote(table string, t tuple.Tuple, more bool) {
	if !more {
		e.epochs[table]++
	}
	if t == nil || e.cache.Load() == nil {
		delete(e.tails, table)
		return
	}
	epoch := e.epochs[table]
	w := e.tails[table]
	if w == nil {
		w = &writeTail{floor: epoch - 1}
		e.tails[table] = w
	}
	rec := &w.ring[w.n%writeTailLen]
	if w.n >= writeTailLen {
		// A DELETE's tuples share an epoch: losing one loses the whole write.
		w.floor = rec.epoch
	}
	rec.epoch, rec.t = epoch, t
	w.n++
}

// unseenBy reports whether every write to the table since lt.epoch changed
// only tuples no leaf of lt selects: σ_p(R ∪ {r}) = σ_p(R) = σ_p(R − {r})
// whenever ¬p(r), so everything evaluated over those leaves — rows, per-tuple
// texp, texp(e), monotonic or not — is what it was. A nil w is no tail.
func (w *writeTail) unseenBy(lt *leafTable) bool {
	if w == nil || lt.epoch < w.floor {
		return false
	}
	for i := w.n; i > 0 && i+writeTailLen > w.n; i-- {
		rec := &w.ring[(i-1)%writeTailLen]
		if rec.epoch <= lt.epoch {
			break
		}
		if lt.selects(rec.t) {
			return false
		}
	}
	return true
}

// resultCacheMetrics are the cache's atomic hot-path counters.
type resultCacheMetrics struct {
	Hits               metrics.Counter
	Misses             metrics.Counter
	Invalidations      metrics.Counter // clock reached ValidUntil
	EpochInvalidations metrics.Counter // a write changed a tuple the plan selects, or outran the tail
	Revalidations      metrics.Counter // hits that outlived ≥ 1 write to a table they read
	Evictions          metrics.Counter // LRU capacity pressure
	HitNanos           metrics.Histogram
}

// resultCache is the validity-interval result cache: normalized-plan key
// → materialisation valid on [at, validUntil). Entries are dropped three
// ways: the Advance pipeline drains the pq of entries whose ValidUntil
// the clock has reached (the same heartbeat that expires tuples), lookups
// discard entries whose base-table epochs moved, and LRU eviction bounds
// the entry count.
//
// Lock hierarchy: mu nests above Engine.mu (a lookup reads the clock, the
// epoch table and the write tails while holding it) and is never taken while
// any table or view lock is held. The pq may hold stale keys — entries
// replaced or LRU-evicted since their push — which the drain tolerates by
// re-checking the live entry's validUntil; a stale pq item costs one map
// probe.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	head    *cacheEntry
	tail    *cacheEntry
	pq      *pqueue.Queue[string]
	m       resultCacheMetrics
}

func newResultCache(size int) *resultCache {
	if size <= 0 {
		return nil
	}
	return &resultCache{
		cap:     size,
		entries: make(map[string]*cacheEntry, size),
		pq:      pqueue.New[string](size),
	}
}

// unlink removes en from the LRU list.
func (c *resultCache) unlink(en *cacheEntry) {
	if en.prev != nil {
		en.prev.next = en.next
	} else {
		c.head = en.next
	}
	if en.next != nil {
		en.next.prev = en.prev
	} else {
		c.tail = en.prev
	}
	en.prev, en.next = nil, nil
}

// pushFront makes en the most recently used entry.
func (c *resultCache) pushFront(en *cacheEntry) {
	en.prev, en.next = nil, c.head
	if c.head != nil {
		c.head.prev = en
	}
	c.head = en
	if c.tail == nil {
		c.tail = en
	}
}

// touch moves en to the front of the LRU list.
func (c *resultCache) touch(en *cacheEntry) {
	if c.head == en {
		return
	}
	c.unlink(en)
	c.pushFront(en)
}

// drop removes en from both the map and the list. Its pq item, if still
// queued, goes stale and is skipped at drain time.
func (c *resultCache) drop(en *cacheEntry) {
	c.unlink(en)
	delete(c.entries, en.key)
}

// WithResultCache sizes the validity-interval result cache (entries, not
// bytes); size ≤ 0 disables caching entirely. Engines default to
// DefaultResultCacheSize.
func WithResultCache(size int) Option {
	return func(e *Engine) { e.cache.Store(newResultCache(size)) }
}

// SetResultCache resizes (or with size ≤ 0 disables) the result cache at
// runtime. The previous cache — entries and counters — is discarded
// atomically; in-flight lookups against it finish harmlessly.
func (e *Engine) SetResultCache(size int) {
	e.cache.Store(newResultCache(size))
}

// ResultCacheEnabled reports whether query results are being cached.
func (e *Engine) ResultCacheEnabled() bool { return e.cache.Load() != nil }

// ResultCacheMetrics is the JSON-ready snapshot of the cache counters.
type ResultCacheMetrics struct {
	Hits               int64                     `json:"hits"`
	Misses             int64                     `json:"misses"`
	Invalidations      int64                     `json:"invalidations"`
	EpochInvalidations int64                     `json:"epoch_invalidations"`
	Revalidations      int64                     `json:"revalidations"`
	Evictions          int64                     `json:"evictions"`
	Entries            int                       `json:"entries"`
	Capacity           int                       `json:"capacity"`
	HitNanos           metrics.HistogramSnapshot `json:"hit_nanos"`
}

// ResultCacheStats snapshots the cache counters, entry count and
// hit-latency histogram. It returns ErrCacheDisabled (wrapped) when the
// cache is off.
func (e *Engine) ResultCacheStats() (ResultCacheMetrics, error) {
	c := e.cache.Load()
	if c == nil {
		return ResultCacheMetrics{}, fmt.Errorf("engine: %w", ErrCacheDisabled)
	}
	c.mu.Lock()
	entries := len(c.entries)
	c.mu.Unlock()
	return ResultCacheMetrics{
		Hits:               c.m.Hits.Load(),
		Misses:             c.m.Misses.Load(),
		Invalidations:      c.m.Invalidations.Load(),
		EpochInvalidations: c.m.EpochInvalidations.Load(),
		Revalidations:      c.m.Revalidations.Load(),
		Evictions:          c.m.Evictions.Load(),
		Entries:            entries,
		Capacity:           c.cap,
		HitNanos:           c.m.HitNanos.Snapshot(),
	}, nil
}

// QueryStamped evaluates expr at the current tick and stamps the answer
// with its validity interval [now, texp(e)), both from one evaluation pass.
// With a non-empty cache key —
// the normalized plan string — a cached materialisation still inside its
// window and untouched by base-table writes is served instead, with zero
// re-evaluation (the hot path is one map probe, an epoch compare per table
// and an O(1) shared snapshot). A key of "" stamps without caching, so every
// result carries its validity whether or not it is cacheable.
func (e *Engine) QueryStamped(expr algebra.Expr, key string, tid trace.ID) (QueryResult, error) {
	if tid == 0 {
		tid = trace.NextID()
	}
	c := e.cache.Load()
	if c != nil && key != "" {
		if res, ok := e.cacheServe(c, key, tid); ok {
			return res, nil
		}
	}

	// Closure-free lock plan: a stack-backed slice, linear dedup and an
	// insertion sort keep the uncached read path (point lookups through an
	// index in particular) free of lock-bookkeeping allocations.
	var relArr [4]*relation.Relation
	rels := collectBases(expr, relArr[:0])
	sortByLockOrder(rels)
	rlockRels(rels)
	e.mu.RLock()
	now := e.now
	e.mu.RUnlock()
	ev, err := algebra.Evaluate(expr, now)
	if err != nil {
		runlockRels(rels)
		return QueryResult{}, err
	}
	rel, texp := ev.Rel, ev.Texp
	res := QueryResult{
		Rel:      rel,
		At:       now,
		Validity: interval.Validity{At: now, ValidUntil: texp},
	}
	if c == nil || key == "" {
		runlockRels(rels)
		return res, nil
	}
	// Capture the base tables' write epochs while their read locks are
	// still held: no write can have slipped between the rows we evaluated
	// and the epochs we record, so an epoch match at lookup time proves
	// the cached rows are the rows a re-evaluation would produce.
	tables := leafTables(expr, nil)
	e.mu.RLock()
	for i := range tables {
		tables[i].epoch = e.epochs[tables[i].name]
	}
	e.mu.RUnlock()
	runlockRels(rels)

	c.m.Misses.Inc()
	e.events.Emit(trace.Event{Trace: tid, Kind: trace.EvCacheMiss, Tick: now, Texp: texp})
	// Hand the caller a shared snapshot, not the stored relation itself:
	// the store is immutable from here on, and a caller mutating its
	// result copies-on-write instead of corrupting the cache. Taken before
	// the entry is published: afterwards only cacheServe, under the cache
	// lock, may snapshot the stored relation (a snapshot marks its source).
	res.Rel = rel.SnapshotShared(now)
	e.cacheStore(c, key, rel, now, texp, tables)
	return res, nil
}

// What freshness finds an entry to be, as CacheProbe prints it.
const (
	cacheHit        = "hit"
	cacheExpired    = "expired"
	cacheEpochStale = "epoch-stale"
)

// freshness is the one test of whether en is the answer a re-evaluation at
// the current tick would give: the clock is inside [at, validUntil) and, per
// table, the write epoch is the one en was evaluated under or no tuple
// written since is selected by a leaf of the plan (revalidated). With adopt,
// a revalidated entry takes the current epochs, so each entry × write pair
// is tested once. The caller holds c.mu. Clock, epochs and tails are read
// under the engine leaf lock — a writer moves them in the critical section
// that mutates the table, so data and history are seen to move together —
// which up to writeTailLen Holds calls per moved table and leaf prolong.
func (e *Engine) freshness(en *cacheEntry, adopt bool) (state string, now xtime.Time, revalidated bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	now = e.now
	if now < en.at || now >= en.validUntil {
		return cacheExpired, now, false
	}
	for i := range en.tables {
		lt := &en.tables[i]
		if e.epochs[lt.name] == lt.epoch {
			continue
		}
		if !e.tails[lt.name].unseenBy(lt) {
			return cacheEpochStale, now, false
		}
		revalidated = true
	}
	if revalidated && adopt {
		for i := range en.tables {
			en.tables[i].epoch = e.epochs[en.tables[i].name]
		}
	}
	return cacheHit, now, revalidated
}

// cacheServe answers key from the cache if a fresh entry exists. Stale
// entries found on the way — window expired, or a write changed a tuple the
// plan selects — are dropped eagerly. The hit path performs exactly one
// allocation (the shared snapshot header), which BenchmarkCacheHit pins in CI.
func (e *Engine) cacheServe(c *resultCache, key string, tid trace.ID) (QueryResult, bool) {
	start := time.Now()
	c.mu.Lock()
	en, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return QueryResult{}, false
	}
	state, now, revalidated := e.freshness(en, true)
	if state != cacheHit {
		c.drop(en)
		c.mu.Unlock()
		if state == cacheExpired {
			c.m.Invalidations.Inc()
		} else {
			c.m.EpochInvalidations.Inc()
		}
		return QueryResult{}, false
	}
	c.touch(en)
	snap := en.rel.SnapshotShared(now)
	c.mu.Unlock()
	c.m.Hits.Inc()
	if revalidated {
		c.m.Revalidations.Inc()
	}
	c.m.HitNanos.Observe(time.Since(start).Nanoseconds())
	e.events.Emit(trace.Event{Trace: tid, Kind: trace.EvCacheHit, Tick: now, Texp: en.validUntil})
	return QueryResult{
		Rel:      snap,
		At:       now,
		Validity: interval.Validity{At: en.at, ValidUntil: en.validUntil},
		Cached:   true,
	}, true
}

// cacheStore inserts (or replaces) the entry for key, schedules its
// expiry on the cache pq, and evicts from the LRU tail past capacity.
// Results whose window is already empty are not worth storing.
func (e *Engine) cacheStore(c *resultCache, key string, rel *relation.Relation, at, validUntil xtime.Time, tables []leafTable) {
	if validUntil <= at {
		return
	}
	en := &cacheEntry{key: key, rel: rel, at: at, validUntil: validUntil, tables: tables}
	c.mu.Lock()
	if old, ok := c.entries[key]; ok {
		c.unlink(old)
	}
	c.entries[key] = en
	c.pushFront(en)
	if validUntil != xtime.Infinity {
		c.pq.Push(validUntil, key)
	}
	var evicted int64
	for len(c.entries) > c.cap && c.tail != nil {
		c.drop(c.tail)
		evicted++
	}
	c.mu.Unlock()
	if evicted > 0 {
		c.m.Evictions.Add(evicted)
	}
}

// cacheExpire drops every entry whose ValidUntil the clock has reached.
// It runs inside the Advance pipeline — the same heartbeat that expires
// tuples — after the clock has moved, so an entry is never servable at or
// past its ValidUntil whether the lookup or the drain gets there first
// (lookups re-check the window themselves).
func (e *Engine) cacheExpire(to xtime.Time, tid trace.ID) {
	c := e.cache.Load()
	if c == nil {
		return
	}
	c.mu.Lock()
	var n int64
	for _, it := range c.pq.PopDue(to) {
		// Stale pq items — the entry was replaced (its live successor has
		// a later window and its own pq item) or evicted — are skipped.
		if en, ok := c.entries[it.Value]; ok && en.validUntil <= to {
			c.drop(en)
			n++
		}
	}
	c.mu.Unlock()
	if n > 0 {
		c.m.Invalidations.Add(n)
		e.events.Emit(trace.Event{
			Trace: tid, Kind: trace.EvCacheInvalidate, Tick: to, Count: n,
		})
	}
}

// CacheProbe reports, without serving the entry, adopting an epoch or
// touching LRU order, how the result cache would answer the plan key right
// now: "hit", "cold", "expired", "epoch-stale" or "disabled" — by the test
// cacheServe applies, so EXPLAIN ANALYZE reports what a SELECT would get.
func (e *Engine) CacheProbe(key string) string {
	c := e.cache.Load()
	if c == nil {
		return "disabled"
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	en, ok := c.entries[key]
	if !ok {
		return "cold"
	}
	state, _, _ := e.freshness(en, false)
	return state
}
