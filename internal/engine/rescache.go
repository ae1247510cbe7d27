package engine

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"expdb/internal/algebra"
	"expdb/internal/catalog"
	"expdb/internal/interval"
	"expdb/internal/metrics"
	"expdb/internal/pqueue"
	"expdb/internal/relation"
	"expdb/internal/trace"
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

// cacheEntry is one cached materialisation. tables/epochs record, per
// base relation the plan reads, the table's write epoch at evaluation
// time: a lookup only serves the entry while every epoch still matches,
// so a base-table write invalidates instantly with no tracking structure
// on the write path beyond one counter bump.
type cacheEntry struct {
	key        string
	rel        *relation.Relation
	at         xtime.Time
	validUntil xtime.Time
	tables     []string
	epochs     []uint64
	prev, next *cacheEntry // LRU list, head = most recently used
}

// resultCacheMetrics are the cache's atomic hot-path counters.
type resultCacheMetrics struct {
	Hits               metrics.Counter
	Misses             metrics.Counter
	Invalidations      metrics.Counter // clock reached ValidUntil
	EpochInvalidations metrics.Counter // base-table write detected at lookup
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
// Lock hierarchy: mu nests above Engine.mu (a lookup reads the clock and
// the epoch table while holding it) and is never taken while any table or
// view lock is held. The pq may hold stale keys — entries replaced or
// LRU-evicted since their push — which the drain tolerates by re-checking
// the live entry's validUntil; a stale pq item costs one map probe.
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
// re-evaluation (the hot path is one map probe, two epoch compares and an
// O(1) shared snapshot). A key of "" stamps without caching, so every
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
	tables := baseNames(expr)
	epochs := make([]uint64, len(tables))
	e.mu.RLock()
	for i, t := range tables {
		epochs[i] = e.epochs[t]
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
	e.cacheStore(c, key, rel, now, texp, tables, epochs)
	return res, nil
}

// cacheServe answers key from the cache if a fresh entry exists. Stale
// entries found on the way — window expired or base epochs moved — are
// dropped eagerly. The hit path performs exactly one allocation (the
// shared snapshot header), which BenchmarkCacheHit pins in CI.
func (e *Engine) cacheServe(c *resultCache, key string, tid trace.ID) (QueryResult, bool) {
	start := time.Now()
	c.mu.Lock()
	en, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return QueryResult{}, false
	}
	// Clock and epochs under the engine leaf lock: a writer bumps the
	// epoch in the same critical section that mutates the table, so this
	// read sees data and epoch move together — never a fresh epoch over
	// stale rows.
	e.mu.RLock()
	now := e.now
	fresh := now >= en.at && now < en.validUntil
	stale := !fresh
	if fresh {
		for i, t := range en.tables {
			if e.epochs[t] != en.epochs[i] {
				fresh = false
				break
			}
		}
	}
	e.mu.RUnlock()
	if !fresh {
		c.drop(en)
		c.mu.Unlock()
		if stale {
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
func (e *Engine) cacheStore(c *resultCache, key string, rel *relation.Relation, at, validUntil xtime.Time, tables []string, epochs []uint64) {
	if validUntil <= at {
		return
	}
	en := &cacheEntry{
		key: key, rel: rel, at: at, validUntil: validUntil,
		tables: tables, epochs: epochs,
	}
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

// CacheProbe reports, without serving the entry or touching LRU order,
// how the result cache would answer the plan key right now: "hit",
// "cold", "expired", "epoch-stale" or "disabled". EXPLAIN ANALYZE uses it
// to report cache state while still executing the plan for actuals.
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
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.now < en.at || e.now >= en.validUntil {
		return "expired"
	}
	for i, t := range en.tables {
		if e.epochs[t] != en.epochs[i] {
			return "epoch-stale"
		}
	}
	return "hit"
}

// baseNames returns the distinct catalog names of the base relations expr
// reads, sorted for deterministic epoch vectors.
func baseNames(expr algebra.Expr) []string {
	seen := make(map[string]bool)
	var names []string
	algebra.Walk(expr, func(x algebra.Expr) {
		if b, ok := x.(*algebra.Base); ok && !seen[b.Name] {
			seen[b.Name] = true
			names = append(names, b.Name)
		}
	})
	sort.Strings(names)
	return names
}
