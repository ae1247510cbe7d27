package engine

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"expdb/internal/algebra"
	"expdb/internal/catalog"
	"expdb/internal/index"
	"expdb/internal/interval"
	"expdb/internal/metrics"
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
// was answered from a cache entry, as stored, revalidated or patched.
type QueryResult struct {
	Rel      *relation.Relation
	At       xtime.Time
	Validity interval.Validity
	Cached   bool
}

// cacheEntry is one cached materialisation, kept without births: it is
// dropped at its Texp. tables records, per base relation the plan reads, the
// write epoch the rows were evaluated under and what the plan's leaves
// select from it: what freshness tests. mono records that the plan is
// monotonic (Theorem 1): rows a selected write adds merge into the answer,
// and rows a DELETE takes are tested to derive nothing (patch).
type cacheEntry struct {
	key        string
	ev         algebra.Evaluation
	tables     []leafTable
	mono       bool
	prev, next *cacheEntry // LRU list, head = most recently used
}

// served is the answer en gives at now, stamped with its validity.
func (en *cacheEntry) served(now xtime.Time) QueryResult {
	rel, _ := en.ev.Serve(now)
	return QueryResult{Rel: rel, At: now, Validity: en.ev.Validity(), Cached: true}
}

// leafTable is what a plan reads of one base table: every leaf over the
// table is σ[p](table) — an IndexScan is the selection it replaced, a bare
// table is σ[TRUE] — and preds holds each leaf's p in the order the plan's
// Children walk meets them, schema the table's. A tuple a leaf in
// preds[:rigid] selects can only be answered by re-evaluation; one that only
// leaves in preds[rigid:] select is a Δ the entry absorbs (unseen).
type leafTable struct {
	name   string
	epoch  uint64
	preds  []algebra.Predicate
	schema tuple.Schema
	rigid  int
}

// leafTables lists the base tables expr reads, each with the predicates
// directly over its leaves, those of rigid leaves first; tabs is appended to
// and returned.
func leafTables(expr algebra.Expr, tabs []leafTable, rigid bool) []leafTable {
	var leaf *algebra.Base
	var pred algebra.Predicate = algebra.True{}
	switch x := expr.(type) {
	case *algebra.Base:
		leaf = x
	case *algebra.IndexScan:
		leaf, pred = x.Base, x.Full
	case *algebra.Select:
		if b, ok := x.Child.(*algebra.Base); ok {
			leaf, pred = b, x.Pred
		}
	}
	if leaf == nil {
		for _, k := range expr.Children() {
			tabs = leafTables(k, tabs, rigid)
		}
		return tabs
	}
	i := 0
	for i < len(tabs) && tabs[i].name != leaf.Name {
		i++
	}
	if i == len(tabs) {
		tabs = append(tabs, leafTable{name: leaf.Name, schema: leaf.Schema()})
	}
	tabs[i].preds = append(tabs[i].preds, pred)
	if rigid {
		tabs[i].rigid = len(tabs[i].preds)
	}
	return tabs
}

// planTables is leafTables for a plan about to be cached. A monotonic plan
// has no rigid leaf: its answer only grows with its inputs. A root A − B over
// monotonic arguments changes only through tuples of A (Table 2, (11)), so
// A's leaves are rigid; so is every leaf of any other plan.
func planTables(expr algebra.Expr) []leafTable {
	if d, ok := expr.(*algebra.Diff); ok && algebra.HasFuture(d) {
		return leafTables(d.Right, leafTables(d.Left, nil, true), false)
	}
	return leafTables(expr, nil, !expr.Monotonic())
}

// leafVariants calls fn with E[leaf := delta] once per leaf of expr over the
// named table: that one leaf replaced, every other leaf as it is. An
// IndexScan leaf becomes σ[Full](delta), the selection it replaced, so its
// probe never runs against delta. A join rebuilt around delta builds its hash
// table on delta's side — a write tail's worth of rows at most — and streams
// the other side as the probe, which a σ over an array-backed table scans for
// delta's join keys only; its output is left ++ right either way. A variant
// copies only the nodes on the path from the root to its leaf, once each.
func leafVariants(expr algebra.Expr, name string, delta *algebra.Base, fn func(algebra.Expr) error) error {
	var path [8]ancestor
	return variants(expr, name, delta, path[:0], fn)
}

// ancestor is a node above the leaf a variant replaces: its children and the
// one on the way down to the leaf.
type ancestor struct {
	node algebra.Expr
	kids []algebra.Expr
	i    int
}

// variants is leafVariants below path, the ancestors of expr, root first.
func variants(expr algebra.Expr, name string, delta *algebra.Base, path []ancestor, fn func(algebra.Expr) error) error {
	var v algebra.Expr
	switch x := expr.(type) {
	case *algebra.Base:
		if x.Name != name {
			return nil
		}
		v = delta
	case *algebra.IndexScan:
		if x.Base.Name != name {
			return nil
		}
		v = &algebra.Select{Pred: x.Full, Child: delta}
	default:
		kids := expr.Children()
		for i := range kids {
			if err := variants(kids[i], name, delta, append(path, ancestor{expr, kids, i}), fn); err != nil {
				return err
			}
		}
		return nil
	}
	for k := len(path) - 1; k >= 0; k-- {
		a := &path[k]
		var with [2]algebra.Expr
		n := copy(with[:], a.kids)
		with[a.i] = v
		x, err := algebra.ReplaceChildren(a.node, with[:n])
		if err != nil {
			return err
		}
		if j, ok := x.(*algebra.Join); ok {
			j.BuildLeft = a.i == 0
		}
		v = x
	}
	return fn(v)
}

// A table remembers its last writeTailLen written tuples: an entry that
// sleeps through more writes to one of its tables (an overrun) is
// re-evaluated. 512 rows reach back past the gaps the entries of a
// read-heavy workload sleep through, and bound what freshness walks under
// the cache and engine locks to a few µs, for 24 KB a table. DDL and writes
// while the cache is off discard the tail. A power of two, so a slot is a
// sequence number masked by a constant.
const writeTailLen = 512

// writeTail is a base table's recent write history, kept beside its epoch
// under Engine.mu: the rows its last writes changed — the stored (immutable,
// hence shared) tuple of an insert or a lifetime extension with the texp it
// now has, each row a DELETE removed — each with the epoch the write moved
// the table to.
type writeTail struct {
	// floor is the latest epoch some of whose rows the ring no longer
	// holds: only an entry evaluated at floor or later can be checked.
	// start is the floor the tail began with: an entry below it predates
	// the tail, which it could never have reached.
	floor, start uint64
	n            uint64 // rows ever recorded; ring[n%writeTailLen] is overwritten next
	ring         [writeTailLen]tailRec
}

// tailRec is one written row, del marking one a DELETE removed.
type tailRec struct {
	epoch uint64
	row   relation.Row
	del   bool
}

// wrote is the only place a table's write epoch moves, so no write can move
// it without saying what it changed: row is the stored row of an insert or
// an extension or, with del, a row a DELETE removed — more marks a further
// row of the same DELETE, which shares its epoch — and the zero Row for
// CREATE / DROP TABLE. The caller holds e.mu, inside the critical section
// that applies the mutation. DDL, and any write while the cache is off,
// leaves the table without a tail — nothing older can then be vouched for;
// the next recorded write starts one whose floor is the epoch before it.
func (e *Engine) wrote(table string, row relation.Row, del, more bool) {
	if !more {
		e.epochs[table]++
	}
	if row.Tuple == nil || e.cache.Load() == nil {
		delete(e.tails, table)
		return
	}
	epoch := e.epochs[table]
	w := e.tails[table]
	if w == nil {
		w = &writeTail{floor: epoch - 1, start: epoch - 1}
		e.tails[table] = w
	}
	rec := &w.ring[w.n%writeTailLen]
	if w.n >= writeTailLen {
		// A DELETE's rows share an epoch: losing one loses the whole write.
		w.floor = rec.epoch
	}
	*rec = tailRec{epoch: epoch, row: row, del: del}
	w.n++
}

// stale counts an entry a write dropped, and over one a tail no longer
// reached back for.
func (c *resultCache) stale(over bool) {
	c.m.EpochInvalidations.Inc()
	if over {
		c.m.TailOverruns.Inc()
	}
}

// unseen is the one walk of the tails of en's tables since the epochs en was
// evaluated under; the caller holds e.mu, and moved reports a write since. A
// row no leaf selects changed nothing the plan reads (σ_p(R ∪ {r}) = σ_p(R) =
// σ_p(R − {r}) whenever ¬p(r)); each one a leaf selects goes to fn as Δ of
// lt's table, del marking a row a DELETE removed, and no Δ is a revalidation.
// ok is false when en cannot absorb Δ: a tail does not reach back to
// lt.epoch, a tuple does not fit the schema (the name was re-created under the
// plan), a rigid leaf selects one, or lost rows reach two leaves outside the
// rigid ones. patch tests each lost row through one leaf at a time, the other
// leaves reading their tables without it, so a derivation that used two lost
// rows — a self-join pairing a row with itself, a join losing both sides —
// would go unseen. over reports that ok is false because a tail no longer
// holds writes it once held; a tail that began after lt.epoch (DDL or a
// write with the cache off discarded the last one) is no overrun.
func (e *Engine) unseen(en *cacheEntry, fn func(lt *leafTable, row relation.Row, del bool)) (moved, ok, over bool) {
	reach := 0
	for i := range en.tables {
		lt := &en.tables[i]
		if e.epochs[lt.name] == lt.epoch {
			continue
		}
		w, del := e.tails[lt.name], false
		if w == nil {
			return true, false, false
		}
		if lt.epoch < w.floor {
			return true, false, lt.epoch >= w.start
		}
		for j := w.n; j > 0 && j+writeTailLen > w.n; j-- {
			rec := &w.ring[(j-1)%writeTailLen]
			if rec.epoch <= lt.epoch {
				break
			}
			if len(rec.row.Tuple) != lt.schema.Arity() {
				return true, false, false
			}
			for k, p := range lt.preds {
				if p.Holds(rec.row.Tuple) {
					if k < lt.rigid {
						return true, false, false
					}
					del = del || rec.del
					fn(lt, rec.row, rec.del)
					break
				}
			}
		}
		if del {
			reach += len(lt.preds) - lt.rigid
		}
		moved = true
	}
	return moved, reach <= 1, false
}

// resultCacheMetrics are the cache's atomic hot-path counters.
type resultCacheMetrics struct {
	Hits               metrics.Counter // served from an entry: as stored, revalidated or patched
	Misses             metrics.Counter // evaluated in full
	Invalidations      metrics.Counter // clock reached Texp
	EpochInvalidations metrics.Counter // a write the entry could not absorb, or one that outran the tail
	TailOverruns       metrics.Counter // those of EpochInvalidations a tail no longer reached back for
	Revalidations      metrics.Counter // hits that outlived ≥ 1 write to a table they read, none selected
	Patches            metrics.Counter // hits that absorbed the selected writes since (patch)
	Evictions          metrics.Counter // LRU capacity pressure
	HitNanos           metrics.Histogram
}

// resultCache is the validity-interval result cache: normalized-plan key
// → materialisation valid on [At, Texp). Entries are dropped three
// ways: the Advance pipeline drains from pq the entries whose Texp
// the clock has reached (the same heartbeat that expires tuples), lookups
// discard entries a write left stale and they cannot absorb, and LRU
// eviction bounds the entry count.
//
// Lock hierarchy: mu nests above Engine.mu (a lookup reads the clock, the
// epoch table and the write tails while holding it) and is never taken while
// any table or view lock is held. pq is a table's kind of texp heap over
// (plan key, Texp) pairs: a pair counts only while its key's entry
// still has that Texp, and the stale ones — an entry replaced,
// patched, dropped or evicted since — are rebuilt away as a table's are.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	head    *cacheEntry
	tail    *cacheEntry
	pq      *index.TexpHeap
	m       resultCacheMetrics
}

func newResultCache(size int) *resultCache {
	if size <= 0 {
		return nil
	}
	return &resultCache{
		cap:     size,
		entries: make(map[string]*cacheEntry, size),
		pq:      index.NewTexpHeap(),
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

// drop removes en from both the map and the list. Its pq pair, if still
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
	TailOverruns       int64                     `json:"tail_overruns"`
	Revalidations      int64                     `json:"revalidations"`
	Patches            int64                     `json:"patches"`
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
		TailOverruns:       c.m.TailOverruns.Load(),
		Revalidations:      c.m.Revalidations.Load(),
		Patches:            c.m.Patches.Load(),
		Evictions:          c.m.Evictions.Load(),
		Entries:            entries,
		Capacity:           c.cap,
		HitNanos:           c.m.HitNanos.Snapshot(),
	}, nil
}

// QueryStamped is QueryPlan for a plan already made.
func (e *Engine) QueryStamped(expr algebra.Expr, key string, tid trace.ID) (QueryResult, error) {
	return e.QueryPlan(key, tid, func() algebra.Expr { return expr })
}

// QueryPlan evaluates the expression plan returns at the current tick and
// stamps the answer with its validity interval [now, texp(e)), both from one
// evaluation pass. With a non-empty cache key — the normalized logical plan
// string — a cached materialisation still inside its window is served
// instead: as stored or revalidated (one map probe, an epoch compare per
// table, an O(1) shared snapshot), or patched under the plan's table read
// locks (patch). A key of "" stamps without caching, so every result still
// carries its validity. The key names the answer, not the physical plan, so a
// hit never calls plan: it is called once, only to evaluate or to patch,
// outside the cache lock and before any table lock is taken, so it may read
// the catalog and the tables' cardinalities.
func (e *Engine) QueryPlan(key string, tid trace.ID, plan func() algebra.Expr) (QueryResult, error) {
	if tid == 0 {
		tid = trace.NextID()
	}
	c := e.cache.Load()
	var src *cacheEntry
	if c != nil && key != "" {
		var res QueryResult
		var ok bool
		if res, src, ok = e.cacheServe(c, key, tid); ok {
			return res, nil
		}
	}
	expr := plan()

	// Closure-free lock plan: a stack-backed slice, linear dedup and an
	// insertion sort keep the uncached read path (point lookups through an
	// index in particular) free of lock-bookkeeping allocations.
	var relArr [4]*relation.Relation
	rels := algebra.LockPlan(expr, relArr[:0])
	rlockRels(rels)
	e.mu.RLock()
	now := e.now
	e.mu.RUnlock()
	if src != nil {
		if !src.ev.Holds(now) { // the clock reached Texp since the lookup
			c.m.Invalidations.Inc()
		} else if ok, over := e.patch(expr, src, now); !ok {
			c.stale(over)
		} else {
			runlockRels(rels)
			c.m.Hits.Inc()
			c.m.Patches.Inc()
			e.events.Emit(trace.Event{Trace: tid, Kind: trace.EvCacheHit, Tick: now, Texp: src.ev.Texp})
			res := src.served(now)
			e.cacheStore(c, src)
			return res, nil
		}
	}
	ev, err := algebra.Evaluate(expr, now)
	if err != nil {
		runlockRels(rels)
		return QueryResult{}, err
	}
	if c == nil || key == "" {
		runlockRels(rels)
		return QueryResult{Rel: ev.Rel, At: now, Validity: ev.Validity()}, nil
	}
	// Capture the base tables' write epochs while their read locks are
	// still held: no write can have slipped between the rows we evaluated
	// and the epochs we record, so an epoch match at lookup time proves
	// the cached rows are the rows a re-evaluation would produce.
	tables := planTables(expr)
	e.mu.RLock()
	for i := range tables {
		tables[i].epoch = e.epochs[tables[i].name]
	}
	e.mu.RUnlock()
	runlockRels(rels)

	c.m.Misses.Inc()
	e.events.Emit(trace.Event{Trace: tid, Kind: trace.EvCacheMiss, Tick: now, Texp: ev.Texp})
	// Hand the caller a shared snapshot, not the stored relation itself:
	// the store is immutable from here on, and a caller mutating its
	// result copies-on-write instead of corrupting the cache. Taken before
	// the entry is published: afterwards only cacheServe, under the cache
	// lock, may snapshot the stored relation (a snapshot marks its source).
	en := &cacheEntry{key: key, ev: ev, tables: tables, mono: expr.Monotonic()}
	res := en.served(now)
	res.Cached = false
	e.cacheStore(c, en)
	return res, nil
}

// patch brings src — a private copy of a patchable entry, rel a snapshot of
// its rows — up to the writes since, or reports that only a full evaluation
// will do. The caller holds the read locks of expr's tables, so the Δ read
// off the tails under Engine.mu is all those tables gained and lost.
//
// A Δ is streamed as E[leaf := Δ], once per leaf over its table, every other
// leaf as it is now: Δ⋈B ∪ A⋈Δ ∪ Δ⋈Δ for a self-join. Under a monotonic root
// the rows a table gained are sorted and merged with rel by max into a new
// store in tuple order (relation.Merge), as ∪ and π merge duplicates: no
// answer is written once published. Lost rows are tested, never merged: a
// lost row must derive nothing that the entry shows at now. A derivation
// through a lost row alive at some τ ≥ now has its other inputs alive and
// present now (unseen refuses a second lost input), so E[leaf := Δlost] at
// now emits it. Under a monotonic root that stream must be empty; for a root
// A − B, B[leaf := Δ], gained rows included, must meet nothing in A(now): A
// only shrinks, so a tuple it lacks now is never shown or critical again.
// Either way at moves to now: a write may have changed the answer before the
// read.
func (e *Engine) patch(expr algebra.Expr, src *cacheEntry, now xtime.Time) (ok, over bool) {
	root := expr
	// Where E[leaf := Δ] goes: a monotonic root's rows gained, a root A − B's
	// B[leaf := Δ]. One variable, which the stream's closure moves to the
	// heap, room for a few rows gained included.
	var out struct {
		gained []relation.Row
		buf    [4]relation.Row
		into   *relation.Relation
	}
	out.gained = out.buf[:0]
	diff, _ := expr.(*algebra.Diff)
	if !src.mono {
		if diff == nil {
			return false, false
		}
		root, out.into = diff.Right, relation.New(diff.Right.Schema())
	}
	// One Δ per written table (unseen walks its rows together) for the rows
	// streamed into out, and one for a monotonic root's lost rows.
	var deltas, lost []*algebra.Base
	e.mu.RLock()
	_, ok, over = e.unseen(src, func(lt *leafTable, row relation.Row, del bool) {
		ds := &deltas
		if del && src.mono {
			ds = &lost
		}
		if n := len(*ds); n == 0 || (*ds)[n-1].Name != lt.name {
			*ds = append(*ds, algebra.NewBase(lt.name, relation.New(lt.schema)))
		}
		if d := (*ds)[len(*ds)-1].Rel; d.Len() == 0 {
			d.AppendDistinct(row) // a first row meets no other: no key set yet
		} else {
			d.InsertOwnedRow(row)
		}
	})
	for i := range src.tables {
		src.tables[i].epoch = e.epochs[src.tables[i].name]
	}
	e.mu.RUnlock()
	if !ok {
		return false, over
	}
	for _, d := range lost {
		derives := false
		if leafVariants(root, d.Name, d, func(x algebra.Expr) error {
			_, err := x.Stream(now, func(relation.Row) { derives = true })
			return err
		}) != nil || derives {
			return false, false
		}
	}
	for _, d := range deltas {
		if leafVariants(root, d.Name, d, func(x algebra.Expr) error {
			_, err := x.Stream(now, func(row relation.Row) {
				if out.into != nil {
					out.into.InsertOwnedRow(row)
				} else {
					out.gained = append(out.gained, row)
				}
			})
			return err
		}) != nil {
			return false, false
		}
	}
	if len(out.gained) > 0 {
		slices.SortFunc(out.gained, func(a, b relation.Row) int { return a.Tuple.Compare(b.Tuple) })
		src.ev.Rel = src.ev.Rel.Merge(now, out.gained)
	}
	if into := out.into; into != nil && into.Len() > 0 {
		clash := false
		_, err := diff.Left.Stream(now, func(row relation.Row) {
			clash = clash || into.Contains(row.Tuple, now)
		})
		if err != nil || clash {
			return false, false
		}
	}
	src.ev.At = now
	return true, false
}

// What freshness finds an entry to be, as CacheProbe prints it.
const (
	cacheHit        = "hit"
	cacheExpired    = "expired"
	cacheEpochStale = "epoch-stale"
	cachePatch      = "patch"
)

// freshness is the one test of whether en is the answer a re-evaluation at
// the current tick would give: the clock is inside [At, Texp) and the
// writes since en was evaluated hand the plan no Δ (revalidated, if there
// were any) — or a patch away, when en can absorb every Δ. With adopt, a
// revalidated entry takes the current epochs, so each entry × write pair is
// tested once. The caller holds c.mu. Clock, epochs and tails are read under
// the engine leaf lock — a writer moves them in the critical section that
// mutates the table, so data and history are seen to move together — which
// up to writeTailLen Holds calls per moved table and leaf prolong, a few µs.
// over marks an epoch-stale entry a tail overran.
func (e *Engine) freshness(en *cacheEntry, adopt bool) (state string, now xtime.Time, revalidated, over bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	now = e.now
	if !en.ev.Holds(now) {
		return cacheExpired, now, false, false
	}
	absorb := false
	moved, ok, over := e.unseen(en, func(*leafTable, relation.Row, bool) { absorb = true })
	switch {
	case !ok:
		return cacheEpochStale, now, false, over
	case absorb:
		return cachePatch, now, false, false
	case moved && adopt:
		for i := range en.tables {
			en.tables[i].epoch = e.epochs[en.tables[i].name]
		}
	}
	return cacheHit, now, moved, false
}

// cacheServe answers key from the cache if a fresh entry exists. Stale
// entries found on the way — window expired, or a write the plan selects and
// cannot absorb — are dropped eagerly; a patchable one is handed back as a
// private copy src, rel snapshotted here (a published relation is only
// snapshotted under cache.mu). The hit path performs exactly one allocation
// (the shared snapshot header), which BenchmarkCacheHit pins in CI.
func (e *Engine) cacheServe(c *resultCache, key string, tid trace.ID) (res QueryResult, src *cacheEntry, ok bool) {
	start := time.Now()
	c.mu.Lock()
	en, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return QueryResult{}, nil, false
	}
	state, now, revalidated, over := e.freshness(en, true)
	if state == cachePatch {
		src = &cacheEntry{key: key, ev: en.ev, tables: slices.Clone(en.tables), mono: en.mono}
		src.ev.Rel = en.ev.Rel.SnapshotShared(now)
		c.mu.Unlock()
		return QueryResult{}, src, false
	}
	if state != cacheHit {
		c.drop(en)
		c.mu.Unlock()
		if state == cacheExpired {
			c.m.Invalidations.Inc()
		} else {
			c.stale(over)
		}
		return QueryResult{}, nil, false
	}
	c.touch(en)
	res = en.served(now)
	c.mu.Unlock()
	c.m.Hits.Inc()
	if revalidated {
		c.m.Revalidations.Inc()
	}
	c.m.HitNanos.Observe(time.Since(start).Nanoseconds())
	e.events.Emit(trace.Event{Trace: tid, Kind: trace.EvCacheHit, Tick: now, Texp: en.ev.Texp})
	return res, nil, true
}

// cacheStore inserts (or replaces) the entry for en.key, schedules its
// expiry on the cache pq, and evicts from the LRU tail past capacity.
// Results whose window is already empty are not worth storing.
func (e *Engine) cacheStore(c *resultCache, en *cacheEntry) {
	if !en.ev.Holds(en.ev.At) {
		return
	}
	c.mu.Lock()
	if old, ok := c.entries[en.key]; ok {
		c.unlink(old)
	}
	c.entries[en.key] = en
	c.pushFront(en)
	if c.pq.Push(en.key, en.ev.Texp); c.pq.Bloated(len(c.entries)) {
		c.pq.Compact(c.current)
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

// current is the pq's staleness oracle: the Texp of key's entry, if any.
func (c *resultCache) current(key string) (xtime.Time, bool) {
	en, ok := c.entries[key]
	if !ok {
		return 0, false
	}
	return en.ev.Texp, true
}

// cacheExpire drops every entry whose Texp the clock has reached.
// It runs inside the Advance pipeline — the same heartbeat that expires
// tuples — after the clock has moved, so an entry is never servable at or
// past its Texp whether the lookup or the drain gets there first
// (lookups re-check the window themselves).
func (e *Engine) cacheExpire(to xtime.Time, tid trace.ID) {
	c := e.cache.Load()
	if c == nil {
		return
	}
	c.mu.Lock()
	n := int64(c.pq.PopDue(to, c.current, func(key string, _ xtime.Time) { c.drop(c.entries[key]) }))
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
// now: "hit", "patch", "cold", "expired", "epoch-stale" or "disabled" — by
// the test cacheServe applies, so EXPLAIN ANALYZE reports what a SELECT would
// get; "patch" runs none of patch's tests: of lost rows, nor of a
// difference's right-side Δ against A(now).
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
	state, _, _, _ := e.freshness(en, false)
	return state
}
