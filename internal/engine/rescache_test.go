package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"expdb/internal/algebra"
	"expdb/internal/catalog"
	"expdb/internal/interval"
	"expdb/internal/relation"
	"expdb/internal/relation/reltest"
	"expdb/internal/trace"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/view"
	"expdb/internal/xtime"
)

// stamped runs expr through QueryStamped using its normalized plan string
// as the cache key, the way the SQL layer does.
func stamped(t *testing.T, e *Engine, expr algebra.Expr) QueryResult {
	t.Helper()
	key := algebra.PushDownSelections(expr).String()
	qr, err := e.QueryStamped(expr, key, 0)
	if err != nil {
		t.Fatal(err)
	}
	return qr
}

// histExpr builds SELECT Deg, COUNT(*) FROM pol GROUP BY Deg with the
// exact policy. Over the Figure 1 rows its materialisation at τ=0 is
// valid on [0, 10): partition Deg=25 changes value at tick 10, when
// (1,25) expires but (2,25) persists — a finite window, unlike a base
// scan whose expiration-aware snapshot never invalidates by itself.
func histExpr(t *testing.T, e *Engine) algebra.Expr {
	t.Helper()
	b, err := e.Base("pol")
	if err != nil {
		t.Fatal(err)
	}
	agg, err := algebra.GroupBy([]int{1}, []algebra.AggFunc{{Kind: algebra.AggCount, Col: -1}}, algebra.PolicyExact, b)
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// polExceptEl builds π[UID](pol) − π[UID](el). Over Figure 1 its answer at
// τ=0 is {3}, valid on [0, 3): uids 1 and 2 are critical, hidden by el rows
// that expire before their pol rows.
func polExceptEl(t *testing.T, e *Engine) algebra.Expr {
	t.Helper()
	uids := func(table string) algebra.Expr {
		b, err := e.Base(table)
		if err != nil {
			t.Fatal(err)
		}
		p, err := algebra.NewProject([]int{0}, b)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	d, err := algebra.NewDiff(uids("pol"), uids("el"))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func cacheStats(t *testing.T, e *Engine) ResultCacheMetrics {
	t.Helper()
	m, err := e.ResultCacheStats()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCacheHitServesWithoutReevaluation(t *testing.T) {
	e := newsEngine(t)
	b := histExpr(t, e)

	first := stamped(t, e, b)
	if first.Cached {
		t.Fatal("first read must be a miss")
	}
	if first.Validity.At != 0 || first.Validity.ValidUntil != 10 {
		t.Fatalf("validity = %v, want [0,10)", first.Validity)
	}
	second := stamped(t, e, b)
	if !second.Cached {
		t.Fatal("second read must be served from the cache")
	}
	if second.Validity != first.Validity {
		t.Fatalf("cached validity = %v, want %v", second.Validity, first.Validity)
	}
	if g, w := second.Rel.CountAt(second.At), first.Rel.CountAt(first.At); g != w {
		t.Fatalf("cached rows = %d, want %d", g, w)
	}
	m := cacheStats(t, e)
	if m.Hits != 1 || m.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", m.Hits, m.Misses)
	}
	if m.Entries != 1 {
		t.Fatalf("entries = %d, want 1", m.Entries)
	}
	if m.HitNanos.Count != 1 {
		t.Fatalf("hit latency observations = %d, want 1", m.HitNanos.Count)
	}
}

// The half-open window [At, ValidUntil): the entry must serve at
// ValidUntil-1 and must be re-evaluated exactly at ValidUntil.
func TestCacheBoundaryExactInvalidation(t *testing.T) {
	e := newsEngine(t)
	b := histExpr(t, e)

	if qr := stamped(t, e, b); qr.Validity.ValidUntil != 10 {
		t.Fatalf("ValidUntil = %v, want 10", qr.Validity.ValidUntil)
	}
	if err := e.Advance(9); err != nil {
		t.Fatal(err)
	}
	atNine := stamped(t, e, b)
	if !atNine.Cached {
		t.Fatal("read at ValidUntil-1 must still hit")
	}
	if atNine.At != 9 {
		t.Fatalf("At = %v, want 9", atNine.At)
	}
	if err := e.Advance(10); err != nil {
		t.Fatal(err)
	}
	atTen := stamped(t, e, b)
	if atTen.Cached {
		t.Fatal("read at ValidUntil must re-evaluate")
	}
	if g := atTen.Rel.CountAt(10); g != 1 {
		t.Fatalf("groups at 10 = %d, want 1 (only Deg=25 survives)", g)
	}
	if atTen.Validity.ValidUntil <= 10 {
		t.Fatalf("fresh ValidUntil = %v, want > 10", atTen.Validity.ValidUntil)
	}
	m := cacheStats(t, e)
	// The Advance-pipeline drain and the lookup re-check race benignly;
	// either way exactly one window invalidation is counted.
	if m.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", m.Invalidations)
	}
	if m.EpochInvalidations != 0 {
		t.Fatalf("epoch invalidations = %d, want 0", m.EpochInvalidations)
	}
}

// The Advance heartbeat drains due cache entries through the same texp
// heap type that expires tuples — before any lookup touches them.
func TestCacheAdvanceDrainsDueEntries(t *testing.T) {
	e := newsEngine(t)
	b := histExpr(t, e)
	stamped(t, e, b)
	if m := cacheStats(t, e); m.Entries != 1 {
		t.Fatalf("entries = %d, want 1", m.Entries)
	}
	if err := e.Advance(12); err != nil {
		t.Fatal(err)
	}
	m := cacheStats(t, e)
	if m.Entries != 0 {
		t.Fatalf("entries after advance past ValidUntil = %d, want 0", m.Entries)
	}
	if m.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", m.Invalidations)
	}
}

// An insert into the table of a monotonic plan is patched into its entry,
// restamped at the tick of the read; a delete of a row it shows drops it.
// lostRowCases are DELETEs such an entry tests before it drops.
func TestCacheEpochInvalidationOnWrite(t *testing.T) {
	e := newsEngine(t)
	b, _ := e.Base("pol")

	stamped(t, e, b)
	if err := e.Advance(2); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("pol", tuple.Ints(9, 99), 50); err != nil {
		t.Fatal(err)
	}
	qr := stamped(t, e, b)
	if !qr.Cached {
		t.Fatal("an insert into a monotonic plan's table must be patched into the entry")
	}
	if g := qr.Rel.CountAt(qr.At); g != 4 {
		t.Fatalf("rows = %d, want 4", g)
	}
	if texp, ok := qr.Rel.Texp(tuple.Ints(9, 99)); !ok || texp != 50 {
		t.Fatalf("patched row texp = %v, %v; want 50", texp, ok)
	}
	if qr.Validity.At != 2 {
		t.Fatalf("patched stamp %v: it must start at the read, not before the insert", qr.Validity)
	}
	if ok, err := e.Delete("pol", tuple.Ints(9, 99)); err != nil || !ok {
		t.Fatalf("delete = %v, %v", ok, err)
	}
	qr = stamped(t, e, b)
	if qr.Cached {
		t.Fatal("read after delete must not serve the stale entry")
	}
	if g := qr.Rel.CountAt(qr.At); g != 3 {
		t.Fatalf("rows = %d, want 3", g)
	}
	m := cacheStats(t, e)
	if m.EpochInvalidations != 1 || m.Patches != 1 || m.Hits != 1 || m.Misses != 2 {
		t.Fatalf("epoch invalidations/patches/hits/misses = %d/%d/%d/%d, want 1/1/1/2", m.EpochInvalidations, m.Patches, m.Hits, m.Misses)
	}
	if m.Invalidations != 0 {
		t.Fatalf("window invalidations = %d, want 0", m.Invalidations)
	}
	for _, lc := range lostRowCases {
		t.Run(lc.name, lc.run)
	}
}

// polJoinEl is σ[Deg ≥ 25](pol) ⋈[UID = UID] σ[Deg ≥ 70](el), a WHERE on
// each side. Over Figure 1 it pairs uids 1 and 2; pol's (3, 35) and el's
// (4, 90) are selected by their leaves and have no partner.
func polJoinEl(t *testing.T, e *Engine) algebra.Expr {
	t.Helper()
	el, _ := e.Base("el")
	right, err := algebra.NewSelect(algebra.ColConst{Col: 1, Op: algebra.OpGe, Const: value.Int(70)}, el)
	if err != nil {
		t.Fatal(err)
	}
	j, err := algebra.EquiJoin(degAtLeast(t, e, 25), 0, right, 0)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// lostRowCase is a write history after which a cached monotonic entry must
// test the rows DELETEs took from it: absorbed when none derives anything at
// the read, else dropped. run replays it on a cached and a cache-off engine
// and compares the read: rows, each row's texp and the stamp.
type lostRowCase struct {
	name     string
	lazy     bool
	query    func(*testing.T, *Engine) algebra.Expr
	writes   []string // "+table uid deg texp", "-table uid deg", "@tick"
	absorbed bool
}

var lostRowCases = []lostRowCase{
	{name: "no partner", query: polJoinEl, writes: []string{"-pol 3 35"}, absorbed: true},
	{name: "a partner", query: polJoinEl, writes: []string{"-pol 1 25"}},
	{name: "self-join", query: func(t *testing.T, e *Engine) algebra.Expr {
		j, err := algebra.EquiJoin(degAtLeast(t, e, 30), 0, degAtLeast(t, e, 20), 0)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}, writes: []string{"-pol 3 35"}},
	// Each lost row's partner is the other: one leaf at a time sees neither.
	{name: "both tables", query: polJoinEl, writes: []string{"-pol 2 25", "-el 2 85"}},
	// A DELETE never takes a row already expired. el's (1, 75) expired at 5,
	// unswept, so the row it pairs with derives nothing at 6; and a lost row
	// that expires before the read derives nothing at the read.
	{name: "partner expired unswept", lazy: true, query: polJoinEl, writes: []string{"@6", "-pol 1 25"}, absorbed: true},
	{name: "lost row expired by the read", lazy: true, query: polJoinEl, writes: []string{"@1", "-pol 2 25", "@15"}, absorbed: true},
	{name: "inserted and deleted", query: polJoinEl, writes: []string{"@1", "+pol 7 40 50", "-pol 7 40"}, absorbed: true},
	{name: "inserted and deleted with a partner", query: polJoinEl, writes: []string{"@1", "+pol 4 30 50", "-pol 4 30"}},
	// π[el's columns]: (1, 75) is derived through (1, 25) and (1, 30).
	{name: "projection merges a lost derivation", query: func(t *testing.T, e *Engine) algebra.Expr {
		p, err := algebra.NewProject([]int{2, 3}, polJoinEl(t, e))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}, writes: []string{"-pol 1 30"}},
}

func (lc lostRowCase) run(t *testing.T) {
	var reads [2]QueryResult
	var patches [2]int64
	for i, opts := range [][]Option{nil, {WithResultCache(0)}} {
		if lc.lazy {
			opts = append(opts, WithSweep(SweepLazy, 1<<20))
		}
		e := newsEngine(t, opts...) // Figure 1, and uid 1's second pol row
		if err := e.Insert("pol", tuple.Ints(1, 30), 20); err != nil {
			t.Fatal(err)
		}
		q := lc.query(t, e)
		stamped(t, e, q)
		for _, w := range lc.writes {
			var table string
			var uid, deg, texp int64
			var err error
			switch w[0] {
			case '@':
				_, err = fmt.Sscanf(w, "@%d", &texp)
				if err == nil {
					err = e.Advance(xtime.Time(texp))
				}
			case '+':
				_, err = fmt.Sscanf(w, "+%s %d %d %d", &table, &uid, &deg, &texp)
				if err == nil {
					err = e.Insert(table, tuple.Ints(uid, deg), xtime.Time(texp))
				}
			default:
				var ok bool
				if _, err = fmt.Sscanf(w, "-%s %d %d", &table, &uid, &deg); err == nil {
					ok, err = e.Delete(table, tuple.Ints(uid, deg))
				}
				if err == nil && !ok {
					err = fmt.Errorf("nothing deleted")
				}
			}
			if err != nil {
				t.Fatalf("%s: %v", w, err)
			}
		}
		reads[i] = stamped(t, e, q)
		if i == 0 {
			patches[0] = cacheStats(t, e).Patches
		}
	}
	got, want := reads[0], reads[1]
	if got.Cached != lc.absorbed || lc.absorbed && patches[0] != 1 {
		t.Fatalf("cached = %v after %d patches, want absorbed = %v", got.Cached, patches[0], lc.absorbed)
	}
	g, w := got.Rel.RowsSorted(got.At), want.Rel.RowsSorted(want.At)
	if fmt.Sprint(g) != fmt.Sprint(w) || got.At != want.At || got.Validity != want.Validity {
		t.Fatalf("read %v at %v under %v, the cache-off engine %v at %v under %v", g, got.At, got.Validity, w, want.At, want.Validity)
	}
}

// degAtLeast builds σ[Deg ≥ min](pol): a plan whose only leaf selects part
// of its table. Over Figure 1, min = 30 selects (3, 35).
func degAtLeast(t *testing.T, e *Engine, min int64) algebra.Expr {
	t.Helper()
	b, err := e.Base("pol")
	if err != nil {
		t.Fatal(err)
	}
	sel, err := algebra.NewSelect(algebra.ColConst{Col: 1, Op: algebra.OpGe, Const: value.Int(min)}, b)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// An entry survives every write whose tuple no leaf of its plan selects —
// insert, lifetime extension, delete — absorbs an insert or an extension one
// does select, and is dropped by a delete one selects, whose row under a
// bare σ derives itself.
func TestCacheSurvivesWritesItsLeavesReject(t *testing.T) {
	e := newsEngine(t)
	q := degAtLeast(t, e, 30)
	read := func(what string, cached bool, rows int) {
		t.Helper()
		qr := stamped(t, e, q)
		if qr.Cached != cached {
			t.Fatalf("after %s: cached = %v, want %v", what, qr.Cached, cached)
		}
		if g := qr.Rel.CountAt(qr.At); g != rows {
			t.Fatalf("after %s: rows = %d, want %d", what, g, rows)
		}
	}
	insert := func(uid, deg int64, texp xtime.Time) {
		t.Helper()
		if err := e.Insert("pol", tuple.Ints(uid, deg), texp); err != nil {
			t.Fatal(err)
		}
	}
	remove := func(uid, deg int64) {
		t.Helper()
		if ok, err := e.Delete("pol", tuple.Ints(uid, deg)); err != nil || !ok {
			t.Fatalf("delete (%d, %d) = %v, %v", uid, deg, ok, err)
		}
	}
	read("nothing", false, 1)
	insert(9, 20, 50)
	read("an insert the leaf rejects", true, 1)
	if m := cacheStats(t, e); m.Revalidations != 1 || m.EpochInvalidations != 0 {
		t.Fatalf("revalidations/epoch invalidations = %d/%d, want 1/0", m.Revalidations, m.EpochInvalidations)
	}
	read("the same write again", true, 1)
	if m := cacheStats(t, e); m.Revalidations != 1 {
		t.Fatalf("revalidations = %d, want 1 (the entry adopted the epoch: each write is tested once)", m.Revalidations)
	}
	insert(1, 25, 40)
	read("an extension the leaf rejects", true, 1)
	remove(9, 20)
	read("a delete the leaf rejects", true, 1)
	// A write to a table the plan does not read is not even looked at.
	if err := e.Insert("el", tuple.Ints(9, 99), 50); err != nil {
		t.Fatal(err)
	}
	read("a write to another table", true, 1)
	if m := cacheStats(t, e); m.Revalidations != 3 {
		t.Fatalf("revalidations = %d, want 3", m.Revalidations)
	}

	insert(8, 40, 50)
	read("an insert the leaf selects", true, 2)
	insert(3, 35, 60)
	read("an extension the leaf selects", true, 2)
	if texp, _ := stamped(t, e, q).Rel.Texp(tuple.Ints(3, 35)); texp != 60 {
		t.Fatalf("texp of the extended row = %v, want 60", texp)
	}
	if m := cacheStats(t, e); m.Patches != 2 || m.Revalidations != 3 || m.EpochInvalidations != 0 {
		t.Fatalf("patches/revalidations/epoch invalidations = %d/%d/%d, want 2/3/0", m.Patches, m.Revalidations, m.EpochInvalidations)
	}
	remove(8, 40)
	read("a delete the leaf selects", false, 1)
	if m := cacheStats(t, e); m.EpochInvalidations != 1 {
		t.Fatalf("epoch invalidations = %d, want 1", m.EpochInvalidations)
	}
}

// A root difference keeps its entry's rows and texp(e) through right-side
// inserts and deletes of tuples its left argument lacks — restamped at the
// read, which the write may have changed the answer before — re-evaluates
// when one meets the left, and is dropped by a write its left argument
// selects.
func TestCacheDifferenceAbsorbsRightSideWrites(t *testing.T) {
	e := newsEngine(t)
	q := polExceptEl(t, e)
	read := func(what string, cached bool, uids ...int64) QueryResult {
		t.Helper()
		qr := stamped(t, e, q)
		if qr.Cached != cached {
			t.Fatalf("after %s: cached = %v, want %v", what, qr.Cached, cached)
		}
		if g := qr.Rel.CountAt(qr.At); g != len(uids) {
			t.Fatalf("after %s: %d rows, want %v", what, g, uids)
		}
		for _, u := range uids {
			if !qr.Rel.Contains(tuple.Ints(u), qr.At) {
				t.Fatalf("after %s: uid %d missing", what, u)
			}
		}
		return qr
	}
	write := func(table string, del bool, uid, deg int64) {
		t.Helper()
		if del {
			if ok, err := e.Delete(table, tuple.Ints(uid, deg)); err != nil || !ok {
				t.Fatalf("delete = %v, %v", ok, err)
			}
		} else if err := e.Insert(table, tuple.Ints(uid, deg), 40); err != nil {
			t.Fatal(err)
		}
	}
	read("nothing", false, 3)
	if err := e.Advance(1); err != nil {
		t.Fatal(err)
	}
	write("el", false, 77, 20)
	if qr := read("a right-side insert the left lacks", true, 3); qr.Validity != (interval.Validity{At: 1, ValidUntil: 3}) {
		t.Fatalf("stamp %v, want [1, 3): the entry's texp(e), from the read on", qr.Validity)
	}
	write("el", true, 77, 20)
	read("a right-side delete the left lacks", true, 3)
	write("el", true, 1, 75)
	read("a right-side delete the left holds", false, 1, 3)
	write("el", false, 3, 50)
	read("a right-side insert the left holds", false, 1)
	write("pol", false, 8, 20)
	read("a left-side insert", false, 1, 8)
	if m := cacheStats(t, e); m.Patches != 2 || m.EpochInvalidations != 3 || m.Misses != 4 {
		t.Fatalf("patches/epoch invalidations/misses = %d/%d/%d, want 2/3/4", m.Patches, m.EpochInvalidations, m.Misses)
	}
}

// Each patch stores its entry again, and each store schedules the entry's
// ValidUntil: the stale pairs are rebuilt away as a table's are, so one
// entry patched 5 000 times holds the heap within 2×entries + 1024 pairs,
// and the drain still drops it at its ValidUntil.
func TestCacheExpiryHeapStaysBounded(t *testing.T) {
	e := newsEngine(t)
	q := polExceptEl(t, e)
	stamped(t, e, q)
	for i := int64(0); i < 5000; i++ {
		if err := e.Insert("el", tuple.Ints(100+i, 20), 40); err != nil {
			t.Fatal(err)
		}
		if !stamped(t, e, q).Cached {
			t.Fatalf("read %d: a right-side insert the left lacks was not patched", i)
		}
	}
	c := e.cache.Load()
	c.mu.Lock()
	pairs, entries := c.pq.Len(), len(c.entries)
	c.mu.Unlock()
	if pairs > 2*entries+1024 {
		t.Fatalf("%d heap pairs for %d entries, want ≤ %d", pairs, entries, 2*entries+1024)
	}
	if err := e.Advance(3); err != nil {
		t.Fatal(err)
	}
	if m := cacheStats(t, e); m.Entries != 0 || m.Invalidations != 1 || m.Patches != 5000 {
		t.Fatalf("entries/invalidations/patches = %d/%d/%d, want 0/1/5000", m.Entries, m.Invalidations, m.Patches)
	}
}

// A table remembers writeTailLen written tuples: an entry that slept through
// exactly that many is still checked and served, one more and it is
// re-evaluated, whatever was written, and so is one the ring has lapped.
func TestCacheTailOverflowIsAMiss(t *testing.T) {
	e := newsEngine(t)
	q := degAtLeast(t, e, 30)
	stamped(t, e, q)
	next := int64(100)
	rejected := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := e.Insert("pol", tuple.Ints(next, 20), 50); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	rejected(writeTailLen)
	if !stamped(t, e, q).Cached {
		t.Fatalf("%d writes the leaf rejects fit the tail: the entry must be served", writeTailLen)
	}
	for i, size := range []int{writeTailLen + 1, 2*writeTailLen + 1} {
		rejected(size)
		n := int64(i + 1)
		if qr, m := stamped(t, e, q), cacheStats(t, e); qr.Cached || m.EpochInvalidations != n || m.TailOverruns != n || m.Revalidations != 1 {
			t.Fatalf("an entry %d writes behind: cached %v, epoch invalidations/tail overruns/revalidations = %d/%d/%d; want re-evaluated, %d/%d/1",
				size, qr.Cached, m.EpochInvalidations, m.TailOverruns, m.Revalidations, n, n)
		}
	}
}

// The tuples of a multi-row DELETE share one epoch. When the ring overwrites
// the first of them the whole DELETE is below the floor: an entry from
// before it is dropped, although the DELETE's tuples still in the ring — and
// everything after — are ones its leaf rejects. Each case names the rows pol's
// tail holds when the DELETE begins: at 64 the DELETE lies inside a ring not
// yet full; at writeTailLen-2 its tuples straddle the slot where the ring wraps.
func TestCacheMultiRowDeleteNotSplitAcrossFloor(t *testing.T) {
	for _, before := range []uint64{64, writeTailLen - 2} {
		t.Run(fmt.Sprint(before), func(t *testing.T) {
			e := newsEngine(t)
			for uid := int64(20); uid < 24; uid++ {
				if err := e.Insert("pol", tuple.Ints(uid, 20), 50); err != nil {
					t.Fatal(err)
				}
			}
			// Rows the leaf rejects, until the tail holds before rows.
			for uid := int64(1000); e.tails["pol"].n < before; uid++ {
				if err := e.Insert("pol", tuple.Ints(uid, 20), 50); err != nil {
					t.Fatal(err)
				}
			}
			q := degAtLeast(t, e, 30)
			if g := stamped(t, e, q).Rel.CountAt(0); g != 1 {
				t.Fatalf("rows = %d, want 1", g)
			}
			// One DELETE: first the row the leaf selects, then four it rejects.
			rel, err := e.cat.Table("pol")
			if err != nil {
				t.Fatal(err)
			}
			keys := []string{tuple.Ints(3, 35).Key()}
			for uid := int64(20); uid < 24; uid++ {
				keys = append(keys, tuple.Ints(uid, 20).Key())
			}
			rel.Lock()
			if n, _, err := e.deleteKeys("pol", rel, keys); err != nil || n != len(keys) {
				t.Fatalf("deleteKeys = %d, %v", n, err)
			}
			// Exactly enough rejected writes to overwrite the DELETE's first tuple.
			for i := 0; i < writeTailLen-len(keys)+1; i++ {
				if err := e.Insert("pol", tuple.Ints(int64(100+i), 20), 50); err != nil {
					t.Fatal(err)
				}
			}
			qr := stamped(t, e, q)
			if qr.Cached {
				t.Fatal("the entry predates a DELETE the tail holds only part of: it must not be served")
			}
			if g := qr.Rel.CountAt(qr.At); g != 0 {
				t.Fatalf("rows = %d, want 0 ((3, 35) was deleted)", g)
			}
		})
	}
}

// Readers overrun pol's tail while a writer writes to it, so overruns race
// lookups, patches and the writes themselves. Each reader reads its own
// σ[Deg ≥ 30+r]; the writer inserts bursts of rows they all reject, one
// shorter and a few longer than the tail, each after one row (Deg 35) they
// all select, and reads a σ[Deg ≥ 29] of its own after each burst, which
// overruns whenever the burst outran the tail. A reader sees at least the
// selected rows whose inserts had returned before its read began and at
// most those begun before it ended, so an entry that lost a row fails at
// its next read.
func TestCacheTailOverrunsUnderConcurrentReads(t *testing.T) {
	e := newsEngine(t)
	var begun, done atomic.Int64 // selected inserts started, returned
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		q := degAtLeast(t, e, int64(30+r)) // an entry per reader
		go func() {
			defer wg.Done()
			key := algebra.PushDownSelections(q).String()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := done.Load()
				qr, err := e.QueryStamped(q, key, 0)
				hi := begun.Load()
				if err == nil {
					// (3, 35) expires at 10; the clock stays at 0.
					if g := int64(qr.Rel.CountAt(qr.At)) - 1; g < lo || g > hi {
						err = fmt.Errorf("read %d selected rows, want %d to %d", g, lo, hi)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// The writer reads an entry of its own after each burst, so it is a whole
	// burst behind: an overrun at every burst longer than the tail.
	own := degAtLeast(t, e, 29)
	stamped(t, e, own)
	next := int64(100)
	for burst := 0; burst < 24 && len(errs) == 0; burst++ {
		begun.Add(1)
		if err := e.Insert("pol", tuple.Ints(next, 35), 50); err != nil {
			t.Fatal(err)
		}
		done.Add(1)
		next++
		n := []int{writeTailLen - 1, writeTailLen + 8}[burst%2]
		for i := 0; i < n; i++ {
			if err := e.Insert("pol", tuple.Ints(next, 20), 50); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if qr := stamped(t, e, own); int64(qr.Rel.CountAt(qr.At))-1 != done.Load() {
			t.Errorf("the writer's own read: %d selected rows, want %d", qr.Rel.CountAt(qr.At)-1, done.Load())
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if m := cacheStats(t, e); m.TailOverruns == 0 || m.Patches == 0 {
		t.Fatalf("%d overruns, %d patches: the race was not run", m.TailOverruns, m.Patches)
	}
}

// With the cache off nothing is recorded, so nothing from before can be
// vouched for: a lookup still in flight against the discarded cache misses,
// and so does one that arrives after caching resumed and a recorded write
// started a new tail.
func TestCacheOffThenOnIsCold(t *testing.T) {
	e := newsEngine(t)
	q30, q40 := degAtLeast(t, e, 30), degAtLeast(t, e, 40)
	stamped(t, e, q30)
	stamped(t, e, q40)
	old := e.cache.Load()
	e.SetResultCache(0)
	if err := e.Insert("pol", tuple.Ints(8, 45), 50); err != nil { // both leaves select it; nobody records it
		t.Fatal(err)
	}
	if _, _, ok := e.cacheServe(old, q30.String(), 0); ok {
		t.Fatal("an entry of the discarded cache was served across a write made while the cache was off")
	}
	e.SetResultCache(4)
	if err := e.Insert("pol", tuple.Ints(9, 20), 50); err != nil { // recorded; both leaves reject it
		t.Fatal(err)
	}
	if _, _, ok := e.cacheServe(old, q40.String(), 0); ok {
		t.Fatal("the new tail vouched for an entry older than its floor")
	}
	qr := stamped(t, e, q30)
	if qr.Cached {
		t.Fatal("caching resumes cold")
	}
	if g := qr.Rel.CountAt(qr.At); g != 2 {
		t.Fatalf("rows = %d, want 2", g)
	}
}

// A plan still in flight when its table is dropped and re-created with
// fewer columns caches an answer over the old rows; tuples of the new table
// are too short for its predicates and must drop the entry, not index past
// their end under the cache and engine locks.
func TestCacheLeafPredicateMeetsShorterTuple(t *testing.T) {
	e := newsEngine(t)
	q := degAtLeast(t, e, 30)
	if err := e.DropTable("pol"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable("pol", tuple.IntCols("UID")); err != nil {
		t.Fatal(err)
	}
	stamped(t, e, q)
	if err := e.Insert("pol", tuple.Ints(7), 50); err != nil {
		t.Fatal(err)
	}
	if stamped(t, e, q).Cached {
		t.Fatal("an entry over a dropped table outlived a write to its successor")
	}
}

// The same race under a monotonic plan whose leaf is the bare table: σ[TRUE]
// selects the short tuple on its own, and the entry would absorb it, but a
// tuple that does not fit the leaf's schema must never reach the Δ plan — π
// would read past its end — so the entry is re-evaluated.
func TestCacheMonotonicPlanMeetsShorterTuple(t *testing.T) {
	e := newsEngine(t)
	b, err := e.Base("pol")
	if err != nil {
		t.Fatal(err)
	}
	q, err := algebra.NewProject([]int{1}, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DropTable("pol"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable("pol", tuple.IntCols("UID")); err != nil {
		t.Fatal(err)
	}
	stamped(t, e, q)
	if err := e.Insert("pol", tuple.Ints(7), 50); err != nil {
		t.Fatal(err)
	}
	if p := e.CacheProbe(q.String()); p != "epoch-stale" {
		t.Fatalf("probe = %q, want epoch-stale", p)
	}
	if stamped(t, e, q).Cached {
		t.Fatal("an entry over a dropped table absorbed a write to its successor")
	}
}

// A duplicate insert that changes nothing must not invalidate: the cached
// rows are still exactly what a re-evaluation would produce.
func TestCacheUnchangedDuplicateInsertStillHits(t *testing.T) {
	e := newsEngine(t)
	b, _ := e.Base("pol")
	stamped(t, e, b)
	if err := e.Insert("pol", tuple.Ints(1, 25), 10); err != nil {
		t.Fatal(err)
	}
	if !stamped(t, e, b).Cached {
		t.Fatal("no-op duplicate insert must not invalidate the entry")
	}
}

// DROP + CREATE of a table with the same name must not alias the old
// entry: epochs are monotone per name and never reset.
func TestCacheDropRecreateDoesNotAlias(t *testing.T) {
	e := newsEngine(t)
	b, _ := e.Base("pol")
	if g := stamped(t, e, b).Rel.CountAt(0); g != 3 {
		t.Fatalf("rows = %d, want 3", g)
	}
	if err := e.DropTable("pol"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable("pol", tuple.IntCols("UID", "Deg")); err != nil {
		t.Fatal(err)
	}
	nb, err := e.Base("pol")
	if err != nil {
		t.Fatal(err)
	}
	qr := stamped(t, e, nb)
	if qr.Cached {
		t.Fatal("recreated table must not be answered from the old table's entry")
	}
	if g := qr.Rel.CountAt(qr.At); g != 0 {
		t.Fatalf("rows = %d, want 0 (recreated empty)", g)
	}
}

// A tail that DDL discarded is no overrun: an entry from before DROP +
// CREATE is dropped once writes follow, as many as the tail holds and one
// more, but that is no overrun.
func TestCacheDDLDropIsNoOverrun(t *testing.T) {
	e := newsEngine(t)
	stamped(t, e, degAtLeast(t, e, 30))
	if err := e.DropTable("pol"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable("pol", tuple.IntCols("UID", "Deg")); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i <= writeTailLen; i++ {
		if err := e.Insert("pol", tuple.Ints(100+i, 20), 50); err != nil {
			t.Fatal(err)
		}
	}
	if stamped(t, e, degAtLeast(t, e, 30)).Cached {
		t.Fatal("an entry from before DROP + CREATE was served")
	}
	if m := cacheStats(t, e); m.EpochInvalidations != 1 || m.TailOverruns != 0 {
		t.Fatalf("epoch invalidations/tail overruns = %d/%d, want 1/0", m.EpochInvalidations, m.TailOverruns)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	e := newsEngine(t)
	e.SetResultCache(2)
	pol, _ := e.Base("pol")
	el, _ := e.Base("el")
	join, err := algebra.EquiJoin(pol, 0, el, 0)
	if err != nil {
		t.Fatal(err)
	}

	stamped(t, e, pol) // LRU order: pol
	stamped(t, e, el)  // el, pol
	stamped(t, e, pol) // pol, el — touch moves pol to front
	stamped(t, e, join)
	m := cacheStats(t, e)
	if m.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", m.Evictions)
	}
	if m.Entries != 2 {
		t.Fatalf("entries = %d, want 2", m.Entries)
	}
	// Probe (not serve — a serve would refill) to check who survived:
	// el was the LRU tail, pol was touched to the front.
	if p := e.CacheProbe(el.String()); p != "cold" {
		t.Fatalf("el probe = %q, want cold (evicted as LRU tail)", p)
	}
	if p := e.CacheProbe(pol.String()); p != "hit" {
		t.Fatalf("pol probe = %q, want hit (touched, must survive)", p)
	}
}

func TestCacheDisabled(t *testing.T) {
	e := newsEngine(t, WithResultCache(0))
	if e.ResultCacheEnabled() {
		t.Fatal("WithResultCache(0) must disable the cache")
	}
	_, err := e.ResultCacheStats()
	if !errors.Is(err, ErrCacheDisabled) {
		t.Fatalf("stats error = %v, want ErrCacheDisabled", err)
	}
	if !errors.Is(err, catalog.ErrCacheDisabled) {
		t.Fatal("engine sentinel must wrap the catalog sentinel")
	}
	b := histExpr(t, e)
	// Queries still run and still carry their validity stamp.
	qr := stamped(t, e, b)
	if qr.Cached {
		t.Fatal("disabled cache must never report Cached")
	}
	if qr.Validity.ValidUntil != 10 {
		t.Fatalf("validity = %v, want ValidUntil 10", qr.Validity)
	}
	if stamped(t, e, b).Cached {
		t.Fatal("repeat query with cache disabled must re-evaluate")
	}
	if probe := e.CacheProbe(b.String()); probe != "disabled" {
		t.Fatalf("probe = %q, want disabled", probe)
	}

	// Re-enable at runtime: caching resumes cold.
	e.SetResultCache(4)
	if !e.ResultCacheEnabled() {
		t.Fatal("SetResultCache(4) must enable the cache")
	}
	stamped(t, e, b)
	if !stamped(t, e, b).Cached {
		t.Fatal("re-enabled cache must serve hits")
	}
	e.SetResultCache(0)
	if _, err := e.ResultCacheStats(); !errors.Is(err, ErrCacheDisabled) {
		t.Fatal("SetResultCache(0) must disable again")
	}
}

func TestCacheEmptyKeyStampsWithoutCaching(t *testing.T) {
	e := newsEngine(t)
	b := histExpr(t, e)
	qr, err := e.QueryStamped(b, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Cached {
		t.Fatal("empty key must not be served from the cache")
	}
	if qr.Validity.ValidUntil != 10 {
		t.Fatalf("validity = %v, want ValidUntil 10", qr.Validity)
	}
	if m := cacheStats(t, e); m.Entries != 0 || m.Misses != 0 {
		t.Fatalf("entries/misses = %d/%d, want 0/0 (uncacheable reads touch no counters)", m.Entries, m.Misses)
	}
}

func TestCacheProbeStates(t *testing.T) {
	e := newsEngine(t)
	b, _ := e.Base("pol")
	key := b.String()
	if p := e.CacheProbe(key); p != "cold" {
		t.Fatalf("probe = %q, want cold", p)
	}
	stamped(t, e, b)
	if p := e.CacheProbe(key); p != "hit" {
		t.Fatalf("probe = %q, want hit", p)
	}
	// A right-side insert into − whose tuple the left lacks is absorbed: the
	// probe does not look at the left, the serve does and keeps the entry.
	diff := polExceptEl(t, e)
	stamped(t, e, diff)
	if err := e.Insert("el", tuple.Ints(77, 20), 40); err != nil {
		t.Fatal(err)
	}
	if p := e.CacheProbe(diff.String()); p != "patch" {
		t.Fatalf("difference probe = %q, want patch", p)
	}
	if qr := stamped(t, e, diff); !qr.Cached || qr.Validity != (interval.Validity{At: 0, ValidUntil: 3}) {
		t.Fatalf("difference after a right-side insert the left lacks: cached = %v, stamp %v; want the entry's rows and texp(e), [0, 3)", qr.Cached, qr.Validity)
	}
	// One insert is absorbed by a monotonic plan and drops a GROUP BY.
	hist := histExpr(t, e)
	stamped(t, e, hist)
	if err := e.Insert("pol", tuple.Ints(7, 70), 40); err != nil {
		t.Fatal(err)
	}
	if p := e.CacheProbe(key); p != "patch" {
		t.Fatalf("probe = %q, want patch", p)
	}
	if p := e.CacheProbe(hist.String()); p != "epoch-stale" {
		t.Fatalf("GROUP BY probe = %q, want epoch-stale", p)
	}
	stamped(t, e, b) // patch, with fresh epochs
	// Probing must not serve or refresh the entry (EXPLAIN ANALYZE relies
	// on this): the hit counter is untouched by probes.
	hitsBefore := cacheStats(t, e).Hits
	for i := 0; i < 3; i++ {
		e.CacheProbe(key)
	}
	if g := cacheStats(t, e).Hits; g != hitsBefore {
		t.Fatalf("hits after probes = %d, want %d", g, hitsBefore)
	}
	// Nor does a probe adopt an epoch: after a write the plan cannot see it
	// answers "hit" as often as asked, and the serve that follows is still
	// the one that revalidates.
	q := degAtLeast(t, e, 30)
	stamped(t, e, q)
	if err := e.Insert("pol", tuple.Ints(8, 20), 40); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if p := e.CacheProbe(q.String()); p != "hit" {
			t.Fatalf("probe after a write the leaf rejects = %q, want hit", p)
		}
	}
	if g := cacheStats(t, e).Revalidations; g != 0 {
		t.Fatalf("revalidations after probes = %d, want 0", g)
	}
	if !stamped(t, e, q).Cached || cacheStats(t, e).Revalidations != 1 {
		t.Fatal("the serve after the probes must be the hit that revalidates")
	}
}

// Cached relations are handed out as shared snapshots: mutating a result
// must never corrupt the cache's stored materialisation.
func TestCacheResultIsolatedFromCallerMutation(t *testing.T) {
	e := newsEngine(t)
	b, _ := e.Base("pol")
	first := stamped(t, e, b)
	first.Rel.Insert(tuple.Ints(99, 99), 99) // copy-on-write detaches
	second := stamped(t, e, b)
	if !second.Cached {
		t.Fatal("entry must still be servable after caller mutation")
	}
	if g := second.Rel.CountAt(second.At); g != 3 {
		t.Fatalf("cached rows = %d, want 3 (caller's insert must not leak in)", g)
	}
}

func TestCacheInfiniteValidityEntry(t *testing.T) {
	e := New()
	if err := e.CreateTable("eternal", tuple.IntCols("X")); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("eternal", tuple.Ints(1), xtime.Infinity); err != nil {
		t.Fatal(err)
	}
	b, _ := e.Base("eternal")
	qr := stamped(t, e, b)
	if qr.Validity.ValidUntil != xtime.Infinity {
		t.Fatalf("ValidUntil = %v, want Infinity", qr.Validity.ValidUntil)
	}
	if err := e.Advance(1_000_000); err != nil {
		t.Fatal(err)
	}
	if !stamped(t, e, b).Cached {
		t.Fatal("an Infinity-valid entry must survive any advance")
	}
}

func TestCacheEventsEmitted(t *testing.T) {
	e := newsEngine(t)
	b := histExpr(t, e)
	tid := trace.NextID()
	key := b.String()
	if _, err := e.QueryStamped(b, key, tid); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryStamped(b, key, tid); err != nil {
		t.Fatal(err)
	}
	if err := e.Advance(12); err != nil {
		t.Fatal(err)
	}
	var miss, hit, inval int
	for _, ev := range e.Events().Snapshot(0) {
		switch ev.Kind {
		case trace.EvCacheMiss:
			miss++
		case trace.EvCacheHit:
			hit++
		case trace.EvCacheInvalidate:
			inval++
			if ev.Count != 1 {
				t.Fatalf("invalidate count = %d, want 1", ev.Count)
			}
		}
	}
	if miss != 1 || hit != 1 || inval != 1 {
		t.Fatalf("miss/hit/invalidate events = %d/%d/%d, want 1/1/1", miss, hit, inval)
	}
}

// Recovery always boots the cache cold: cached materialisations are
// derived state, not durable state, and the WAL neither logs nor replays
// them.
func TestCacheColdAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir)
	if err := e.CreateTable("pol", tuple.IntCols("UID", "Deg")); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("pol", tuple.Ints(1, 25), 50); err != nil {
		t.Fatal(err)
	}
	b, _ := e.Base("pol")
	stamped(t, e, b)
	if !stamped(t, e, b).Cached {
		t.Fatal("pre-crash repeat must hit")
	}
	if err := e.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	re, info := openDurable(t, dir)
	if info == nil || !info.Recovered {
		t.Fatal("expected recovery")
	}
	m := cacheStats(t, re)
	if m.Entries != 0 || m.Hits != 0 || m.Misses != 0 {
		t.Fatalf("recovered cache entries/hits/misses = %d/%d/%d, want 0/0/0 (cold)", m.Entries, m.Hits, m.Misses)
	}
	rb, err := re.Base("pol")
	if err != nil {
		t.Fatal(err)
	}
	qr := stamped(t, re, rb)
	if qr.Cached {
		t.Fatal("first post-recovery read must miss")
	}
	if g := qr.Rel.CountAt(qr.At); g != 1 {
		t.Fatalf("recovered rows = %d, want 1", g)
	}
	if !stamped(t, re, rb).Cached {
		t.Fatal("second post-recovery read must hit")
	}
	if err := re.CloseDurability(); err != nil {
		t.Fatal(err)
	}
}

// The cache-hit path must stay allocation-constant regardless of result
// size: one shared-snapshot header, with a little slack for harness
// noise. CI enforces the same budget through BenchmarkCacheHit.
func TestCacheHitAllocs(t *testing.T) {
	e := New()
	if err := e.CreateTable("t", tuple.IntCols("id", "v")); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 512; r++ {
		if err := e.Insert("t", tuple.Ints(int64(r), int64(r%5)), xtime.Infinity); err != nil {
			t.Fatal(err)
		}
	}
	b, _ := e.Base("t")
	key := b.String()
	tid := trace.NextID()
	if _, err := e.QueryStamped(b, key, tid); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		qr, err := e.QueryStamped(b, key, tid)
		if err != nil || !qr.Cached {
			t.Fatalf("hit path failed: cached=%v err=%v", qr.Cached, err)
		}
	})
	if allocs > 4 {
		t.Fatalf("cache hit = %.1f allocs/op, budget 4", allocs)
	}
}

// A stored entry is sorted once: the miss and every hit of it return rows
// in tuple order equal to a fresh sort, each caller's slice is its own
// (ORDER BY re-sorts it in place), rows that expire inside the entry's
// window drop out of later hits without disturbing the order, and a write
// patched in makes a new store with a new order.
func TestCacheHitsKeepTupleOrder(t *testing.T) {
	e := New()
	if err := e.CreateTable("t", tuple.IntCols("id", "v")); err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < 200; r++ {
		if err := e.Insert("t", tuple.Ints((r*73)%200, r%5), xtime.Time(5+r%20)); err != nil {
			t.Fatal(err)
		}
	}
	b, _ := e.Base("t")
	freshSort := func(qr QueryResult) []relation.Row {
		rows := qr.Rel.Rows(qr.At)
		sort.Slice(rows, func(i, j int) bool { return rows[i].Tuple.Compare(rows[j].Tuple) < 0 })
		return rows
	}
	check := func(tick xtime.Time, cached bool, wantRows int) {
		t.Helper()
		if err := e.Advance(tick); err != nil {
			t.Fatal(err)
		}
		qr := stamped(t, e, b)
		if qr.Cached != cached {
			t.Fatalf("tick %v: cached = %v, want %v", tick, qr.Cached, cached)
		}
		want, got := freshSort(qr), qr.Rel.RowsSorted(qr.At)
		if len(got) != wantRows || len(want) != wantRows {
			t.Fatalf("tick %v: %d rows (fresh sort %d), want %d", tick, len(got), len(want), wantRows)
		}
		for i := range got {
			if !got[i].Tuple.Equal(want[i].Tuple) || got[i].Texp != want[i].Texp {
				t.Fatalf("tick %v: row %d is %v, want %v", tick, i, got[i].Tuple, want[i].Tuple)
			}
		}
		for i, j := 0, len(got)-1; i < j; i, j = i+1, j-1 {
			got[i], got[j] = got[j], got[i] // the next caller must not see this
		}
	}
	check(0, false, 200)
	check(0, true, 200)
	check(0, true, 200)
	check(6, true, 180) // texp 5 and 6 expired under the entry; eager expiry bumps no epoch
	if err := e.Insert("t", tuple.Ints(1000, 0), 50); err != nil {
		t.Fatal(err)
	}
	check(6, true, 181)
	check(7, true, 171)
}

// TestShedMovesTheFloorNotTheStamp: a view read and a cache hit that find a
// row of their kept answer dead shed it, and the floor of the answer moves to
// the instant read while its stamp keeps describing the materialisation:
// the stamp holds that instant and may start below it, the rows are the
// evaluation there and, when the stamp ends, the evaluation at its last
// instant. A projection keeps its answer for ever; the difference's ends
// when uid 1 comes back at 10. wire's TestClientShedMovesTheFloorNotTheStamp
// holds a remote copy to the same.
func TestShedMovesTheFloorNotTheStamp(t *testing.T) {
	e := New()
	uids := func(table string) algebra.Expr {
		b, err := e.Base(table)
		if err != nil {
			t.Fatal(err)
		}
		p, err := algebra.NewProject([]int{0}, b)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, table := range []string{"pol", "el"} {
		if err := e.CreateTable(table, tuple.IntCols("uid", "deg")); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []struct {
		table    string
		uid, exp int64
	}{{"pol", 1, 20}, {"pol", 2, 5}, {"pol", 3, 30}, {"el", 1, 10}} {
		if err := e.Insert(r.table, tuple.Ints(r.uid, 0), xtime.Time(r.exp)); err != nil {
			t.Fatal(err)
		}
	}
	diff, err := algebra.NewDiff(uids("pol"), uids("el"))
	if err != nil {
		t.Fatal(err)
	}
	exprs := map[string]algebra.Expr{"projection": uids("pol"), "difference": diff}
	views := map[string]*view.View{}
	for name, expr := range exprs {
		v, err := e.CreateView(name, expr)
		if err != nil {
			t.Fatal(err)
		}
		views[name] = v
	}
	// read serves each answer as a surface hands it out, with its floor.
	read := func(surface, name string) (*relation.Relation, interval.Validity, xtime.Time) {
		if surface == "view read" {
			rel, info, err := e.ReadView(name)
			if err != nil {
				t.Fatal(err)
			}
			// The view answers from its floor on and recomputes below it.
			floor := info.At
			for floor > 0 && !views[name].NeedsRecomputation(floor-1) {
				floor--
			}
			return rel, info.Validity, floor
		}
		res := stamped(t, e, exprs[name])
		return res.Rel, res.Validity, e.cache.Load().entries[algebra.PushDownSelections(exprs[name]).String()].ev.Floor()
	}
	for _, surface := range []string{"view read", "cache hit"} {
		for name := range exprs {
			read(surface, name) // a view's first read, a cache miss
			read(surface, name) // served again: laid out in tuple order
		}
	}
	// uid 2 dies at 5 under both answers.
	if err := e.Advance(5); err != nil {
		t.Fatal(err)
	}
	tau := e.Now()
	for _, surface := range []string{"view read", "cache hit"} {
		for name, expr := range exprs {
			label := surface + " of the " + name
			rel, v, floor := read(surface, name)
			if floor != tau || !v.Contains(tau) {
				t.Fatalf("%s at %v: floor %v, stamped %v", label, tau, floor, v)
			}
			at := []xtime.Time{tau}
			if v.ValidUntil != xtime.Infinity {
				at = append(at, v.ValidUntil-1)
			} else if name == "difference" {
				t.Fatalf("%s stamped %v, want an end at 10", label, v)
			}
			for _, at := range at {
				want, err := algebra.Evaluate(expr, at)
				if err != nil || !reltest.EqualAt(rel, want.Rel, at) {
					t.Fatalf("%s at %v, stamped %v, shows at %v (%v)\n%swant\n%s", label, tau, v, at, err, rel.Render(at), want.Rel.Render(at))
				}
			}
		}
	}
	if m := cacheStats(t, e); m.Hits != 4 {
		t.Fatalf("%d cache hits, want one before and one after the ADVANCE per answer", m.Hits)
	}
}
