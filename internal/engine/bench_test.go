package engine

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"expdb/internal/algebra"
	"expdb/internal/catalog"
	"expdb/internal/index"
	"expdb/internal/trace"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// benchTables builds an engine with n tables t0..t(n-1).
func benchTables(b *testing.B, n int, opts ...Option) (*Engine, []string) {
	b.Helper()
	e := New(opts...)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
		if err := e.CreateTable(names[i], tuple.IntCols("id", "v")); err != nil {
			b.Fatal(err)
		}
	}
	return e, names
}

// BenchmarkParallelInsert measures insert throughput with all goroutines
// hammering one table (lock-contended baseline) versus spread across 16
// tables (sharded). With the old global engine mutex both shapes were
// identical; with per-table locks the multi-table shape scales with
// GOMAXPROCS.
func BenchmarkParallelInsert(b *testing.B) {
	for _, tables := range []int{1, 16} {
		b.Run(fmt.Sprintf("tables=%d", tables), func(b *testing.B) {
			e, names := benchTables(b, tables)
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				worker := next.Add(1)
				table := names[int(worker)%tables]
				i := int64(0)
				for pb.Next() {
					i++
					if err := e.InsertTTL(table, tuple.Ints(worker*1_000_000_000+i, i), 1_000_000); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkParallelInsertQuery mixes writes with single-table queries,
// the engine's two hot paths, across one vs many tables.
func BenchmarkParallelInsertQuery(b *testing.B) {
	for _, tables := range []int{1, 16} {
		b.Run(fmt.Sprintf("tables=%d", tables), func(b *testing.B) {
			e, names := benchTables(b, tables)
			// Pre-populate so queries scan something.
			for i, name := range names {
				for r := 0; r < 256; r++ {
					if err := e.Insert(name, tuple.Ints(int64(r), int64(i)), 1_000_000); err != nil {
						b.Fatal(err)
					}
				}
			}
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				worker := next.Add(1)
				table := names[int(worker)%tables]
				base, err := e.Base(table)
				if err != nil {
					b.Error(err)
					return
				}
				i := int64(0)
				for pb.Next() {
					i++
					if i%8 == 0 {
						if _, err := e.QueryStamped(base, "", 0); err != nil {
							b.Error(err)
							return
						}
					} else if err := e.InsertTTL(table, tuple.Ints(worker*1_000_000_000+i, i), 1_000_000); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkViewReadServe measures the serve-from-materialisation read
// path: a valid materialised view answered without recomputation. With
// the copying Snapshot this deep-copied all n rows per read; the shared
// snapshot makes it O(1) regardless of view size.
func BenchmarkViewReadServe(b *testing.B) {
	e, names := benchTables(b, 1)
	for i := 0; i < 1000; i++ {
		if err := e.Insert(names[0], tuple.Ints(int64(i), int64(i%100)), 1_000_000); err != nil {
			b.Fatal(err)
		}
	}
	base, err := e.Base(names[0])
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.CreateView("v", base); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.ReadView("v"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurableInsert measures the logged insert path end to end:
// encode the record into the group-commit buffer, apply, fsync. Wall
// time is fsync-bound; the interesting figure is allocs/op, which the
// CI gate pins — the WAL append must stay amortised-zero on top of the
// memory-only insert (the buffer is reused across flushes and the
// record is copied into it byte by byte).
func BenchmarkDurableInsert(b *testing.B) {
	e := New(WithDurability(b.TempDir()))
	if _, err := e.OpenDurability(nil); err != nil {
		b.Fatal(err)
	}
	defer e.CloseDurability()
	if err := e.CreateTable("t0", tuple.IntCols("id", "v")); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.InsertTTL("t0", tuple.Ints(int64(i), 0), xtime.Time(1_000_000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmptyAdvance measures a clock tick with nothing scheduled —
// the idle heartbeat of a polling deployment. It must not allocate.
func BenchmarkEmptyAdvance(b *testing.B) {
	e, _ := benchTables(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Advance(xtime.Time(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdvanceLargeDelta advances an eager engine across huge sparse
// clock jumps: each operation is one Advance by a million-tick empty span
// that expires one row, so the figure is per expiry. Draining a
// texp-ordered index costs O(expired), never O(Δt). The engine is built
// once; every 16 operations 16 more rows are inserted, untimed.
func BenchmarkAdvanceLargeDelta(b *testing.B) {
	const span, batch = xtime.Time(1_000_000), 16
	e, names := benchTables(b, 1)
	now := xtime.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%batch == 0 {
			b.StopTimer()
			for k := 1; k <= batch; k++ {
				if err := e.Insert(names[0], tuple.Ints(int64(i+k), 0), now+xtime.Time(k)*span); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		now += span
		if err := e.Advance(now); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := e.Stats().TuplesExpired; got != b.N {
		b.Fatalf("expired = %d, want %d", got, b.N)
	}
}

// BenchmarkCacheHit measures the result cache's serve path: one map
// probe, a clock/epoch check, an LRU touch and a shared snapshot. CI
// pins it at ≤4 allocs/op (the snapshot header is the only required
// allocation; the budget leaves slack for harness noise).
func BenchmarkCacheHit(b *testing.B) {
	e, names := benchTables(b, 1)
	for r := 0; r < 1024; r++ {
		if err := e.Insert(names[0], tuple.Ints(int64(r), int64(r%7)), xtime.Infinity); err != nil {
			b.Fatal(err)
		}
	}
	base, err := e.Base(names[0])
	if err != nil {
		b.Fatal(err)
	}
	key := base.String()
	tid := trace.NextID()
	if _, err := e.QueryStamped(base, key, tid); err != nil {
		b.Fatal(err) // warm the entry
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qr, err := e.QueryStamped(base, key, tid)
		if err != nil {
			b.Fatal(err)
		}
		if !qr.Cached {
			b.Fatal("hit path fell through to evaluation")
		}
	}
}

// BenchmarkCacheHitAfterWrite measures what a write costs a cached answer
// it cannot change: one insert the plan's leaf rejects, then the lookup
// that finds the epoch moved, tests the written tuple against the leaf
// predicate, adopts the epoch and serves the hit. CI pins it at ≤9
// allocs/op — the insert's budget (5) plus the hit's (4): recording the
// stored tuple in the table's tail and revalidating allocate nothing.
func BenchmarkCacheHitAfterWrite(b *testing.B) {
	e, names := benchTables(b, 1)
	for r := 0; r < 1024; r++ {
		if err := e.Insert(names[0], tuple.Ints(int64(r), int64(r%7)), xtime.Infinity); err != nil {
			b.Fatal(err)
		}
	}
	base, err := e.Base(names[0])
	if err != nil {
		b.Fatal(err)
	}
	sel, err := algebra.NewSelect(algebra.ColConst{Col: 1, Op: algebra.OpEq, Const: value.Int(3)}, base)
	if err != nil {
		b.Fatal(err)
	}
	key := sel.String()
	tid := trace.NextID()
	if _, err := e.QueryStamped(sel, key, tid); err != nil {
		b.Fatal(err) // warm the entry
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Insert(names[0], tuple.Ints(int64(1024+i), 9), xtime.Infinity); err != nil {
			b.Fatal(err)
		}
		qr, err := e.QueryStamped(sel, key, tid)
		if err != nil {
			b.Fatal(err)
		}
		if !qr.Cached {
			b.Fatal("a write the leaf rejects dropped the entry")
		}
	}
}

// BenchmarkCachePatchAfterInsert measures what a write costs a cached answer
// it does change: a range over an ordered index returning 40 rows is
// cached, then each iteration inserts one tuple the range selects and looks
// the range up, which patches the entry — Δ read off the write tail, the plan
// streamed over Δ, the row merged into a copy of the answer. The inserts
// cycle through 64 tuples with later and later lifetimes, so after the first
// 64 each is an extension and the answer stays the same size. What it
// allocates follows Δ and the cached answer, never the table: it is run at
// 2 000 and 20 000 rows (scripts/alloc-gates.sh holds both to one budget).
func BenchmarkCachePatchAfterInsert(b *testing.B) {
	for _, rows := range []int{2000, 20_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			e, names := benchTables(b, 1)
			if err := e.CreateIndex(&catalog.IndexDef{
				Name: "t0_v", Table: names[0], Cols: []int{1},
				ColNames: []string{"v"}, Kind: index.KindOrdered,
			}); err != nil {
				b.Fatal(err)
			}
			for r := 0; r < rows; r++ { // v = 50·id: 40 rows in [0, 2 000) at either size
				if err := e.Insert(names[0], tuple.Ints(int64(r), int64(50*r)), xtime.Infinity); err != nil {
					b.Fatal(err)
				}
			}
			base, err := e.Base(names[0])
			if err != nil {
				b.Fatal(err)
			}
			lo, hi := value.Int(0), value.Int(2000)
			full := algebra.And{Preds: []algebra.Predicate{
				algebra.ColConst{Col: 1, Op: algebra.OpGe, Const: lo},
				algebra.ColConst{Col: 1, Op: algebra.OpLt, Const: hi},
			}}
			scan := algebra.NewIndexScan(base, "t0_v", full, algebra.True{})
			scan.Cols, scan.Lo, scan.LoInc, scan.Hi = []int{1}, []value.Value{lo}, true, []value.Value{hi}
			key := scan.String()
			tid := trace.NextID()
			if _, err := e.QueryStamped(scan, key, tid); err != nil {
				b.Fatal(err) // warm the entry
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Insert(names[0], tuple.Ints(int64(rows+i%64), int64(i%64)), xtime.Time(1000+i)); err != nil {
					b.Fatal(err)
				}
				qr, err := e.QueryStamped(scan, key, tid)
				if err != nil {
					b.Fatal(err)
				}
				if !qr.Cached {
					b.Fatal("an insert the range selects was not patched into the entry")
				}
			}
			b.StopTimer()
			if m, _ := e.ResultCacheStats(); m.Patches != int64(b.N) {
				b.Fatalf("patches = %d, want %d", m.Patches, b.N)
			}
		})
	}
}

// BenchmarkCachePatchAfterDelete measures what a write costs a cached join:
// σ[score ≥ 76 000](sess) ⋈[uid = uid] σ[grp = 3](usr) over 20 000 sessions
// and 2 000 users, about 100 rows. insert writes one session the join
// selects and pairs — the 64 tuples cycle to later lifetimes, so after the
// first 64 each is an extension — and delete removes one session the left
// leaf selects whose user is in another group; then the lookup absorbs the
// write. Δ, one row, is the hash join's build side and usr's column array is
// scanned for Δ's key: a patch streams E[sess := Δ] and merges it, a lost row
// streams it and finds nothing, and neither collects usr or re-evaluates.
func BenchmarkCachePatchAfterDelete(b *testing.B) {
	for _, write := range []string{"insert", "delete"} {
		b.Run(write, func(b *testing.B) {
			e := New()
			if err := e.CreateTable("sess", tuple.IntCols("sid", "uid", "score")); err != nil {
				b.Fatal(err)
			}
			if err := e.CreateTable("usr", tuple.IntCols("uid", "grp")); err != nil {
				b.Fatal(err)
			}
			for u := int64(0); u < 2000; u++ {
				if err := e.Insert("usr", tuple.Ints(u, u%50), xtime.Infinity); err != nil {
					b.Fatal(err)
				}
			}
			for s := int64(0); s < 20_000; s++ {
				if err := e.Insert("sess", tuple.Ints(s, s%2000, s*7919%100_000), xtime.Infinity); err != nil {
					b.Fatal(err)
				}
			}
			lost := func(i int) tuple.Tuple { return tuple.Ints(int64(1_000_000+i), 4, 80_000) } // user 4 is in group 4
			if write == "delete" {
				for i := 0; i < b.N; i++ {
					if err := e.Insert("sess", lost(i), xtime.Infinity); err != nil {
						b.Fatal(err)
					}
				}
			}
			sess, _ := e.Base("sess")
			usr, _ := e.Base("usr")
			join, err := algebra.EquiJoin(
				&algebra.Select{Pred: algebra.ColConst{Col: 2, Op: algebra.OpGe, Const: value.Int(76_000)}, Child: sess}, 1,
				&algebra.Select{Pred: algebra.ColConst{Col: 1, Op: algebra.OpEq, Const: value.Int(3)}, Child: usr}, 0)
			if err != nil {
				b.Fatal(err)
			}
			key := join.String()
			tid := trace.NextID()
			if _, err := e.QueryStamped(join, key, tid); err != nil {
				b.Fatal(err) // warm the entry
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if write == "insert" {
					err = e.Insert("sess", tuple.Ints(int64(2_000_000+i%64), 3, 80_000), xtime.Time(1000+i))
				} else if ok, derr := e.Delete("sess", lost(i)); !ok {
					err = fmt.Errorf("delete %d: %v", i, derr)
				}
				if err != nil {
					b.Fatal(err)
				}
				qr, err := e.QueryStamped(join, key, tid)
				if err != nil {
					b.Fatal(err)
				}
				if !qr.Cached {
					b.Fatalf("the %s was not absorbed into the entry", write)
				}
			}
			b.StopTimer()
			if m, _ := e.ResultCacheStats(); m.Patches != int64(b.N) {
				b.Fatalf("patches = %d, want %d", m.Patches, b.N)
			}
		})
	}
}

// BenchmarkCacheJoinAfterWrites measures a cached join read after a burst of
// writes: the σ(sess) ⋈ σ(usr) of BenchmarkCachePatchAfterDelete, then per
// iteration 100 inserts into sess — 4 sessions the join selects and pairs,
// 96 its left leaf rejects, each after the first iteration an extension of
// a row the iteration before wrote, so the table stays one size — and the
// lookup. Every lookup finds its 100 writes in the tail and patches the
// entry instead of re-evaluating the join.
func BenchmarkCacheJoinAfterWrites(b *testing.B) {
	e := New()
	if err := e.CreateTable("sess", tuple.IntCols("sid", "uid", "score")); err != nil {
		b.Fatal(err)
	}
	if err := e.CreateTable("usr", tuple.IntCols("uid", "grp")); err != nil {
		b.Fatal(err)
	}
	for u := int64(0); u < 2000; u++ {
		if err := e.Insert("usr", tuple.Ints(u, u%50), xtime.Infinity); err != nil {
			b.Fatal(err)
		}
	}
	for s := int64(0); s < 20_000; s++ {
		if err := e.Insert("sess", tuple.Ints(s, s%2000, s*7919%100_000), xtime.Infinity); err != nil {
			b.Fatal(err)
		}
	}
	sess, _ := e.Base("sess")
	usr, _ := e.Base("usr")
	join, err := algebra.EquiJoin(
		&algebra.Select{Pred: algebra.ColConst{Col: 2, Op: algebra.OpGe, Const: value.Int(76_000)}, Child: sess}, 1,
		&algebra.Select{Pred: algebra.ColConst{Col: 1, Op: algebra.OpEq, Const: value.Int(3)}, Child: usr}, 0)
	if err != nil {
		b.Fatal(err)
	}
	key := join.String()
	tid := trace.NextID()
	round := func(i int) QueryResult {
		for k := 0; k < 100; k++ {
			row := tuple.Ints(int64(3_000_000+k), int64(k), 10) // score 10: the left leaf rejects it
			if k%25 == 0 {
				row = tuple.Ints(int64(2_000_000+k/25), 3, 80_000) // selected, paired with user 3
			}
			if err := e.Insert("sess", row, xtime.Time(1000+i)); err != nil {
				b.Fatal(err)
			}
		}
		qr, err := e.QueryStamped(join, key, tid)
		if err != nil {
			b.Fatal(err)
		}
		return qr
	}
	if _, err := e.QueryStamped(join, key, tid); err != nil {
		b.Fatal(err) // warm the entry
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !round(i).Cached {
			b.Fatal("100 writes the tail holds were not absorbed into the entry")
		}
	}
	b.StopTimer()
	if m, _ := e.ResultCacheStats(); m.Patches != int64(b.N) || m.TailOverruns != 0 {
		b.Fatalf("patches/tail overruns = %d/%d, want %d/0: a round outran the tail", m.Patches, m.TailOverruns, b.N)
	}
}

// BenchmarkIndexedPointLookup measures the uncached indexed read path:
// lock plan, hash-index probe, one-row result relation, validity stamp.
// CI pins it at ≤6 allocs/op — the result relation (header, row map,
// bucket, set key) and the two streaming closures; the lock plan and the
// probe itself must stay allocation-free.
func BenchmarkIndexedPointLookup(b *testing.B) {
	e, names := benchTables(b, 1)
	if err := e.CreateIndex(&catalog.IndexDef{
		Name: "t0_id", Table: names[0], Cols: []int{0},
		ColNames: []string{"id"}, Kind: index.KindHash,
	}); err != nil {
		b.Fatal(err)
	}
	for r := 0; r < 100_000; r++ {
		if err := e.Insert(names[0], tuple.Ints(int64(r), int64(r%7)), xtime.Infinity); err != nil {
			b.Fatal(err)
		}
	}
	base, err := e.Base(names[0])
	if err != nil {
		b.Fatal(err)
	}
	probe := tuple.Ints(41_771)
	full := algebra.ColConst{Col: 0, Op: algebra.OpEq, Const: probe[0]}
	scan := algebra.NewIndexScan(base, "t0_id", full, nil)
	scan.Eq = probe
	scan.EqKey = probe.Key()
	tid := trace.NextID()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qr, err := e.QueryStamped(scan, "", tid)
		if err != nil {
			b.Fatal(err)
		}
		if qr.Rel.CountAt(qr.At) != 1 {
			b.Fatal("probe missed")
		}
	}
}

// BenchmarkIndexedDelete measures DELETE … WHERE over a hash-index probe
// that finds one row: lock, probe, one map delete with index and epoch
// maintenance, unlock. CI pins it at 2 allocs/op — the victim key slice
// and the closure that fills it; nothing may scale with the table.
func BenchmarkIndexedDelete(b *testing.B) {
	e, names := benchTables(b, 1)
	if err := e.CreateIndex(&catalog.IndexDef{
		Name: "t0_id", Table: names[0], Cols: []int{0},
		ColNames: []string{"id"}, Kind: index.KindHash,
	}); err != nil {
		b.Fatal(err)
	}
	base, err := e.Base(names[0])
	if err != nil {
		b.Fatal(err)
	}
	const resident = 20_000 // rows the deletes must not touch
	plans := make([]*algebra.IndexScan, b.N)
	for r := 0; r < resident+b.N; r++ {
		if err := e.InsertTTL(names[0], tuple.Ints(int64(r), int64(r%7)), 1_000_000); err != nil {
			b.Fatal(err)
		}
		if r < b.N {
			probe := tuple.Ints(int64(r))
			plans[r] = algebra.NewIndexScan(base, "t0_id",
				algebra.ColConst{Col: 0, Op: algebra.OpEq, Const: probe[0]}, nil)
			plans[r].Eq, plans[r].EqKey = probe, probe.Key()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, _, err := e.DeleteWhere(plans[i]); err != nil || n != 1 {
			b.Fatalf("deleted %d rows, err %v", n, err)
		}
	}
}

// heapPerLiveRow builds an engine with one hash-indexed table ⟨a, b, c⟩ of
// INTs, inserts n rows with finite lifetimes, and returns the live heap per
// row: runtime.MemStats.HeapAlloc after a GC, less the same before the
// engine was built, over n. Everything a row costs is in it — tuple, key
// string, slot, key set entry, column arrays, hash index entry and bucket,
// texp heap pair.
func heapPerLiveRow(tb testing.TB, n int) float64 {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := New()
	if err := e.CreateTable("t", tuple.IntCols("a", "b", "c")); err != nil {
		tb.Fatal(err)
	}
	if err := e.CreateIndex(&catalog.IndexDef{
		Name: "t_a", Table: "t", Cols: []int{0}, ColNames: []string{"a"}, Kind: index.KindHash,
	}); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := e.Insert("t", tuple.Ints(int64(i), int64(i%97), int64(i%13)), xtime.Time(1_000_000+i)); err != nil {
			tb.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

// BenchmarkHeapPerLiveRow reports heapPerLiveRow at 50 000 rows as B/row.
func BenchmarkHeapPerLiveRow(b *testing.B) {
	var perRow float64
	for i := 0; i < b.N; i++ {
		perRow = heapPerLiveRow(b, 50_000)
	}
	b.ReportMetric(perRow, "B/row")
}

// heapPerLiveRowBudget is BenchmarkHeapPerLiveRow's figure (339.2 B on
// linux/amd64, go1.24, since one tuple.Set replaced the key map and the
// hash index's map; 383.1 B before) plus 8 B of slack.
const heapPerLiveRowBudget = 339.2 + 8

// TestHeapPerLiveRow is the memory gate of BenchmarkHeapPerLiveRow.
func TestHeapPerLiveRow(t *testing.T) {
	if perRow := heapPerLiveRow(t, 50_000); perRow > heapPerLiveRowBudget {
		t.Fatalf("a live row holds %.1f B of heap, budget %.1f", perRow, heapPerLiveRowBudget)
	}
}
