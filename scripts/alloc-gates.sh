#!/usr/bin/env bash
# Hot-path allocation budgets: runs each benchmark in the table below and
# fails if its allocs/op exceed the budget. One-shot runs over-report
# (key-set and slot-array growth amortise away); 10000x is deterministic at
# these budgets and each benchmark still runs in about a second or less.
# Each result line ends with the budget it was held to, so headroom shows in
# the CI log.
#
# benchmark | package | max allocs/op | what the budget protects
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

gates='
BenchmarkInsertMetricsOverhead ./internal/engine  5  insert: the stored tuple and its key string, which the texp-index pair holds; the slot array, the key set and the heap grow amortised (measured 3)
BenchmarkDurableInsert         ./internal/engine  4  the WAL append reuses the group-commit buffer: nothing over the in-memory insert (measured 3)
BenchmarkEmptyAdvance          ./internal/engine  0  the idle heartbeat walks the cached table set and peeks each texp index
BenchmarkViewReadServe         ./internal/engine  6  a shared snapshot — a header aliasing slots, key set and free list — however large the materialisation (measured 3)
BenchmarkViewReadRows          ./internal/engine  11 SELECT * FROM v and Rows() over 2 000 rows: the memoised parse, a plan, the snapshot, and one result slice, sized by a binary search of the texps of the store, that the store, laid out in tuple order, is filtered into in one pass; no sort, nothing per row; the view name is looked up as a table with no error built for the miss (measured 10; 14 while the miss formatted an error, 22 when every read parsed)
BenchmarkViewReadBirth         ./internal/engine  11 a read of a 20-group histogram view that applies one birth: the row born, taken as a run in tuple order, and the new in-order store it is merged into with the live rows (slot array, texps, header), the escaped snapshots keeping the old one; no key set, no sort of the store; the cost follows the size of the materialisation once per birth batch, never the base table (measured 10; 11 when the store was copied and the row born inserted keyed, 17 when the copy cloned a key map and the row born made a key string; the recomputation it replaces is the next line)
BenchmarkViewReadDrained       ./internal/engine  10 SELECT * FROM v and Rows() of a 2 000-row view after every row has expired, and of one materialised empty: a read after the drain compacts the dead away, so both are the memoised parse, a plan and the snapshot, with no result slice (measured 9 both; 13 while the table lookup of the view name formatted an error)
BenchmarkViewRecomputeHist     ./internal/engine  255 REFRESH of a GROUP BY view over 500 rows in 20 groups, its future included: one pass, nothing per input row but the growth of its partition; the tuple.Set of the groups, and per group the output tuple and two arrays for the change points and values of its later states (measured 232; 286 with a key string per group and per output row, 5 652 when rows and texp(e) were two evaluations)
BenchmarkViewRecomputeDiff     ./internal/engine  885 REFRESH of π(pol) − π(el) over 500 / 250 rows, its critical rows kept as births: each argument collected once, a projected tuple per argument row and a key set per argument; the output, a set, appended unhashed; no second pass for texp(e) (measured 804; 1 569 with a key string per argument row, 4 147 before)
BenchmarkCacheHit              ./internal/engine  4  map probe, epoch check, LRU touch, snapshot header (measured 1, 240 B/op from 10^5 iterations and 247 at 10 000, a fixed warm-up amortised: the 240-B size class, since a base table keeps its texp heap and due rows behind one pointer; 288 while the due slice was a field of every relation header)
BenchmarkCacheHitAfterWrite    ./internal/engine  9  one insert that the leaf of the cached plan rejects, then the lookup that tests it and serves the hit: insert budget plus hit budget; the write tail of the table and the revalidation allocate nothing (measured 4)
BenchmarkCachePatchAfterInsert ./internal/engine  27 one insert that a cached 40-row indexed range selects, then the lookup that patches it: the tail walk, a one-row Δ relation, the IndexScan leaf replaced by σ[Full](Δ) and streamed, the row gained merged with the cached answer into a new in-order store (slot array, texps, header), the new entry; the same at 2 000 and 20 000 table rows, never the table (measured 19 at both; 19 while the row was inserted into a detached copy of the answer, its slot array cloned and re-keyed, left out of tuple order for the next hit to sort; 20 while serving allocated the holder of an order sorted on first read, 26 while the copy cloned a key map and the merge made a key string, 32 while each bound of the range was a closure of its own, 33 while every patch allocated the EXCEPT clash flag)
BenchmarkCachePatchAfterDelete ./internal/engine  56 one write to a cached σ(sess) ⋈ σ(usr), then the lookup that absorbs it: insert, a session the join pairs, streamed as E[sess := Δ] and merged; delete, a selected session with no partner, streamed and found to derive nothing. Δ is the build side and the usr array is scanned for its key, so nothing follows usr; it replaces the re-evaluation of the join, 181 allocs and ≈20× the time (measured 50 insert, 47 delete, the first row of a Δ appended unhashed; 97 for the insert while Δ was probed against a hash of all of σ(usr))
BenchmarkIndexedPointLookup    ./internal/engine  4  lock plan and probe free; the result relation, its one-row slot array and the closure of the collector: an index probe streams a set, appended unhashed (measured 3; 6 with a key string, a map and its bucket per result)
BenchmarkScanFilter            ./internal/engine  16 an unindexed range over 2 000 rows returning about 40: the memoised parse and lowering, the optimiser, the one interval of the predicate, which the array scan tests on the column array with no closure, loading only the rows that pass; then the growth of the slot array (1, 8, 64 rows) the rows returned are appended to, σ over a table being a set: appended unhashed (measured 13; 69 with a key string per row returned and a map, 71 when the interval was a compiled test over tuples, 76 when each bound was a closure of its own, 120 when every read parsed and lowered)
BenchmarkJoinProbe             ./internal/engine  175 2 000 rows through the array scan of a selection and a hash probe against a 20-row build side, about 40 rows out: the build side, a set, appended unhashed; a bucket per build key in the join table and its tuple.Set, and the set of build keys (values, table, header) the scan tests so that only rows a build key equals are loaded and probed; a tuple and a projection per row returned, which the projection, dropping columns, merges in a key set; each probe encodes its key on the stack and allocates nothing per probed row (measured 159; 234 with a key string per build key and per row returned, 261 when every scanned row was loaded and probed, 371 when every read parsed and lowered, 1 331 when every probe made a string)
BenchmarkExecCachedPoint       .                  16 DB.Exec and Rows() of an indexed point read the result cache answers, its text in the statement memo: no parse, no lowering; the optimiser, the cache hit and the result (measured 13; 63 when every read parsed and lowered)
BenchmarkExecInsert            .                  10 DB.Exec of an INSERT … EXPIRES IN text new to the session into a hash-indexed table: lexed into the token buffer the session keeps (nothing), one array for the values and one for the rows, the statement, the stored tuple, its key string (shared by the texp heap pair and the index entry), the index bucket, the result, its message and the texp printed in it (measured 9; 10 when the index kept a key string per bucket, 23 when the lexer grew its slice and upper-cased every word, and the message went through fmt)
BenchmarkIndexedDelete         ./internal/engine  2  victim key slice and the closure filling it; nothing scales with the table, and recording each removed tuple in the write tail adds nothing (measured 2)
BenchmarkSamplerTick           ./internal/monitor 0  the sampler runs forever: one allocation per tick is a slow leak
BenchmarkWireRespondPoint      ./internal/wire    33 a remote point read: parse (its tokens on the stack), one Plan, the probe, the response, which holds the answer relation and copies no row; no per-request session, key string or key set for the answer, sort, EXPLAIN text or kept lowering (measured 32; 35 with a key string and a map for the answer row, 40 when each row was copied into a gob-encodable struct, 49 when the lexer grew a token slice and allocated its symbols, 71 when the optimiser formatted its choices, 110 and 170 KB when it scanned)
BenchmarkPlanPoint             ./internal/sql     21 Session.Plan of a parsed point read that has no lowering to reuse, as the wire server plans every request: the lowering, the pushdown rewrite and its key string, the optimiser costing the probe (measured 21)
BenchmarkPlanRange             ./internal/sql     31 the same for a two-bound range over the unindexed column: the conjunction and its two comparisons, scanned (measured 31)
BenchmarkPlanJoin              ./internal/sql     59 the same for a two-table join with a WHERE on each side: both conjuncts pushed below the join and renumbered into their sides (measured 59)
BenchmarkPlanExcept            ./internal/sql     65 the same for an EXCEPT of two selections: two lowerings, one key (measured 65)
BenchmarkClientLocalRead       ./internal/wire    6  a remote copy that keeps its future read locally, through the same Serve as a view read: the shared snapshot when no birth is due (measured 1); a birth applied, the row born merged with the few live rows into a new in-order store (measured 5; 6 with a copy of the store and a keyed insert, 9 with a key map and a key string)
BenchmarkWireCodec             ./internal/wire    115 a 100-row response appended to a reused frame buffer and decoded: per row only the decoded tuple, which the keyed insert of the answer files, rejecting a repeated row; the answer relation with its slot array and key set sized once for the row count, the schema and the response are the constant (measured 109; 113 with a table of its own checking distinctness beside an unkeyed answer, 211 with a set key per row and a key map sized by the row count)
'

fail=0
while read -r bench pkg max why; do
  [ -n "$bench" ] || continue
  out=$(go test "$pkg" -run '^$' -bench "^${bench}\$" -benchtime=10000x -benchmem)
  echo "$out" | sed -n "/^${bench}/s|\$|   (budget ${max} allocs/op)|p"
  # A benchmark with sub-benchmarks is held to its largest figure.
  allocs=$(echo "$out" | awk -v b="$bench" '$1 ~ "^"b {for (i=1; i<=NF; i++) if ($i == "allocs/op") print $(i-1)}' | sort -n | tail -1)
  if [ -z "$allocs" ]; then
    echo "FAIL $bench: could not parse allocs/op" >&2
    fail=1
  elif [ "$allocs" -gt "$max" ]; then
    echo "FAIL $bench: $allocs allocs/op, budget $max — $why" >&2
    fail=1
  fi
done <<<"$gates"
exit $fail
