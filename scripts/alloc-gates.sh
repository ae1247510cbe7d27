#!/usr/bin/env bash
# Hot-path allocation budgets: runs each benchmark in the table below and
# fails if its allocs/op exceed the budget. One-shot runs over-report
# (key-map and slot-array growth amortise away); 10000x is deterministic at
# these budgets and each benchmark still runs in about a second or less.
# Each result line ends with the budget it was held to, so headroom shows in
# the CI log.
#
# benchmark | package | max allocs/op | what the budget protects
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

gates='
BenchmarkInsertMetricsOverhead ./internal/engine  5  insert: stored tuple, set key, texp-index pair; the slot array and the key map grow amortised (measured 3)
BenchmarkDurableInsert         ./internal/engine  4  the WAL append reuses the group-commit buffer: nothing over the in-memory insert (measured 3)
BenchmarkEmptyAdvance          ./internal/engine  0  the idle heartbeat walks the cached table set and peeks each texp index
BenchmarkViewReadServe         ./internal/engine  6  a shared snapshot — a header aliasing slots, key map and free list — however large the materialisation (measured 3)
BenchmarkViewReadRows          ./internal/engine  15 SELECT * FROM v and Rows() over 2 000 rows: the memoised parse, a plan, the snapshot, and one result slice, sized by a count of the live rows, that the remembered slot order is filtered into; no sort, nothing per row (measured 14; 22 when every read parsed)
BenchmarkViewReadBirth         ./internal/engine  20 a read of a 20-group histogram view that applies one birth: the copy of the store its escaped snapshots are owed (slot array, key map, free list), the dead rows punched out of it, plus the tuple and set key of the row born; the cost follows the size of the materialisation once per birth batch, never the base table (measured 17; the recomputation it replaces is the next line)
BenchmarkViewRecomputeHist     ./internal/engine  300 REFRESH of a GROUP BY view over 500 rows in 20 groups, its future included: one pass, nothing per input row but the growth of its partition; per group a key, the output tuple and its set key, and two arrays for the change points and values of its later states (measured 286, 231 without the future; 5 652 when rows and texp(e) were two evaluations)
BenchmarkViewRecomputeDiff     ./internal/engine  1750 REFRESH of π(pol) − π(el) over 500 / 250 rows, its critical rows kept as births: each argument collected once, a projected tuple and a set key per argument row, the output reusing the keys; no second pass for texp(e) (measured 1 569; 4 147 before)
BenchmarkCacheHit              ./internal/engine  4  map probe, epoch check, LRU touch, snapshot header (measured 1)
BenchmarkCacheHitAfterWrite    ./internal/engine  9  one insert that the leaf of the cached plan rejects, then the lookup that tests it and serves the hit: insert budget plus hit budget; the write tail of the table and the revalidation allocate nothing (measured 4)
BenchmarkCachePatchAfterInsert ./internal/engine  37 one insert that a cached 40-row indexed range selects, then the lookup that patches it: the tail walk, a one-row Δ relation, the IndexScan leaf replaced by σ[Full](Δ) and streamed, the copy of the cached answer the row is merged into, the new entry; the same at 2 000 and 20 000 table rows, never the table (measured 26 at both; 32 while each bound of the range was a closure of its own, 33 while every patch allocated the EXCEPT clash flag)
BenchmarkIndexedPointLookup    ./internal/engine  6  lock plan and probe free; result relation, key map, its bucket, a one-row slot array, key, closure (measured 6)
BenchmarkScanFilter            ./internal/engine  84 an unindexed range over 2 000 rows returning about 40: the memoised parse and lowering, the optimiser, the one interval of the predicate, which the array scan tests on the column array with no closure, loading only the rows that pass; then a set key per row returned and the growth of the key map and of the slot array (1, 8, 64 rows); allocations follow output rows, never scanned rows (measured 69; 71 when the interval was a compiled test over tuples, 76 when each bound was a closure of its own, 120 when every read parsed and lowered)
BenchmarkJoinProbe             ./internal/engine  287 2 000 rows through the array scan of a selection and a hash probe against a 20-row build side, about 40 rows out: a key and a bucket per build row, and the set of build keys (keys, bitmap, header) the scan tests so that only rows a build key equals are loaded and probed; a tuple, a projection and a set key per row returned; the probe encodes into one buffer and allocates nothing per probed row (measured 260; 261 when every scanned row was loaded and probed, 371 when every read parsed and lowered, 1 331 when every probe made a string)
BenchmarkExecCachedPoint       .                  16 DB.Exec and Rows() of an indexed point read the result cache answers, its text in the statement memo: no parse, no lowering; the optimiser, the cache hit and the result (measured 13; 63 when every read parsed and lowered)
BenchmarkExecInsert            .                  10 DB.Exec of an INSERT … EXPIRES IN text new to the session into a hash-indexed table: lexed into the token buffer the session keeps (nothing), one array for the values and one for the rows, the statement, the stored tuple, its set key, the key and entry of the hash index, the result, its message and the texp printed in it (measured 10; 23 when the lexer grew its slice and upper-cased every word, and the message went through fmt)
BenchmarkIndexedDelete         ./internal/engine  2  victim key slice and the closure filling it; nothing scales with the table, and recording each removed tuple in the write tail adds nothing (measured 2)
BenchmarkSamplerTick           ./internal/monitor 0  the sampler runs forever: one allocation per tick is a slow leak
BenchmarkWireRespondPoint      ./internal/wire    35 a remote point read: parse (its tokens on the stack), one Plan, the probe, the response, which holds the answer relation and copies no row; no per-request session, second key derivation, sort, EXPLAIN text or kept lowering (measured 35; 40 when each row was copied into a gob-encodable struct, 49 when the lexer grew a token slice and allocated its symbols, 71 when the optimiser formatted its choices, 110 and 170 KB when it scanned)
BenchmarkPlanPoint             ./internal/sql     21 Session.Plan of a parsed point read that has no lowering to reuse, as the wire server plans every request: the lowering, the pushdown rewrite and its key string, the optimiser costing the probe (measured 21)
BenchmarkPlanRange             ./internal/sql     31 the same for a two-bound range over the unindexed column: the conjunction and its two comparisons, scanned (measured 31)
BenchmarkPlanJoin              ./internal/sql     59 the same for a two-table join with a WHERE on each side: both conjuncts pushed below the join and renumbered into their sides (measured 59)
BenchmarkPlanExcept            ./internal/sql     65 the same for an EXCEPT of two selections: two lowerings, one key (measured 65)
BenchmarkClientLocalRead       ./internal/wire    9  a remote copy that keeps its future read locally, through the same Serve as a view read: the shared snapshot when no birth is due (measured 1); a birth applied, the copy of the few live rows it is owed and the row born (measured 9)
BenchmarkWireCodec             ./internal/wire    211 a 100-row response appended to a reused frame buffer and decoded: per row only the decoded tuple and its set key; the answer relation, sized by the row count, its schema and the response are the constant (measured 211)
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
