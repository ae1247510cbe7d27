package sql

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"expdb/internal/engine"
	"expdb/internal/relation"
)

func TestSelectCarriesValidityAndCached(t *testing.T) {
	s := newSession(t)
	q := "SELECT deg, COUNT(*) FROM pol GROUP BY deg"
	first := mustExec(t, s, q)
	if first.Cached {
		t.Fatal("first SELECT must be a miss")
	}
	if first.Validity.At != 0 || first.Validity.ValidUntil != 10 {
		t.Fatalf("validity = %v, want [0, 10)", first.Validity)
	}
	second := mustExec(t, s, q)
	if !second.Cached {
		t.Fatal("repeated SELECT must be served from the result cache")
	}
	if second.Validity != first.Validity {
		t.Fatalf("cached validity = %v, want %v", second.Validity, first.Validity)
	}
	// Textually different SQL, identical normalized plan: still a hit.
	third := mustExec(t, s, "SELECT   deg, COUNT(*) FROM pol GROUP   BY deg")
	if !third.Cached {
		t.Fatal("whitespace-variant SQL must normalize to the same cache key")
	}
}

func TestSelectCacheInvalidatesOnWriteAndAdvance(t *testing.T) {
	s := newSession(t)
	q := "SELECT deg, COUNT(*) FROM pol GROUP BY deg"
	mustExec(t, s, q)
	mustExec(t, s, "INSERT INTO pol VALUES (9, 25) EXPIRES AT 20")
	res := mustExec(t, s, q)
	if res.Cached {
		t.Fatal("SELECT after INSERT must re-evaluate")
	}
	mustExec(t, s, q) // refill
	mustExec(t, s, "ADVANCE TO 9")
	if !mustExec(t, s, q).Cached {
		t.Fatal("SELECT at ValidUntil-1 must hit")
	}
	mustExec(t, s, "ADVANCE TO 10")
	if mustExec(t, s, q).Cached {
		t.Fatal("SELECT at ValidUntil must re-evaluate")
	}
}

func TestViewReadsAreUncacheable(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE MATERIALIZED VIEW hist AS SELECT deg, COUNT(*) FROM pol GROUP BY deg")
	for i := 0; i < 2; i++ {
		res := mustExec(t, s, "SELECT * FROM hist")
		if res.Cached {
			t.Fatal("view-backed SELECT must never come from the result cache (the view snapshot is already materialised)")
		}
	}
	// A plan that resolved a view embeds its snapshot, so it has no key.
	stmt, err := Parse("SELECT * FROM hist WHERE deg = 25")
	if err != nil {
		t.Fatal(err)
	}
	if p, err := s.Plan(stmt); err != nil || p.Key != "" {
		t.Fatalf("plan over a view: key %q, err %v; want no key", p.Key, err)
	}
	// But its Validity stamp is still present: the view's own window.
	res := mustExec(t, s, "SELECT * FROM hist")
	if res.Validity.ValidUntil != 10 {
		t.Fatalf("view-backed SELECT stamped %v, want the view's window [0, 10)", res.Validity)
	}
}

func TestShowCache(t *testing.T) {
	s := newSession(t)
	q := "SELECT deg, COUNT(*) FROM pol GROUP BY deg"
	mustExec(t, s, q)
	mustExec(t, s, q)
	res := mustExec(t, s, "SHOW CACHE")
	for _, want := range []string{`"hits": 1`, `"misses": 1`, `"revalidations": 0`, `"patches": 0`, `"entries": 1`, `"capacity": 256`, `"hit_nanos"`} {
		if !strings.Contains(res.Msg, want) {
			t.Fatalf("SHOW CACHE output missing %q:\n%s", want, res.Msg)
		}
	}
}

func TestShowCacheDisabled(t *testing.T) {
	s := NewSession(engine.New(engine.WithResultCache(0)), nil)
	_, err := s.Exec("SHOW CACHE")
	if err == nil {
		t.Fatal("SHOW CACHE with the cache off must fail")
	}
	if !errors.Is(err, engine.ErrCacheDisabled) {
		t.Fatalf("error = %v, want ErrCacheDisabled through the SQL layer", err)
	}
	if !strings.Contains(err.Error(), "SHOW CACHE") {
		t.Fatalf("error %q must name the failing statement", err)
	}
}

func TestExplainAnalyzeCacheLine(t *testing.T) {
	s := newSession(t)
	q := "SELECT deg, COUNT(*) FROM pol GROUP BY deg"
	res := mustExec(t, s, "EXPLAIN ANALYZE "+q)
	if !strings.Contains(res.Msg, "cache:     miss (cold)") {
		t.Fatalf("first EXPLAIN ANALYZE must report a cold cache:\n%s", res.Msg)
	}
	mustExec(t, s, q)
	res = mustExec(t, s, "EXPLAIN ANALYZE "+q)
	if !strings.Contains(res.Msg, "cache:     hit") {
		t.Fatalf("EXPLAIN ANALYZE after a SELECT must report a hit:\n%s", res.Msg)
	}
	mustExec(t, s, "INSERT INTO pol VALUES (8, 45) EXPIRES AT 30")
	res = mustExec(t, s, "EXPLAIN ANALYZE "+q)
	if !strings.Contains(res.Msg, "cache:     miss (epoch-stale)") {
		t.Fatalf("EXPLAIN ANALYZE after a write must report epoch-stale:\n%s", res.Msg)
	}
	mustExec(t, s, "CREATE MATERIALIZED VIEW h2 AS SELECT deg, COUNT(*) FROM pol GROUP BY deg")
	res = mustExec(t, s, "EXPLAIN ANALYZE SELECT * FROM h2")
	if !strings.Contains(res.Msg, "uncacheable") {
		t.Fatalf("EXPLAIN ANALYZE over a view must report uncacheable:\n%s", res.Msg)
	}
}

// EXPLAIN ANALYZE's cache line and Exec answer the same question with the
// same function: what one reports, the other does — but for an EXCEPT's
// patch, which the line reports as an attempt.
func TestExplainAnalyzeCacheLineAgreesWithExec(t *testing.T) {
	s := newSession(t)
	q := "SELECT uid FROM pol WHERE deg >= 30"
	mustExec(t, s, q)
	mustExec(t, s, "INSERT INTO pol VALUES (8, 20) EXPIRES AT 30") // deg < 30: the leaf rejects it
	// The probe adopts nothing: asking twice changes nothing.
	for i := 0; i < 2; i++ {
		if res := mustExec(t, s, "EXPLAIN ANALYZE "+q); !strings.Contains(res.Msg, "cache:     hit") {
			t.Fatalf("EXPLAIN ANALYZE after a write the plan cannot see must report a hit:\n%s", res.Msg)
		}
	}
	if !mustExec(t, s, q).Cached {
		t.Fatal("EXPLAIN ANALYZE said hit, the SELECT was not served from the cache")
	}
	mustExec(t, s, "INSERT INTO pol VALUES (9, 45) EXPIRES AT 30") // the leaf selects it
	if res := mustExec(t, s, "EXPLAIN ANALYZE "+q); !strings.Contains(res.Msg, "cache:     patch") {
		t.Fatalf("EXPLAIN ANALYZE after an insert a monotonic plan selects must report patch:\n%s", res.Msg)
	}
	res := mustExec(t, s, q)
	if !res.Cached {
		t.Fatal("EXPLAIN ANALYZE said patch, the SELECT was not answered from the cache entry")
	}
	if got := len(res.Rows()); got != 2 {
		t.Fatalf("rows = %d, want 2 (uid 3 and the new uid 9)", got)
	}
	// The same insert under a GROUP BY drops the entry.
	agg := "SELECT deg, COUNT(*) FROM pol WHERE deg >= 30 GROUP BY deg"
	mustExec(t, s, agg)
	mustExec(t, s, "INSERT INTO pol VALUES (10, 45) EXPIRES AT 30")
	if res := mustExec(t, s, "EXPLAIN ANALYZE "+agg); !strings.Contains(res.Msg, "cache:     miss (epoch-stale)") {
		t.Fatalf("EXPLAIN ANALYZE after an insert a GROUP BY selects must report epoch-stale:\n%s", res.Msg)
	}
	if mustExec(t, s, agg).Cached {
		t.Fatal("EXPLAIN ANALYZE said epoch-stale, the SELECT was served from the cache")
	}
	// A right-side insert into − whose tuple the left lacks is absorbed.
	diff := "SELECT uid FROM pol EXCEPT SELECT uid FROM el"
	mustExec(t, s, diff)
	mustExec(t, s, "INSERT INTO el VALUES (77, 20) EXPIRES AT 30")
	if res := mustExec(t, s, "EXPLAIN ANALYZE "+diff); !strings.Contains(res.Msg, "cache:     patch") {
		t.Fatalf("EXPLAIN ANALYZE after a right-side insert the left lacks must report patch:\n%s", res.Msg)
	}
	if !mustExec(t, s, diff).Cached {
		t.Fatal("EXPLAIN ANALYZE said patch, the EXCEPT was not answered from the cache entry")
	}
	// One the left holds: the probe takes no table lock, so it cannot test
	// the Δ against pol and says patch, which its line words as an attempt;
	// the SELECT finds uid 3 in pol and re-evaluates.
	mustExec(t, s, "INSERT INTO el VALUES (3, 20) EXPIRES AT 30")
	if res := mustExec(t, s, "EXPLAIN ANALYZE "+diff); !strings.Contains(res.Msg, "cache:     patch (a SELECT would try") {
		t.Fatalf("EXPLAIN ANALYZE after a right-side insert the left holds must report a patch attempt:\n%s", res.Msg)
	}
	res = mustExec(t, s, diff)
	if res.Cached {
		t.Fatal("a right-side insert the left holds was absorbed")
	}
	if got := len(res.Rows()); got != 3 {
		t.Fatalf("rows = %d, want 3 (uids 8, 9 and 10; el now hides 3)", got)
	}
}

// rowsSession holds pol with uids 0–39, uid u of degree u%5×10 expiring at
// 10+u, hash-indexed on uid, and a view of it.
func rowsSession(t *testing.T) *Session {
	t.Helper()
	s := NewSession(engine.New(), nil)
	mustExec(t, s, "CREATE TABLE pol (uid INT, deg INT)")
	mustExec(t, s, "CREATE INDEX pol_uid ON pol (uid) USING HASH")
	for u := 0; u < 40; u++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO pol VALUES (%d, %d) EXPIRES AT %d", (u*17)%40, (u*17)%40%5*10, 10+(u*17)%40))
	}
	mustExec(t, s, "CREATE MATERIALIZED VIEW v AS SELECT uid, deg FROM pol")
	return s
}

// Rows hands out the rows a cache hit, a patched hit, a view read and a
// one-row point hit keep, with no copy. Once a row of the answer dies, the
// first read sheds it into a new store, and that read and every later one
// hand out the new store's rows, again with no copy. Neither the rows handed
// out before nor the kept ones change under an ORDER BY of the same answer
// reversed by its caller.
func TestRowsHandsOutTheKeptRows(t *testing.T) {
	for _, tc := range []struct {
		name, q string
		prime   []string // run before the read measured; "" is q
		rows    int
		cached  bool // a view read never comes from the result cache
	}{
		{"cache hit", "SELECT * FROM pol WHERE deg >= 0", []string{"", ""}, 40, true},
		// The patch extends a row: the merge leaves a slot to spare.
		{"patched hit", "SELECT * FROM pol WHERE deg < 20", []string{"", "INSERT INTO pol VALUES (1, 10) EXPIRES AT 100"}, 16, true},
		{"view read", "SELECT * FROM v", []string{"", ""}, 40, false},
		{"point hit", "SELECT * FROM pol WHERE uid = 0", []string{"", ""}, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := rowsSession(t)
			for _, q := range tc.prime {
				if q == "" {
					q = tc.q
				}
				mustExec(t, s, q)
			}
			res := mustExec(t, s, tc.q)
			rows := res.Rows()
			if len(rows) != tc.rows || res.Cached != tc.cached {
				t.Fatalf("%d rows, cached %v; want %d, cached %v", len(rows), res.Cached, tc.rows, tc.cached)
			}
			if a := testing.AllocsPerRun(100, func() { res.Rows() }); a != 0 || &res.Rows()[0] != &rows[0] || cap(rows) != len(rows) {
				t.Fatalf("every row alive: Rows made %.0f allocations, the same rows each call %v, capacity %d of %d; want the kept rows, clipped",
					a, &res.Rows()[0] == &rows[0], cap(rows), len(rows))
			}
			kept := rowsKey(rows)
			ord := mustExec(t, s, tc.q+" ORDER BY uid DESC LIMIT 100")
			slices.Reverse(ord.Rows())
			if next := mustExec(t, s, tc.q); rowsKey(next.Rows()) != kept || rowsKey(rows) != kept {
				t.Fatalf("an ORDER BY reversed by its caller changed the kept rows: %v, next read %v", rows, next.Rows())
			}
			// uid 0 expires at 10: every answer above holds it, and the
			// first read after the ADVANCE sheds it.
			mustExec(t, s, "ADVANCE TO 10")
			res = mustExec(t, s, tc.q)
			shed := res.Rows()
			if len(shed) != tc.rows-1 || res.Cached != tc.cached || rowsKey(shed) != rowsKey(res.Rel.RowsSorted(res.At)) {
				t.Fatalf("a row dead at %d: %d rows, cached %v; want %d in tuple order, cached %v", res.At, len(shed), res.Cached, tc.rows-1, tc.cached)
			}
			for _, row := range shed {
				if row.Texp <= res.At {
					t.Fatalf("Rows at %d handed out %v, dead at %d", res.At, row.Tuple, row.Texp)
				}
			}
			if a := testing.AllocsPerRun(100, func() { res.Rows() }); a != 0 || rowsKey(rows) != kept {
				t.Fatalf("after the shed Rows made %.0f allocations; the rows handed out before the ADVANCE changed: %v", a, rowsKey(rows) != kept)
			}
			if len(shed) > 0 {
				next := mustExec(t, s, tc.q)
				if &res.Rows()[0] != &shed[0] || &next.Rows()[0] != &shed[0] || cap(shed) != len(shed) {
					t.Fatal("after the shed Rows and the next read did not hand out the one store, clipped")
				}
				for i := range rows {
					if &rows[i] == &shed[0] {
						t.Fatal("the shed store is the array handed out before the ADVANCE")
					}
				}
			}
		})
	}
}

// Rows handed out by hits stay what they were while a writer patches the
// entry and ADVANCE sheds rows under it (run it under -race).
func TestKeptRowsSurvivePatchesAndAdvance(t *testing.T) {
	s := rowsSession(t)
	q := "SELECT * FROM pol WHERE deg < 30"
	mustExec(t, s, q)
	var wg sync.WaitGroup
	var stop atomic.Bool
	defer wg.Wait()
	defer stop.Store(true)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := NewSession(s.eng, nil)
			type held struct {
				rows []relation.Row
				key  string
			}
			var kept []held
			check := func() bool {
				for _, h := range kept {
					if got := rowsKey(h.rows); got != h.key {
						t.Errorf("the rows Rows returned changed to %s, were %s", got, h.key)
						return false
					}
				}
				kept = kept[:0]
				return true
			}
			for !stop.Load() {
				res, err := r.Exec(q)
				if err != nil {
					t.Error(err)
					return
				}
				rows := res.Rows()
				if kept = append(kept, held{rows, rowsKey(rows)}); len(kept) == 64 && !check() {
					return
				}
			}
			check()
		}()
	}
	w := NewSession(s.eng, nil)
	raced := func() bool {
		m, err := s.eng.ResultCacheStats()
		return err == nil && m.Patches > 0 && m.Hits > m.Patches
	}
	for i := 0; i < 200 || !raced() && i < 5000; i++ {
		mustExec(t, w, fmt.Sprintf("INSERT INTO pol VALUES (%d, 10) EXPIRES AT %d", 100+i, 12+i))
		if i%4 == 3 {
			mustExec(t, w, fmt.Sprintf("ADVANCE TO %d", 10+i/4))
		}
	}
	if !raced() {
		t.Fatal("no read racing the writer was a hit and none was patched")
	}
}
