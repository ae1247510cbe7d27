package sql

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"expdb/internal/engine"
	"expdb/internal/relation"
	"expdb/internal/xtime"
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
	for _, want := range []string{`"hits": 1`, `"misses": 1`, `"entries": 1`, `"capacity": 256`, `"hit_nanos"`} {
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

// rowsKey renders a result set order-independently for equality checks.
func rowsKey(rows []relation.Row) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = fmt.Sprintf("%s@%s", r.Tuple, r.Texp)
	}
	return strings.Join(parts, "|")
}

// TestCachedEqualsUncachedProperty is the correctness contract: a session
// with the cache on must answer every query identically to a cache-off
// session, across random plans interleaved with inserts and clock
// advances. Run under -race it also exercises the lookup/write/advance
// lock interplay from concurrent readers.
func TestCachedEqualsUncachedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20060418))
	cached := NewSession(engine.New(), nil)
	plain := NewSession(engine.New(engine.WithResultCache(0)), nil)
	both := func(q string) (*Result, *Result) {
		t.Helper()
		a, err := cached.Exec(q)
		if err != nil {
			t.Fatalf("cached %q: %v", q, err)
		}
		b, err := plain.Exec(q)
		if err != nil {
			t.Fatalf("plain %q: %v", q, err)
		}
		return a, b
	}
	both("CREATE TABLE pol (uid INT, deg INT)")
	both("CREATE TABLE el (uid INT, deg INT)")

	queries := []string{
		"SELECT * FROM pol",
		"SELECT uid FROM pol WHERE deg > 20",
		"SELECT deg, COUNT(*) FROM pol GROUP BY deg",
		"SELECT deg, SUM(uid) FROM pol GROUP BY deg",
		"SELECT uid FROM pol EXCEPT SELECT uid FROM el",
		"SELECT uid FROM pol UNION SELECT uid FROM el",
		"SELECT uid FROM pol INTERSECT SELECT uid FROM el",
		"SELECT pol.uid, el.deg FROM pol JOIN el ON pol.uid = el.uid",
		"SELECT MIN(deg), MAX(deg) FROM pol",
	}
	now := int64(0)
	hits := 0
	for step := 0; step < 400; step++ {
		switch r := rng.Intn(10); {
		case r < 2: // write
			table := "pol"
			if rng.Intn(2) == 0 {
				table = "el"
			}
			q := fmt.Sprintf("INSERT INTO %s VALUES (%d, %d) EXPIRES AT %d",
				table, rng.Intn(30), 20+rng.Intn(4)*5, now+1+int64(rng.Intn(25)))
			both(q)
		case r < 3: // advance
			now += int64(rng.Intn(3) + 1)
			both(fmt.Sprintf("ADVANCE TO %d", now))
		default: // read; repeats are frequent so hits actually happen
			q := queries[rng.Intn(len(queries))]
			a, b := both(q)
			if a.Cached {
				hits++
			}
			if b.Cached {
				t.Fatal("cache-off session must never report Cached")
			}
			ra := rowsKey(a.Rel.RowsSorted(a.At))
			rb := rowsKey(b.Rel.RowsSorted(b.At))
			if ra != rb {
				t.Fatalf("step %d: %q diverged at tick %d\ncached: %s\nuncached: %s", step, q, now, ra, rb)
			}
		}
	}
	if hits == 0 {
		t.Fatal("property run never hit the cache — the test is vacuous")
	}

	// Concurrent phase: hammer the cached engine from parallel readers
	// while a writer inserts and advances; -race checks the locking, the
	// per-goroutine sessions check nothing panics or misplans.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	eng := cached.eng
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			sess := NewSession(eng, nil)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sess.Exec(queries[r.Intn(len(queries))]); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g) + 7)
	}
	writer := NewSession(eng, nil)
	for i := 0; i < 50; i++ {
		if _, err := writer.Exec(fmt.Sprintf("INSERT INTO pol VALUES (%d, 25) EXPIRES AT %d", 100+i, now+int64(i)+5)); err != nil {
			t.Error(err)
			break
		}
		now++
		if _, err := writer.Exec(fmt.Sprintf("ADVANCE TO %d", now)); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if eng.Now() != xtime.Time(now) {
		t.Fatalf("clock = %v, want %v", eng.Now(), now)
	}
}
