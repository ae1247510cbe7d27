package sql

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"expdb/internal/algebra"
	"expdb/internal/engine"
	"expdb/internal/interval"
	"expdb/internal/relation"
	"expdb/internal/value"
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
	for _, want := range []string{`"hits": 1`, `"misses": 1`, `"revalidations": 0`, `"entries": 1`, `"capacity": 256`, `"hit_nanos"`} {
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
// same function: what one reports, the other does.
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
	if res := mustExec(t, s, "EXPLAIN ANALYZE "+q); !strings.Contains(res.Msg, "cache:     miss (epoch-stale)") {
		t.Fatalf("EXPLAIN ANALYZE after a write the plan selects must report epoch-stale:\n%s", res.Msg)
	}
	res := mustExec(t, s, q)
	if res.Cached {
		t.Fatal("EXPLAIN ANALYZE said epoch-stale, the SELECT was served from the cache")
	}
	if got := len(res.Rows()); got != 2 {
		t.Fatalf("rows = %d, want 2 (uid 3 and the new uid 9)", got)
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

// answer is what the oracle compares: a read's rows with their per-tuple
// texp, and its stamp.
type answer struct {
	rows   string
	at     xtime.Time
	stamp  interval.Validity
	cached bool
}

// propertyQuery is one read of the oracle's catalogue: SQL text, or — for
// the one shape the grammar cannot spell, a self-join — a plan built by hand
// and keyed the way Session.Plan keys it, sql then being only its label.
type propertyQuery struct {
	sql   string
	build func(*engine.Engine) (algebra.Expr, error)
}

func (q propertyQuery) run(s *Session) (answer, error) {
	if q.build == nil {
		res, err := s.Exec(q.sql)
		if err != nil {
			return answer{}, err
		}
		return answer{rowsKey(res.Rel.RowsSorted(res.At)), res.At, res.Validity, res.Cached}, nil
	}
	expr, err := q.build(s.eng)
	if err != nil {
		return answer{}, err
	}
	qr, err := s.eng.QueryStamped(expr, algebra.PushDownSelections(expr).String(), 0)
	if err != nil {
		return answer{}, err
	}
	return answer{rowsKey(qr.Rel.RowsSorted(qr.At)), qr.At, qr.Validity, qr.Cached}, nil
}

// selfJoin is σ[deg<30](pol) ⋈[uid=uid] σ[deg≥30](pol): one table under two
// different leaf predicates, both of which a write must be tested against.
func selfJoin(e *engine.Engine) (algebra.Expr, error) {
	pol, err := e.Base("pol")
	if err != nil {
		return nil, err
	}
	deg := func(op algebra.CmpOp) algebra.Expr {
		return &algebra.Select{Pred: algebra.ColConst{Col: 1, Op: op, Const: value.Int(30)}, Child: pol}
	}
	return algebra.EquiJoin(deg(algebra.OpLt), 0, deg(algebra.OpGe), 0)
}

// propertyQueries covers every operator bare and filtered. Filters are on
// deg below 100, where ordinary writes land; bursts write deg ≥ 100, which
// no filter selects.
var propertyQueries = []propertyQuery{
	{sql: "SELECT * FROM pol"},
	{sql: "SELECT uid FROM pol WHERE deg > 20"},
	{sql: "SELECT uid, deg FROM el WHERE deg >= 20 AND deg < 35"},
	{sql: "SELECT uid FROM pol WHERE deg < 40 AND uid >= 10"},
	{sql: "SELECT deg, COUNT(*) FROM pol GROUP BY deg"},
	{sql: "SELECT deg, COUNT(*) FROM pol WHERE deg < 30 GROUP BY deg"},
	{sql: "SELECT deg, SUM(uid) FROM pol GROUP BY deg"},
	{sql: "SELECT MIN(deg), MAX(deg) FROM pol"},
	{sql: "SELECT MIN(uid), MAX(uid) FROM el WHERE deg >= 35 AND deg < 100"},
	{sql: "SELECT uid FROM pol EXCEPT SELECT uid FROM el"},
	{sql: "SELECT uid FROM pol WHERE deg >= 25 AND deg < 100 EXCEPT SELECT uid FROM el WHERE deg < 30"},
	{sql: "SELECT uid FROM pol UNION SELECT uid FROM el"},
	// One table under two different leaf predicates.
	{sql: "SELECT uid FROM pol WHERE deg < 25 UNION SELECT uid FROM pol WHERE deg >= 35 AND deg < 100"},
	{sql: "SELECT uid FROM el WHERE deg <= 20 INTERSECT SELECT uid FROM el WHERE deg >= 35 AND deg < 100"},
	{sql: "σ[deg<30](pol) ⋈[uid=uid] σ[deg≥30](pol)", build: selfJoin},
	{sql: "SELECT uid FROM pol INTERSECT SELECT uid FROM el"},
	{sql: "SELECT uid FROM pol WHERE deg = 20 INTERSECT SELECT uid FROM el WHERE deg = 20"},
	{sql: "SELECT pol.uid, el.deg FROM pol JOIN el ON pol.uid = el.uid"},
	{sql: "SELECT pol.uid, el.deg FROM pol JOIN el ON pol.uid = el.uid WHERE pol.deg >= 30 AND pol.deg < 100 AND el.deg < 30"},
	// The predicate compares the two sides, so it stays above the join and
	// both leaves are bare.
	{sql: "SELECT pol.uid, el.deg FROM pol JOIN el ON pol.uid = el.uid WHERE pol.deg > el.deg"},
}

// engineWriteTail is engine.writeTailLen: bursts are sized around it.
const engineWriteTail = 64

// TestCachedEqualsUncachedProperty is the correctness contract: a session
// with the cache on must answer every query identically to a cache-off
// session — rows, per-tuple texp, and a stamp that is true and no longer
// than a fresh evaluation's — across random plans interleaved with inserts,
// lifetime extensions, no-change duplicates, multi-row deletes, DROP +
// CREATE of a table and clock advances, on the same stream with and without
// ordered indexes. A run in which no entry outlives a write it cannot see
// proves nothing about that rule and fails. Run under -race it also
// exercises the lookup/write/advance lock interplay from concurrent readers.
func TestCachedEqualsUncachedProperty(t *testing.T) {
	t.Run("scan", func(t *testing.T) { cachedEqualsUncached(t, false) })
	t.Run("indexed", func(t *testing.T) { cachedEqualsUncached(t, true) })
}

func cachedEqualsUncached(t *testing.T, indexed bool) {
	rng := rand.New(rand.NewSource(20060418))
	cached := NewSession(engine.New(), nil)
	plain := NewSession(engine.New(engine.WithResultCache(0)), nil)
	both := func(q string) {
		t.Helper()
		if _, err := cached.Exec(q); err != nil {
			t.Fatalf("cached %q: %v", q, err)
		}
		if _, err := plain.Exec(q); err != nil {
			t.Fatalf("plain %q: %v", q, err)
		}
	}
	create := func(table string) {
		both("CREATE TABLE " + table + " (uid INT, deg INT)")
		if indexed {
			both(fmt.Sprintf("CREATE INDEX %s_deg ON %s (deg) USING ORDERED", table, table))
		}
	}
	create("pol")
	create("el")

	now := int64(0)
	hits, step := 0, 0
	read := func(q propertyQuery) {
		t.Helper()
		a, err := q.run(cached)
		if err != nil {
			t.Fatalf("cached %s: %v", q.sql, err)
		}
		b, err := q.run(plain)
		if err != nil {
			t.Fatalf("plain %s: %v", q.sql, err)
		}
		if b.cached {
			t.Fatal("cache-off session must never report Cached")
		}
		if a.rows != b.rows {
			t.Fatalf("step %d: %s diverged at tick %d (cached=%v)\ncached: %s\nuncached: %s", step, q.sql, now, a.cached, a.rows, b.rows)
		}
		if a.at != b.at || a.stamp.At > a.at || a.at >= a.stamp.ValidUntil {
			t.Fatalf("step %d: %s answered at %v (fresh: %v) under the stamp %v", step, q.sql, a.at, b.at, a.stamp)
		}
		if a.stamp.ValidUntil > b.stamp.ValidUntil {
			t.Fatalf("step %d: %s stamped valid until %v, a fresh evaluation only until %v (cached=%v)", step, q.sql, a.stamp.ValidUntil, b.stamp.ValidUntil, a.cached)
		}
		if a.cached {
			hits++
		}
	}
	readAll := func() {
		t.Helper()
		for _, q := range propertyQueries {
			read(q)
		}
	}
	table := func() string {
		if rng.Intn(2) == 0 {
			return "el"
		}
		return "pol"
	}
	// Mostly multiples of five, so that equal tuples recur (an extension or
	// a no-change duplicate, by the texp drawn) and DELETE … WHERE deg = c
	// removes several rows; sometimes a FLOAT or a NULL in the INT column.
	deg := func() string {
		switch r := rng.Intn(12); r {
		case 0:
			return "NULL"
		case 1:
			return fmt.Sprintf("%d.5", 15+rng.Intn(6)*5)
		default:
			return fmt.Sprint(15 + rng.Intn(6)*5)
		}
	}
	insert := func(table, deg string) {
		both(fmt.Sprintf("INSERT INTO %s VALUES (%d, %s) EXPIRES AT %d", table, rng.Intn(30), deg, now+1+int64(rng.Intn(25))))
	}
	for step = 0; step < 1200; step++ {
		switch r := rng.Intn(100); {
		case r < 14:
			insert(table(), deg())
		case r < 18:
			both(fmt.Sprintf("DELETE FROM %s WHERE deg = %d", table(), 15+rng.Intn(6)*5))
		case r < 20:
			both(fmt.Sprintf("DELETE FROM %s WHERE deg >= %d AND uid < %d", table(), 15+rng.Intn(6)*5, rng.Intn(30)))
		case r < 21:
			// One write the filters may select, then a burst none of them
			// does: one fewer than the tail holds, exactly as many, one
			// more, many more. Entries are warm before and read after.
			readAll()
			tab := table()
			insert(tab, deg())
			burst := engineWriteTail + []int{-2, -1, 0, 16}[rng.Intn(4)]
			for i := 0; i < burst; i++ {
				both(fmt.Sprintf("INSERT INTO %s VALUES (%d, %d) EXPIRES AT %d", tab, i, 100+rng.Intn(3), now+1+int64(rng.Intn(3))))
			}
			readAll()
		case r < 22:
			readAll()
			tab := table()
			both("DROP TABLE " + tab)
			create(tab)
			readAll()
		case r < 30:
			now += int64(rng.Intn(3) + 1)
			both(fmt.Sprintf("ADVANCE TO %d", now))
		default: // read; repeats are frequent so hits actually happen
			read(propertyQueries[rng.Intn(len(propertyQueries))])
		}
	}
	m, err := cached.eng.ResultCacheStats()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d reads served from the cache, %d of them revalidated after a write; %d entries dropped by a write", hits, m.Revalidations, m.EpochInvalidations)
	if hits == 0 || m.Revalidations == 0 || m.EpochInvalidations == 0 {
		t.Fatal("property run never hit the cache, never revalidated an entry or never dropped one — the test is vacuous")
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
				if _, err := propertyQueries[r.Intn(len(propertyQueries))].run(sess); err != nil {
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
