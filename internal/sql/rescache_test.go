package sql

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
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

// run reads q through s: through Exec and its statement memo when memo is
// set, else parsed and lowered anew.
func (q propertyQuery) run(s *Session, memo bool) (answer, error) {
	if q.build == nil {
		exec := s.Exec
		if !memo {
			exec = s.execFresh
		}
		res, err := exec(q.sql)
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

// selfJoin builds σ[deg op1 c1](pol) ⋈[uid=uid] σ[deg op2 c2](pol): one
// table under two leaf predicates, both of which a write must be tested
// against and, where both select it, patched into (Δ⋈Δ).
func selfJoin(op1 algebra.CmpOp, c1 int64, op2 algebra.CmpOp, c2 int64) func(*engine.Engine) (algebra.Expr, error) {
	return func(e *engine.Engine) (algebra.Expr, error) {
		pol, err := e.Base("pol")
		if err != nil {
			return nil, err
		}
		deg := func(op algebra.CmpOp, c int64) algebra.Expr {
			return &algebra.Select{Pred: algebra.ColConst{Col: 1, Op: op, Const: value.Int(c)}, Child: pol}
		}
		return algebra.EquiJoin(deg(op1, c1), 0, deg(op2, c2), 0)
	}
}

// elExceptSelfJoin builds π[uid](σ[deg<100](el)) − π[uid](σ[deg<40](pol)
// ⋈[uid=uid] σ[deg≥20](pol)): a difference whose right argument reads pol
// through two leaves, so one DELETE of a row the join pairs with itself
// reaches both.
func elExceptSelfJoin(e *engine.Engine) (algebra.Expr, error) {
	el, err := e.Base("el")
	if err != nil {
		return nil, err
	}
	join, err := selfJoin(algebra.OpLt, 40, algebra.OpGe, 20)(e)
	if err != nil {
		return nil, err
	}
	left := &algebra.Select{Pred: algebra.ColConst{Col: 1, Op: algebra.OpLt, Const: value.Int(100)}, Child: el}
	return algebra.NewDiff(&algebra.Project{Cols: []int{0}, Child: left}, &algebra.Project{Cols: []int{0}, Child: join})
}

// propertyQueries covers every operator bare and filtered. Filters are on
// deg below 100, where ordinary writes land; bursts write deg ≥ 100, which
// no filter selects. A FuzzCachePatch read picks its query by an operand
// modulo the length, so a new entry changes what the regression seeds
// read: re-point them at the query they were kept for.
var propertyQueries = []propertyQuery{
	{sql: "SELECT * FROM pol"},
	{sql: "SELECT uid FROM pol WHERE deg > 20"},
	{sql: "SELECT uid, deg FROM el WHERE deg >= 20 AND deg < 35"},
	{sql: "SELECT uid FROM pol WHERE deg < 40 AND uid >= 10"},
	// π drops the key column: re-inserts that extend a lifetime, and other
	// uids with the same deg, merge into one row by max.
	{sql: "SELECT deg FROM el WHERE deg < 100"},
	{sql: "SELECT deg, COUNT(*) FROM pol GROUP BY deg"},
	{sql: "SELECT deg, COUNT(*) FROM pol WHERE deg < 30 GROUP BY deg"},
	{sql: "SELECT deg, SUM(uid) FROM pol GROUP BY deg"},
	{sql: "SELECT MIN(deg), MAX(deg) FROM pol"},
	{sql: "SELECT MIN(uid), MAX(uid) FROM el WHERE deg >= 35 AND deg < 100"},
	// Root differences: writes to the right side, with and without a
	// matching left tuple, inserts and deletes, are absorbed or re-evaluated.
	{sql: "SELECT uid FROM pol EXCEPT SELECT uid FROM el"},
	{sql: "SELECT uid FROM pol WHERE deg >= 25 AND deg < 100 EXCEPT SELECT uid FROM el WHERE deg < 30"},
	{sql: "SELECT uid FROM el WHERE deg < 100 EXCEPT SELECT uid FROM pol WHERE deg >= 25"},
	{sql: "SELECT uid FROM pol UNION SELECT uid FROM el"},
	// One table under two different leaf predicates: disjoint ranges, and
	// overlapping ones an insert can pass both of.
	{sql: "SELECT uid FROM pol WHERE deg < 25 UNION SELECT uid FROM pol WHERE deg >= 35 AND deg < 100"},
	{sql: "SELECT uid FROM pol WHERE deg <= 25 UNION SELECT uid FROM pol WHERE deg >= 20 AND deg < 100"},
	{sql: "SELECT uid FROM el WHERE deg <= 20 INTERSECT SELECT uid FROM el WHERE deg >= 35 AND deg < 100"},
	{sql: "σ[deg<30](pol) ⋈[uid=uid] σ[deg≥30](pol)", build: selfJoin(algebra.OpLt, 30, algebra.OpGe, 30)},
	{sql: "σ[deg<40](pol) ⋈[uid=uid] σ[deg≥20](pol)", build: selfJoin(algebra.OpLt, 40, algebra.OpGe, 20)},
	{sql: "SELECT uid FROM pol INTERSECT SELECT uid FROM el"},
	{sql: "SELECT uid FROM pol WHERE deg = 20 INTERSECT SELECT uid FROM el WHERE deg = 20"},
	{sql: "SELECT pol.uid, el.deg FROM pol JOIN el ON pol.uid = el.uid"},
	{sql: "SELECT pol.uid, el.deg FROM pol JOIN el ON pol.uid = el.uid WHERE pol.deg >= 30 AND pol.deg < 100 AND el.deg < 30"},
	// The predicate compares the two sides, so it stays above the join and
	// both leaves are bare.
	{sql: "SELECT pol.uid, el.deg FROM pol JOIN el ON pol.uid = el.uid WHERE pol.deg > el.deg"},
	// Differences whose right argument has two leaves, which one burst of
	// DELETEs can reach both of: a join of pol with el, a self-join of pol.
	{sql: "SELECT uid FROM pol WHERE deg >= 30 AND deg < 100 EXCEPT SELECT pol.uid FROM pol JOIN el ON pol.uid = el.uid WHERE pol.deg < 30"},
	{sql: "π[uid](σ[deg<100](el)) − π[uid](σ[deg<40](pol) ⋈[uid=uid] σ[deg≥20](pol))", build: elExceptSelfJoin},
}

// engineWriteTail is engine.writeTailLen: bursts are sized around it.
const engineWriteTail = 64

// execFresh runs q past the statement memo: parsed, lowered and optimised
// anew.
func (s *Session) execFresh(q string) (*Result, error) {
	stmt, err := Parse(q)
	if err != nil {
		return nil, err
	}
	return s.ExecStmt(stmt)
}

// oracle runs one stream of statements through a session with the cache and
// the statement memo, and one with neither, and checks every read of
// propertyQueries against the fresh answer: rows, per-tuple texp, and a
// stamp that is true — it holds the read's tick, ends no later than a fresh
// evaluation's and starts no earlier than the last write that changed the
// fresh answer — and that the memoised plan is the one a session without a
// memo makes. It counts the reads answered from the cache, those of them
// patched, and the patched reads of a root difference (which keep their
// rows through a right-side write).
type oracle struct {
	t                   testing.TB
	cached, plain       *Session
	indexed             bool
	indexes             map[string]bool // the indexes that exist, by name
	now                 int64
	step                int
	changedAt           []xtime.Time // per propertyQueries entry
	hits, patched, kept int
}

func newOracle(t testing.TB, indexed bool) *oracle {
	o := &oracle{
		t:         t,
		cached:    NewSession(engine.New(), nil),
		plain:     NewSession(engine.New(engine.WithResultCache(0)), nil),
		indexed:   indexed,
		indexes:   map[string]bool{},
		changedAt: make([]xtime.Time, len(propertyQueries)),
	}
	o.write(append(o.create("pol", "uid INT, deg INT"), o.create("el", "uid INT, deg INT")...)...)
	return o
}

// create is the DDL of one of the two tables, ordered index included.
func (o *oracle) create(table, cols string) []string {
	ddl := []string{"CREATE TABLE " + table + " (" + cols + ")"}
	delete(o.indexes, table+"_uid")
	if o.indexes[table+"_deg"] = o.indexed; o.indexed {
		ddl = append(ddl, fmt.Sprintf("CREATE INDEX %s_deg ON %s (deg) USING ORDERED", table, table))
	}
	return ddl
}

// index creates the named index on col if it does not exist, and drops it
// if it does.
func (o *oracle) index(table, col, using string) {
	o.t.Helper()
	name := table + "_" + col
	if o.indexes[name] = !o.indexes[name]; o.indexes[name] {
		o.write(fmt.Sprintf("CREATE INDEX %s ON %s (%s) USING %s", name, table, col, using))
	} else {
		o.write("DROP INDEX " + name)
	}
}

// swap drops table and creates it again with cols. With elsewhere set, the
// cached engine's DDL runs in another session: the reading session's own
// DROP TABLE empties its memo, another's leaves the memoised lowerings over
// the dropped relation for the pointer test to refuse.
func (o *oracle) swap(table, cols string, elsewhere bool) {
	o.t.Helper()
	if elsewhere {
		reader := o.cached
		o.cached = NewSession(reader.eng, nil)
		defer func() { o.cached = reader }()
	}
	o.write(append([]string{"DROP TABLE " + table}, o.create(table, cols)...)...)
}

// both runs q in both sessions.
func (o *oracle) both(q string) {
	o.t.Helper()
	if _, err := o.cached.Exec(q); err != nil {
		o.t.Fatalf("cached %q: %v", q, err)
	}
	if _, err := o.plain.execFresh(q); err != nil {
		o.t.Fatalf("plain %q: %v", q, err)
	}
}

// write runs stmts — writes at one tick — in both sessions, and notes the
// queries whose fresh answer they changed.
func (o *oracle) write(stmts ...string) {
	o.t.Helper()
	before := o.fresh()
	for _, q := range stmts {
		o.both(q)
	}
	for i, a := range o.fresh() {
		if a != before[i] {
			o.changedAt[i] = xtime.Time(o.now)
		}
	}
}

// fresh is every query's answer off the uncached session, or its error.
func (o *oracle) fresh() []string {
	out := make([]string, len(propertyQueries))
	for i, q := range propertyQueries {
		a, err := q.run(o.plain, false)
		out[i] = a.rows
		if err != nil {
			out[i] = err.Error()
		}
	}
	return out
}

func (o *oracle) advance(by int64) {
	o.t.Helper()
	o.now += by
	o.both(fmt.Sprintf("ADVANCE TO %d", o.now))
}

func (o *oracle) patches() int64 {
	m, err := o.cached.eng.ResultCacheStats()
	if err != nil {
		o.t.Fatal(err)
	}
	return m.Patches
}

func (o *oracle) read(i int) {
	o.t.Helper()
	q := propertyQueries[i]
	patches := o.patches()
	a, err := q.run(o.cached, true)
	if err != nil {
		o.t.Fatalf("cached %s: %v", q.sql, err)
	}
	b, err := q.run(o.plain, false)
	if err != nil {
		o.t.Fatalf("plain %s: %v", q.sql, err)
	}
	if q.build == nil {
		o.samePhysical(q.sql)
	}
	if b.cached {
		o.t.Fatal("cache-off session must never report Cached")
	}
	if a.rows != b.rows {
		o.t.Fatalf("step %d: %s diverged at tick %d (cached=%v)\ncached: %s\nuncached: %s", o.step, q.sql, o.now, a.cached, a.rows, b.rows)
	}
	if a.at != b.at || a.stamp.At > a.at || a.at >= a.stamp.ValidUntil {
		o.t.Fatalf("step %d: %s answered at %v (fresh: %v) under the stamp %v", o.step, q.sql, a.at, b.at, a.stamp)
	}
	if a.stamp.ValidUntil > b.stamp.ValidUntil {
		o.t.Fatalf("step %d: %s stamped valid until %v, a fresh evaluation only until %v (cached=%v)", o.step, q.sql, a.stamp.ValidUntil, b.stamp.ValidUntil, a.cached)
	}
	if a.stamp.At < o.changedAt[i] {
		o.t.Fatalf("step %d: %s stamped %v, but a write at %v changed its answer (cached=%v)", o.step, q.sql, a.stamp, o.changedAt[i], a.cached)
	}
	if a.cached {
		o.hits++
		if o.patches() > patches {
			o.patched++
			if strings.Contains(q.sql, "EXCEPT") {
				o.kept++
			}
		}
	}
}

// samePhysical checks that the plan the cached session's memo gives q is
// the one a session without a memo makes of it.
func (o *oracle) samePhysical(q string) {
	o.t.Helper()
	sel := o.cached.memo[q]
	if sel == nil {
		return // not admitted yet
	}
	p, err := o.cached.Plan(sel)
	if err != nil {
		o.t.Fatal(err)
	}
	if got, want := p.Physical.String(), freshPlan(o.t, o.cached, q).Physical.String(); got != want {
		o.t.Fatalf("step %d: %s through the memo plans %s, afresh %s", o.step, q, got, want)
	}
}

func (o *oracle) readAll() {
	o.t.Helper()
	for i := range propertyQueries {
		o.read(i)
	}
}

// TestCachedEqualsUncachedProperty is the correctness contract: a session
// with the cache on must answer every query identically to a cache-off
// session — rows, per-tuple texp, and a stamp that is true (oracle) — across
// random plans interleaved with inserts, lifetime extensions, no-change
// duplicates, multi-row deletes, bursts past the write tail, bursts over
// both sides of a join, DROP + CREATE of a table and clock advances, on the
// same stream with and without ordered indexes. A run in which no entry
// outlives a write it cannot see, absorbs one it can, keeps a difference
// through a right-side write or is dropped proves nothing about that rule and
// fails. Run under -race it also exercises the lookup/patch/write/advance
// lock interplay from concurrent readers.
func TestCachedEqualsUncachedProperty(t *testing.T) {
	t.Run("scan", func(t *testing.T) { cachedEqualsUncached(t, false) })
	t.Run("indexed", func(t *testing.T) { cachedEqualsUncached(t, true) })
}

func cachedEqualsUncached(t *testing.T, indexed bool) {
	rng := rand.New(rand.NewSource(20060418))
	o := newOracle(t, indexed)
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
	insert := func(table string, uid int, deg string) string {
		return fmt.Sprintf("INSERT INTO %s VALUES (%d, %s) EXPIRES AT %d", table, uid, deg, o.now+1+int64(rng.Intn(25)))
	}
	for o.step = 0; o.step < 1200; o.step++ {
		switch r := rng.Intn(100); {
		case r < 14:
			o.write(insert(table(), rng.Intn(30), deg()))
		case r < 18:
			o.write(fmt.Sprintf("DELETE FROM %s WHERE deg = %d", table(), 15+rng.Intn(6)*5))
		case r < 20:
			o.write(fmt.Sprintf("DELETE FROM %s WHERE deg >= %d AND uid < %d", table(), 15+rng.Intn(6)*5, rng.Intn(30)))
		case r < 21:
			// One write the filters may select, then a burst none of them
			// does: one fewer than the tail holds, exactly as many, one
			// more, many more. Entries are warm before and read after.
			o.readAll()
			tab := table()
			burst := []string{insert(tab, rng.Intn(30), deg())}
			for i := engineWriteTail + []int{-2, -1, 0, 16}[rng.Intn(4)]; i > 0; i-- {
				burst = append(burst, fmt.Sprintf("INSERT INTO %s VALUES (%d, %d) EXPIRES AT %d", tab, i, 100+rng.Intn(3), o.now+1+int64(rng.Intn(3))))
			}
			o.write(burst...)
			o.readAll()
		case r < 22:
			// Both sides of a join written between two reads, twice: the
			// same uids into pol (two rows) and el under degrees the filters
			// select; then each uid's low-degree pol rows deleted, with or
			// without its el rows. Its other pol row stays, so a difference
			// whose right argument joins pol with el, or pol with itself, may
			// show the uid again.
			o.readAll()
			var ins, del []string
			for i := 0; i < 3; i++ {
				uid := rng.Intn(30)
				ins = append(ins, insert("pol", uid, deg()), insert("pol", uid, deg()), insert("el", uid, deg()))
				if rng.Intn(2) == 0 {
					del = append(del, fmt.Sprintf("DELETE FROM el WHERE uid = %d", uid))
				}
				del = append(del, fmt.Sprintf("DELETE FROM pol WHERE uid = %d AND deg < 30", uid))
			}
			o.write(ins...)
			o.readAll()
			o.write(del...)
			o.readAll()
		case r < 23:
			o.readAll()
			o.swap(table(), "uid INT, deg INT", o.step%2 == 0)
			o.readAll()
		case r < 31:
			o.advance(int64(rng.Intn(3) + 1))
		default: // read; repeats are frequent so hits actually happen
			o.read(rng.Intn(len(propertyQueries)))
		}
	}
	m, err := o.cached.eng.ResultCacheStats()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d reads served from the cache: %d revalidated after a write, %d patched (%d of them root differences that kept their rows); %d entries dropped by a write",
		o.hits, m.Revalidations, o.patched, o.kept, m.EpochInvalidations)
	if o.hits == 0 || m.Revalidations == 0 || o.patched == 0 || o.kept == 0 || m.EpochInvalidations == 0 {
		t.Fatal("property run never hit the cache, revalidated, patched or kept a difference, or never dropped an entry — the test is vacuous")
	}

	// Concurrent phase: hammer the cached engine from parallel readers
	// while a writer inserts tuples the filters select — patched under the
	// readers — and advances; -race checks the locking, the per-goroutine
	// sessions check nothing panics or misplans. The writer goes on until
	// some read was patched.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	eng := o.cached.eng
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
				if _, err := propertyQueries[r.Intn(len(propertyQueries))].run(sess, true); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g) + 7)
	}
	writer := NewSession(eng, nil)
	now, patches := o.now, m.Patches
write:
	for i := 0; i < 50 || o.patches() == patches && i < 5000; i++ {
		for _, q := range []string{
			fmt.Sprintf("INSERT INTO pol VALUES (%d, 25) EXPIRES AT %d", 100+i, now+int64(i)+5),
			fmt.Sprintf("INSERT INTO el VALUES (%d, 30) EXPIRES AT %d", 100+i, now+int64(i)+5),
			fmt.Sprintf("ADVANCE TO %d", now+1),
		} {
			if _, err := writer.Exec(q); err != nil {
				t.Error(err)
				break write
			}
		}
		now++
	}
	close(stop)
	wg.Wait()
	if eng.Now() != xtime.Time(now) {
		t.Fatalf("clock = %v, want %v", eng.Now(), now)
	}
	if o.patches() == patches {
		t.Fatal("no read racing the writer was patched")
	}
}

// FuzzCachePatch decodes its input into a stream of inserts, deletes,
// ADVANCEs, DDL and reads over pol and el and checks every read through the
// oracle: cached and memoised ≡ uncached and parsed anew, stamp and
// physical plan included. The first byte's low bit picks whether deg is
// indexed, and its next bit whether kind 7 is DDL or, as without it, a
// read; then each operation is a byte — the low three bits its kind, the
// top bit the table it writes — and one to three operand bytes. DDL is
// CREATE or DROP INDEX on uid or deg, DROP + CREATE TABLE in either column
// order and from either session, or SET POLICY. A named seed — a
// regression, not one the fuzzer wrote under a hash — must read.
func FuzzCachePatch(f *testing.F) {
	hashed := regexp.MustCompile(`^FuzzCachePatch(/[0-9a-f]{16})?$`)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		o := newOracle(t, data[0]&1 == 1)
		ddl := data[0]&2 != 0
		data = data[1:]
		reads := 0
		defer func() {
			if reads == 0 && !hashed.MatchString(t.Name()) && !t.Failed() {
				t.Error("the seed makes no read, so it checks nothing")
			}
		}()
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		for o.step = 0; len(data) > 0 && o.step < 64; o.step++ {
			op := next()
			table := [2]string{"pol", "el"}[op>>7]
			kind := op & 7
			if kind == 7 && !ddl {
				kind = 5 // a read, like 5 and 6
			}
			switch kind {
			case 0, 1:
				uid, deg, ttl := next()%16, 15+next()%6*5, 1+next()%20
				o.write(fmt.Sprintf("INSERT INTO %s VALUES (%d, %d) EXPIRES AT %d", table, uid, deg, o.now+int64(ttl)))
			case 2:
				o.write(fmt.Sprintf("DELETE FROM %s WHERE deg = %d", table, 15+next()%6*5))
			case 3:
				o.write(fmt.Sprintf("DELETE FROM %s WHERE uid = %d", table, next()%16))
			case 4:
				o.advance(int64(1 + next()%3))
			case 7:
				switch arg := next(); arg % 4 {
				case 0:
					o.index(table, "uid", "HASH")
				case 1:
					o.index(table, "deg", "ORDERED")
				case 2:
					o.swap(table, [2]string{"uid INT, deg INT", "deg INT, uid INT"}[arg/4%2], arg/8%2 == 1)
				default:
					// Not a write: it changes which answer the text names, and
					// no answer, so the stamps already given stay true.
					o.both("SET POLICY " + [3]string{"naive", "neutral", "exact"}[arg/4%3])
				}
			default:
				reads++
				o.read(next() % len(propertyQueries))
			}
		}
	})
}
