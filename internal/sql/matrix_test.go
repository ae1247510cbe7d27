package sql

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"expdb/internal/algebra"
	"expdb/internal/catalog"
	"expdb/internal/engine"
	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// The replay matrix: one statement stream over pol and el runs on a
// reference session and on twelve cells — result cache on / off × no, hash
// or ordered indexes × eager / lazy sweep — and one checker judges every
// cell after every step against the reference (Theorems 1–2).

// rowsKey renders a result set order-independently for equality checks.
func rowsKey(rows []relation.Row) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = fmt.Sprintf("%s@%s", r.Tuple, r.Texp)
	}
	return strings.Join(parts, "|")
}

// answer is a read as the checker compares it: rows with their texps.
type answer struct {
	engine.QueryResult
	rows string
}

// propertyQuery is one read of the checker's catalogue: SQL text, or — for
// the one shape the grammar cannot spell, a self-join — a plan built by hand
// and keyed the way Session.Plan keys it, sql then being only its label.
type propertyQuery struct {
	sql   string
	build func(pol, el *algebra.Base) (algebra.Expr, error)
}

// run reads q through s: through Exec and its statement memo when memo is
// set, else with the memo forgotten, so q is parsed and lowered anew. A
// relation that hands out a row dead at the read's instant is an error.
func (q propertyQuery) run(s *Session, memo bool) (a answer, err error) {
	if !memo {
		s.memo = nil
	}
	if q.build == nil {
		var res *Result
		if res, err = s.Exec(q.sql); err == nil {
			a.QueryResult = engine.QueryResult{Rel: res.Rel, At: res.At, Validity: res.Validity, Cached: res.Cached}
		}
	} else {
		pol, _ := s.eng.Base("pol") // both tables exist at every read
		el, _ := s.eng.Base("el")
		var expr algebra.Expr
		if expr, err = q.build(pol, el); err == nil {
			a.QueryResult, err = s.eng.QueryStamped(expr, algebra.PushDownSelections(expr).String(), 0)
		}
	}
	if err == nil {
		a.Rel.All(func(row relation.Row) {
			if row.Texp <= a.At {
				err = fmt.Errorf("the row %s@%s is dead at %s", row.Tuple, row.Texp, a.At)
			}
		})
		a.rows = rowsKey(a.Rel.RowsSorted(a.At))
	}
	if err != nil {
		return a, fmt.Errorf("%s: %w", q.sql, err)
	}
	return a, nil
}

// selfJoin builds σ[deg op1 c1](pol) ⋈[uid=uid] σ[deg op2 c2](pol): one
// table under two leaf predicates, both of which a write must be tested
// against and, where both select it, patched into (Δ⋈Δ).
func selfJoin(op1 algebra.CmpOp, c1 int64, op2 algebra.CmpOp, c2 int64) func(pol, el *algebra.Base) (algebra.Expr, error) {
	return func(pol, _ *algebra.Base) (algebra.Expr, error) {
		deg := func(op algebra.CmpOp, c int64) algebra.Expr {
			return &algebra.Select{Pred: algebra.ColConst{Col: 1, Op: op, Const: value.Int(c)}, Child: pol}
		}
		return algebra.EquiJoin(deg(op1, c1), 0, deg(op2, c2), 0)
	}
}

// elExceptSelfJoin is π[uid](σ[deg<100](el)) − π[uid](σ[deg<40](pol)
// ⋈[uid=uid] σ[deg≥20](pol)): one DELETE of a row the right argument
// pairs with itself reaches both of its leaves.
func elExceptSelfJoin(pol, el *algebra.Base) (algebra.Expr, error) {
	join, err := selfJoin(algebra.OpLt, 40, algebra.OpGe, 20)(pol, el)
	if err != nil {
		return nil, err
	}
	left := &algebra.Select{Pred: algebra.ColConst{Col: 1, Op: algebra.OpLt, Const: value.Int(100)}, Child: el}
	return algebra.NewDiff(&algebra.Project{Cols: []int{0}, Child: left}, &algebra.Project{Cols: []int{0}, Child: join})
}

// propertyQueries covers every operator bare and filtered, on deg below
// 100, where bursts never write. A read picks its query by a decision
// modulo the length: a new entry goes at the end, or the seeds are
// re-pointed.
var propertyQueries = []propertyQuery{
	{sql: "SELECT * FROM pol"},
	{sql: "SELECT uid FROM pol WHERE deg > 20"},
	{sql: "SELECT uid, deg FROM el WHERE deg >= 20 AND deg < 35"},
	{sql: "SELECT uid FROM pol WHERE deg < 40 AND uid >= 10"},
	// π drops the key column: equal projections merge into one row by max.
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
	// One table under two leaf predicates, disjoint and overlapping.
	{sql: "SELECT uid FROM pol WHERE deg < 25 UNION SELECT uid FROM pol WHERE deg >= 35 AND deg < 100"},
	{sql: "SELECT uid FROM pol WHERE deg <= 25 UNION SELECT uid FROM pol WHERE deg >= 20 AND deg < 100"},
	{sql: "SELECT uid FROM el WHERE deg <= 20 INTERSECT SELECT uid FROM el WHERE deg >= 35 AND deg < 100"},
	{sql: "σ[deg<30](pol) ⋈[uid=uid] σ[deg≥30](pol)", build: selfJoin(algebra.OpLt, 30, algebra.OpGe, 30)},
	{sql: "σ[deg<40](pol) ⋈[uid=uid] σ[deg≥20](pol)", build: selfJoin(algebra.OpLt, 40, algebra.OpGe, 20)},
	{sql: "SELECT uid FROM pol INTERSECT SELECT uid FROM el"},
	{sql: "SELECT uid FROM pol WHERE deg = 20 INTERSECT SELECT uid FROM el WHERE deg = 20"},
	{sql: "SELECT pol.uid, el.deg FROM pol JOIN el ON pol.uid = el.uid"},
	{sql: "SELECT pol.uid, el.deg FROM pol JOIN el ON pol.uid = el.uid WHERE pol.deg >= 30 AND pol.deg < 100 AND el.deg < 30"},
	// The predicate compares the two sides: it stays above the join.
	{sql: "SELECT pol.uid, el.deg FROM pol JOIN el ON pol.uid = el.uid WHERE pol.deg > el.deg"},
	// Differences whose right argument has two leaves, which one burst of
	// DELETEs can reach both of: a join of pol with el, a self-join of pol.
	{sql: "SELECT uid FROM pol WHERE deg >= 30 AND deg < 100 EXCEPT SELECT pol.uid FROM pol JOIN el ON pol.uid = el.uid WHERE pol.deg < 30"},
	{sql: "π[uid](σ[deg<100](el)) − π[uid](σ[deg<40](pol) ⋈[uid=uid] σ[deg≥20](pol))", build: elExceptSelfJoin},
	// Point and range reads an indexed cell probes, bare, under an
	// aggregate and under a difference.
	{sql: "SELECT * FROM pol WHERE uid = 7"},
	{sql: "SELECT * FROM el WHERE uid >= 5 AND uid < 12"},
	{sql: "SELECT COUNT(*) FROM pol WHERE deg >= 25 AND deg <= 30"},
	{sql: "SELECT uid FROM pol EXCEPT SELECT uid FROM el WHERE deg = 25"},
}

// engineWriteTail is engine.writeTailLen: bursts are sized around it.
const engineWriteTail = 64

// lazyPeriod is the lazy cells' sweep period: until finish, no row is swept.
const lazyPeriod = 1 << 20

// cell is one configuration: a session over an engine with or without the
// result cache, one kind of index on uid and deg or none, eager or lazy. It
// counts what its checks saw, so a run that never applied a rule fails.
type cell struct {
	name                string
	s                   *Session
	cache, lazy         bool
	using               string // "HASH", "ORDERED", or "" for no index
	fired               []string
	hits, patched, kept int
	absorbed            int    // patched monotonic reads that lost a row a leaf selects
	lastRead            []int  // per propertyQueries entry: len(matrix.lost) at its last read
	probed              [2]int // reads, DELETEs planned with an IndexScan
	unswept             int    // reads and DELETEs run over an expired row not swept
}

func newCell(cache bool, using string, lazy bool) *cell {
	var opts []engine.Option
	if !cache {
		opts = append(opts, engine.WithResultCache(0))
	}
	if lazy {
		opts = append(opts, engine.WithSweep(engine.SweepLazy, lazyPeriod))
	}
	return &cell{name: fmt.Sprintf("cache=%v/index=%s/lazy=%v", cache, strings.ToLower(using), lazy),
		s: NewSession(engine.New(opts...), nil), cache: cache, lazy: lazy, using: using, lastRead: make([]int, len(propertyQueries))}
}

// indexDDL makes an index on table (%[1]s) column (%[2]s), of the running
// cell's kind.
const indexDDL = "CREATE INDEX %[1]s_%[2]s ON %[1]s (%[2]s) USING ?"

func (c *cell) fire(table string, row relation.Row) {
	c.fired = append(c.fired, fmt.Sprintf("%s %s@%s", table, row.Tuple, row.Texp))
}

// before runs ahead of statement q in c ("" for a read). It counts reads
// and DELETEs over unswept rows and DELETEs planned as probes; the unswept
// rows a DROP TABLE discards count as fired, as an eager engine fired them.
func (c *cell) before(t testing.TB, s *Session, q string) {
	now, del := c.s.eng.Now(), strings.HasPrefix(q, "DELETE")
	if c.lazy && (del || q == "") && slices.ContainsFunc(c.s.eng.Catalog().TableSet(), func(nt catalog.NamedTable) bool {
		return nt.Rel.Len() > nt.Rel.CountAt(now)
	}) {
		c.unswept++
	}
	if del && c.using != "" {
		if _, ok := freshPlan(t, s, q).Physical.(*algebra.IndexScan); ok {
			c.probed[1]++
		}
	}
	if table, ok := strings.CutPrefix(q, "DROP TABLE "); ok && c.lazy {
		rel, _ := c.s.eng.Catalog().Table(table) // the stream drops only tables it made
		rel.All(func(row relation.Row) {
			if row.Texp <= now {
				c.fire(table, row)
			}
		})
	}
}

// stats are c's result-cache counters, zero with the cache off.
func (c *cell) stats() engine.ResultCacheMetrics {
	m, _ := c.s.eng.ResultCacheStats()
	return m
}

// matrix replays one stream on the reference and the twelve cells.
type matrix struct {
	t           testing.TB
	ref         *cell // cache off, no index, eager
	cells       []*cell
	indexed     map[string]bool // the indexes an indexed cell has, by table_col
	now         int64
	step, reads int
	changedAt   []xtime.Time // per propertyQueries entry: the last write that changed its answer
	lost        []lostRow    // every row a DELETE took, in order
}

// lostRow is a row a DELETE took from table.
type lostRow struct {
	table string
	tuple tuple.Tuple
}

// newMatrix makes the reference and the cells keep selects (all twelve when
// keep is nil).
func newMatrix(t testing.TB, keep func(*cell) bool) *matrix {
	m := &matrix{t: t, ref: newCell(false, "", false), indexed: map[string]bool{}, changedAt: make([]xtime.Time, len(propertyQueries))}
	m.ref.name = "reference"
	for k := 0; k < 12; k++ {
		if c := newCell(k < 6, [3]string{"", "HASH", "ORDERED"}[k/2%3], k%2 == 1); keep == nil || keep(c) {
			m.cells = append(m.cells, c)
		}
	}
	m.each(false, append(m.create("pol", "uid INT, deg INT"), m.create("el", "uid INT, deg INT")...)...)
	for _, c := range m.all() {
		for _, table := range []string{"pol", "el"} {
			if err := c.s.eng.OnExpire(table, func(table string, row relation.Row, _ xtime.Time) { c.fire(table, row) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m
}

func (m *matrix) all() []*cell { return append([]*cell{m.ref}, m.cells...) }

// create is the DDL of table: the table, indexed on both columns.
func (m *matrix) create(table, cols string) []string {
	m.indexed[table+"_uid"], m.indexed[table+"_deg"] = true, true
	return []string{"CREATE TABLE " + table + " (" + cols + ")", fmt.Sprintf(indexDDL, table, "uid"), fmt.Sprintf(indexDDL, table, "deg")}
}

// each runs one step in the reference, which forgets its statement memo
// before every statement, and in every cell (elsewhere: in a new session on
// its engine). DELETEs must print the reference's messages and counts.
func (m *matrix) each(elsewhere bool, qs ...string) {
	var want []string
	for _, c := range m.all() {
		s, deleted := c.s, []string(nil)
		if elsewhere {
			s = NewSession(c.s.eng, nil)
		}
		for _, q := range qs {
			if strings.Contains(q, " INDEX ") && c.using == "" {
				continue
			}
			q = strings.Replace(q, "USING ?", "USING "+c.using, 1)
			if c == m.ref && strings.HasPrefix(q, "DELETE") {
				m.lost = append(m.lost, m.victims(q)...)
			}
			c.before(m.t, s, q)
			if c == m.ref {
				s.memo = nil
			}
			res, err := s.Exec(q)
			if err != nil {
				m.t.Fatalf("%s: %q: %v", c.name, q, err)
			} else if strings.HasPrefix(q, "DELETE") {
				deleted = append(deleted, res.Msg)
			}
		}
		if deleted != nil {
			deleted = append(deleted, fmt.Sprint(c.s.eng.Metrics().Deletes, " deletes"))
		}
		if c == m.ref {
			want = deleted
		} else if !slices.Equal(deleted, want) {
			m.t.Fatalf("step %d: %s: DELETE printed and counted %q, the reference %q", m.step, c.name, deleted, want)
		}
	}
}

// victims are the rows DELETE q takes, read off the reference before it runs.
func (m *matrix) victims(q string) (out []lostRow) {
	table, where, _ := strings.Cut(strings.TrimPrefix(q, "DELETE FROM "), " WHERE ")
	if where != "" {
		where = " WHERE " + where
	}
	res, err := m.ref.s.Exec("SELECT * FROM " + table + where)
	if err != nil {
		m.t.Fatalf("the victims of %q: %v", q, err)
	}
	for _, row := range res.Rel.RowsSorted(res.At) {
		out = append(out, lostRow{table, row.Tuple})
	}
	return out
}

// selects reports whether a leaf of e, a selection over a table as the
// result cache sees it, selects l.
func selects(e algebra.Expr, l lostRow) bool {
	var b *algebra.Base
	var p algebra.Predicate = algebra.True{}
	switch x := e.(type) {
	case *algebra.Base:
		b = x
	case *algebra.IndexScan:
		b, p = x.Base, x.Full
	case *algebra.Select:
		if leaf, ok := x.Child.(*algebra.Base); ok {
			b, p = leaf, x.Pred
		}
	}
	if b != nil {
		return b.Name == l.table && len(l.tuple) == b.Schema().Arity() && p.Holds(l.tuple)
	}
	return slices.ContainsFunc(e.Children(), func(k algebra.Expr) bool { return selects(k, l) })
}

// write is each for writes: it notes the queries whose answer, read off
// the reference, they changed.
func (m *matrix) write(elsewhere bool, qs ...string) {
	fresh := func() (out []string) {
		for _, q := range propertyQueries {
			a, err := q.run(m.ref.s, false)
			out = append(out, fmt.Sprint(a.rows, err))
		}
		return out
	}
	before := fresh()
	m.each(elsewhere, qs...)
	for i, a := range fresh() {
		if a != before[i] {
			m.changedAt[i] = xtime.Time(m.now)
		}
	}
}

// advance moves every clock: not a write, so no stamp given must end.
func (m *matrix) advance(to int64) {
	m.now = to
	m.each(false, fmt.Sprintf("ADVANCE TO %d", to))
}

// read checks query i in every cell against the reference — itself the
// one-pass evaluation of the logical plan — rows, texps and a true stamp:
// it holds the read's tick, ends no later than the reference's and starts
// no earlier than the last write that changed the answer.
func (m *matrix) read(i int) {
	m.reads++
	q := propertyQueries[i]
	want, err := q.run(m.ref.s, false)
	if err != nil {
		m.t.Fatalf("reference: %v", err)
	}
	if q.build == nil {
		ev, err := algebra.Evaluate(freshPlan(m.t, m.ref.s, q.sql).Logical, want.At)
		if err != nil || rowsKey(ev.Rel.RowsSorted(want.At)) != want.rows {
			m.t.Fatalf("step %d: %s over its logical plan differs from the reference (%v)", m.step, q.sql, err)
		}
	}
	seen, served := false, false // whether a cache-on cell read, and was served
	for _, c := range m.all() {
		got, bad := want, ""
		if c != m.ref {
			got = m.readIn(c, i)
		}
		switch {
		case got.rows != want.rows:
			bad = "rows differ"
		case got.At != want.At || got.Validity.At > got.At || got.At >= got.Validity.ValidUntil ||
			got.Validity.ValidUntil > want.Validity.ValidUntil || got.Validity.At < m.changedAt[i]:
			bad = fmt.Sprintf("the stamp is not true (a write at %v last changed the answer)", m.changedAt[i])
		case got.Cached && !c.cache || c.cache && seen && got.Cached != served:
			bad = "Cached with the cache off, or unlike the other cache-on cells"
		}
		if bad != "" {
			m.t.Fatalf("step %d: %s: %s: %s\ngot (cached=%v): %s at %v under %v\nreference: %s at %v under %v",
				m.step, c.name, q.sql, bad, got.Cached, got.rows, got.At, got.Validity, want.rows, want.At, want.Validity)
		}
		if c.cache {
			seen, served = true, got.Cached
		}
	}
}

// readIn reads query i in c through Exec and its memo, counts what served
// it — a patch of a monotonic entry that lost a row one of its leaves selects
// since c last read it absorbed a DELETE — and checks that the plan the memo
// gives it is the one c makes afresh.
func (m *matrix) readIn(c *cell, i int) answer {
	q := propertyQueries[i]
	c.before(m.t, c.s, "")
	patches := c.stats().Patches
	got, err := q.run(c.s, true)
	if err != nil {
		m.t.Fatalf("step %d: %s: %v", m.step, c.name, err)
	}
	if got.Cached {
		c.hits++
	}
	if got.Cached && c.stats().Patches > patches {
		c.patched++
		var plan algebra.Expr
		if q.build == nil {
			plan = freshPlan(m.t, c.s, q.sql).Physical
		} else {
			pol, _ := c.s.eng.Base("pol")
			el, _ := c.s.eng.Base("el")
			plan, _ = q.build(pol, el)
		}
		if !plan.Monotonic() {
			c.kept++
		} else if slices.ContainsFunc(m.lost[c.lastRead[i]:], func(l lostRow) bool { return selects(plan, l) }) {
			c.absorbed++
		}
	}
	c.lastRead[i] = len(m.lost)
	if sel := c.s.memo[q.sql]; sel != nil && q.build == nil {
		p, err := c.s.Plan(sel)
		if err != nil {
			m.t.Fatal(err)
		}
		fresh := freshPlan(m.t, c.s, q.sql).Physical
		if p.Physical.String() != fresh.String() {
			m.t.Fatalf("step %d: %s: %s through the memo plans %s, afresh %s", m.step, c.name, q.sql, p.Physical, fresh)
		}
		algebra.Walk(fresh, func(n algebra.Expr) {
			if _, ok := n.(*algebra.IndexScan); ok {
				c.probed[0]++
			}
		})
	}
	return got
}

func (m *matrix) readAll() {
	for i := range propertyQueries {
		m.read(i)
	}
}

// next runs one step of the stream in every cell, each decision src(n),
// an int in [0, n).
func (m *matrix) next(src func(n int) int) {
	table := func() string { return [2]string{"pol", "el"}[src(2)] }
	// Mostly multiples of five, so that equal tuples recur (an extension or
	// a no-change duplicate, by the texp drawn) and DELETE … WHERE deg = c
	// removes several rows; sometimes a FLOAT or a NULL in the INT column.
	deg := func() string {
		return [14]string{"15", "20", "25", "30", "35", "40", "15", "20", "25", "30", "35", "40", "NULL", "22.5"}[src(14)]
	}
	insert := func(table string, uid int, deg string) string {
		q := fmt.Sprintf("INSERT INTO %s VALUES (%d, %s)", table, uid, deg)
		if ttl := src(26); ttl < 25 {
			q += fmt.Sprintf(" EXPIRES AT %d", m.now+1+int64(ttl))
		}
		return q
	}
	switch r := src(100); {
	case r < 14:
		m.write(false, insert(table(), src(30), deg()))
	case r < 18:
		if t := table(); src(2) == 0 {
			m.write(false, fmt.Sprintf("DELETE FROM %s WHERE uid = %d", t, src(30)))
		} else {
			m.write(false, fmt.Sprintf("DELETE FROM %s WHERE deg = %d", t, 15+src(6)*5))
		}
	case r < 20:
		m.write(false, fmt.Sprintf("DELETE FROM %s WHERE deg >= %d AND uid < %d", table(), 15+src(6)*5, src(30)))
	case r < 21:
		m.write(false, "DELETE FROM "+table())
	case r < 22:
		// One write the filters may select, then a burst none does: one fewer
		// than the write tail holds, as many, one more, many more.
		m.readAll()
		t := table()
		burst := []string{insert(t, src(30), deg())}
		for i := engineWriteTail + []int{-2, -1, 0, 16}[src(4)]; i > 0; i-- {
			burst = append(burst, fmt.Sprintf("INSERT INTO %s VALUES (%d, %d) EXPIRES AT %d", t, i, 100+i%3, m.now+1+int64(i%3)))
		}
		m.write(false, burst...)
		m.readAll()
	case r < 23:
		// Three uids into pol (two rows) and el, then each uid's low-degree
		// pol rows deleted, with or without its el rows: a difference whose
		// right argument joins pol with el, or with itself, may show it again.
		m.readAll()
		var ins, del []string
		for i := 0; i < 3; i++ {
			uid := src(30)
			ins = append(ins, insert("pol", uid, deg()), insert("pol", uid, deg()), insert("el", uid, deg()))
			if src(2) == 0 {
				del = append(del, fmt.Sprintf("DELETE FROM el WHERE uid = %d", uid))
			}
			del = append(del, fmt.Sprintf("DELETE FROM pol WHERE uid = %d AND deg < 30", uid))
		}
		m.write(false, ins...)
		m.readAll()
		m.write(false, del...)
		m.readAll()
	case r < 24:
		// DROP + CREATE in either column order; from another session, the
		// memo keeps lowerings over the dropped relation for Session.current
		// to refuse.
		t, x := table(), src(4)
		m.readAll()
		m.write(x/2 == 1, append([]string{"DROP TABLE " + t}, m.create(t, [2]string{"uid INT, deg INT", "deg INT, uid INT"}[x%2])...)...)
		m.readAll()
	case r < 25:
		t, col := table(), [2]string{"uid", "deg"}[src(2)]
		q := "DROP INDEX " + t + "_" + col
		if m.indexed[t+"_"+col] = !m.indexed[t+"_"+col]; m.indexed[t+"_"+col] {
			q = fmt.Sprintf(indexDDL, t, col)
		}
		m.write(false, q)
	case r < 26:
		// Not a write: it changes which answer the text names, and no
		// answer, so the stamps already given stay true.
		m.each(false, "SET POLICY "+[3]string{"naive", "neutral", "exact"}[src(3)])
	case r < 34:
		m.advance(m.now + 1 + int64(src(3)))
	default:
		m.read(src(len(propertyQueries)))
	}
}

// finish advances past every finite texp: every cell must have fired ON
// EXPIRE for the reference's multiset of (table, tuple, texp).
func (m *matrix) finish() {
	m.advance(2 * lazyPeriod)
	slices.Sort(m.ref.fired)
	for _, c := range m.cells {
		if slices.Sort(c.fired); !slices.Equal(c.fired, m.ref.fired) {
			m.t.Fatalf("%s fired ON EXPIRE for\n%s\nthe reference for\n%s", c.name, strings.Join(c.fired, "\n"), strings.Join(m.ref.fired, "\n"))
		}
	}
}

// replay runs steps of the stream seeded by seed on the cells keep selects,
// then finish, and fails as vacuous if a cache-on cell never hits,
// revalidates, patches, keeps a difference, absorbs a DELETE into a monotonic
// entry or drops an entry, an indexed
// cell never probes for a read or a DELETE, or a lazy cell never runs one
// over an unswept row.
func replay(t *testing.T, seed int64, steps int, keep func(*cell) bool) *matrix {
	m := newMatrix(t, keep)
	for rng := rand.New(rand.NewSource(seed)); m.step < steps; m.step++ {
		m.next(rng.Intn)
	}
	m.finish()
	for _, c := range m.cells {
		if st := c.stats(); c.cache && (c.hits == 0 || st.Revalidations == 0 || c.patched == 0 || c.kept == 0 || c.absorbed == 0 || st.EpochInvalidations == 0) ||
			c.using != "" && (c.probed[0] == 0 || c.probed[1] == 0) || c.lazy && c.unswept == 0 {
			t.Fatalf("%s: %d hits, %d revalidated, %d patched (%d kept differences, %d absorbed DELETEs), %d dropped by a write; %d reads and %d DELETEs probed; %d over unswept rows — the test is vacuous",
				c.name, c.hits, st.Revalidations, c.patched, c.kept, c.absorbed, st.EpochInvalidations, c.probed[0], c.probed[1], c.unswept)
		}
	}
	return m
}

// TestReplayMatrix replays a seeded stream on all twelve cells.
func TestReplayMatrix(t *testing.T) { replay(t, 20060418, 1000, nil) }

// TestCachedEqualsUncachedProperty replays its own seeds on the cache-on
// cells, unindexed (scan) and indexed, against the cache-off reference.
func TestCachedEqualsUncachedProperty(t *testing.T) {
	for seed, name := range []string{"scan", "indexed"} {
		t.Run(name, func(t *testing.T) {
			replay(t, int64(101+seed), 500, func(c *cell) bool { return c.cache && (c.using != "") == (name == "indexed") })
		})
	}
}

// TestIndexedEquivalenceProperty replays its own seeds on the cache-off
// indexed cells, hash and ordered, eager and lazy, against the unindexed
// reference.
func TestIndexedEquivalenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			replay(t, 200+seed, 400, func(c *cell) bool { return !c.cache && c.using != "" })
		})
	}
}

// TestDeleteEquivalenceProperty replays its own seeds on the cache-off
// cells: every DELETE, by equality, by range or of every row, prints and
// counts what the reference's does, and ON EXPIRE fires alike.
func TestDeleteEquivalenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			replay(t, 300+seed, 400, func(c *cell) bool { return !c.cache })
		})
	}
}

// TestIndexedConcurrentReads is the matrix's concurrent phase: after a
// seeded replay, four readers race a writer (-race checks the locking) on
// the cell that caches, indexes and sweeps lazily, until a read was
// patched; every eighth tick it re-inserts a row that expired unswept.
func TestIndexedConcurrentReads(t *testing.T) {
	m := replay(t, 20060418, 300, func(c *cell) bool { return c.cache && c.using == "ORDERED" && c.lazy })
	c := m.cells[0]
	var wg sync.WaitGroup
	var stop atomic.Bool
	defer wg.Wait()
	defer stop.Store(true)
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, s, err := rand.New(rand.NewSource(g)), NewSession(c.s.eng, nil), error(nil)
			for err == nil && !stop.Load() {
				_, err = propertyQueries[r.Intn(len(propertyQueries))].run(s, true)
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	writer := NewSession(c.s.eng, nil)
	patches := c.stats().Patches
	for i := int64(0); i < 50 || c.stats().Patches == patches && i < 5000; i++ {
		if _, err := writer.ExecScript(fmt.Sprintf("INSERT INTO pol VALUES (%d, 25) EXPIRES AT %d; INSERT INTO el VALUES (%d, 30) EXPIRES AT %[2]d; DELETE FROM el WHERE uid = %[4]d; ADVANCE TO %[5]d;",
			100+i%8, m.now+i+5, 100+i, 99+i, m.now+i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if c.stats().Patches == patches {
		t.Fatal("no read racing the writer was patched")
	}
}

// FuzzCachePatch reads its input as the stream's decisions, each the next
// byte modulo n (0 once spent), for at most 64 steps. A named seed — not
// one the fuzzer wrote under a hash — must read.
func FuzzCachePatch(f *testing.F) {
	hashed := regexp.MustCompile(`^FuzzCachePatch(/[0-9a-f]{16})?$`)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, src := newMatrix(t, nil), func(n int) (v int) {
			if len(data) > 0 {
				v, data = int(data[0])%n, data[1:]
			}
			return v
		}
		for ; len(data) > 0 && m.step < 64; m.step++ {
			m.next(src)
		}
		if m.reads == 0 && !hashed.MatchString(t.Name()) {
			t.Fatal("the seed makes no read, so it checks nothing")
		}
		m.finish()
	})
}
