package sql

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"expdb/internal/algebra"
	"expdb/internal/catalog"
	"expdb/internal/engine"
	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/vfs"
	"expdb/internal/xtime"
)

// The replay matrix: one statement stream over pol and el runs on a
// reference session and on fifteen cells — result cache on / off × no, hash
// or ordered indexes × eager / lazy sweep in memory, and three durable cells
// that between them take each of those values — and one checker judges
// every cell after every step against the reference (Theorems 1–2). A
// durable cell logs to its own directory through a vfs.FaultFS: the stream
// restarts it, recovers its log cut inside a write, and arms and heals
// disk faults.

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

// engineWriteTail is engine.writeTailLen, the rows a table's write tail
// holds: bursts are sized around it.
const engineWriteTail = 512

// lazyPeriod is the lazy cells' sweep period: until finish, no row is swept
// but by a DROP TABLE or a full disk.
const lazyPeriod = 1 << 20

// cell is one configuration: a session over an engine with or without the
// result cache, one kind of index on uid and deg or none, eager or lazy, in
// memory or durable — logging to dir through ffs, a disk that faults on
// cue. It counts what its checks saw, so a run that never applied a rule
// fails.
type cell struct {
	name                string
	s                   *Session
	opts                []engine.Option // all but a durable cell's disk
	cache, lazy         bool
	using               string // "HASH", "ORDERED", or "" for no index
	fired               []string
	hits, patched, kept int
	absorbed            int    // patched monotonic reads that lost a row a leaf selects
	lastRead            []int  // per propertyQueries entry: len(matrix.lost) at its last read
	probed              [2]int // reads, DELETEs planned with an IndexScan
	unswept             int    // reads and DELETEs run over an expired row not swept
	ffs                 *vfs.FaultFS
	dir                 string
	retired             engine.ResultCacheMetrics // what the engines a restart replaced counted
	retiredDeletes      int64
	fault, injected     int      // the armed faultClasses entry (-1: none), ffs.Injected() then
	owed                []string // writes the fault refused or cut short, for heal to re-run
	refused             bool     // a write met ErrReadOnly since the fault was armed
	restarts, readOnly  int
	cuts                [2]int // logs recovered cut inside a record, at a boundary
	faults              [4]int // armed faults, by class, that failed an operation
}

func newCell(cache bool, using string, lazy, durable bool) *cell {
	c := &cell{name: fmt.Sprintf("cache=%v/index=%s/lazy=%v", cache, strings.ToLower(using), lazy),
		cache: cache, lazy: lazy, using: using, lastRead: make([]int, len(propertyQueries)), fault: -1}
	if !cache {
		c.opts = append(c.opts, engine.WithResultCache(0))
	}
	if lazy {
		c.opts = append(c.opts, engine.WithSweep(engine.SweepLazy, lazyPeriod))
	}
	if durable {
		c.name, c.ffs = "durable/"+c.name, vfs.NewFault(vfs.OS())
	}
	return c
}

func (c *cell) durable() bool { return c.ffs != nil }

func inMemory(c *cell) bool { return !c.durable() }

// open gives c a new engine and session. A durable cell's engine retries a
// degraded disk only when the stream heals it.
func (c *cell) open(t testing.TB) {
	opts := c.opts
	if c.durable() {
		if c.dir == "" {
			c.dir = t.TempDir()
		}
		opts = append(slices.Clip(opts), engine.WithDurability(c.dir), engine.WithVFS(c.ffs), engine.WithDiskRetryBackoff(time.Hour))
	}
	c.s, _ = openSession(t, opts...)
}

// watch registers c's ON EXPIRE trigger on both tables.
func (c *cell) watch(t testing.TB) {
	for _, table := range []string{"pol", "el"} {
		if err := c.s.eng.OnExpire(table, func(table string, row relation.Row, _ xtime.Time) { c.fire(table, row) }); err != nil {
			t.Fatal(err)
		}
	}
}

// openSession returns a session over a new engine built with opts. A
// durable engine recovers its directory with the session as its statement
// compiler, as the facade's does, and is closed when the test ends.
func openSession(t testing.TB, opts ...engine.Option) (*Session, *engine.RecoveryInfo) {
	eng := engine.New(opts...)
	s := NewSession(eng, nil)
	if eng.DurabilityDir() == "" {
		return s, nil
	}
	info, err := eng.OpenDurability(func(def string) error {
		_, err := s.Exec(def)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.CloseDurability() })
	return s, info
}

// indexDDL makes an index on table (%[1]s) column (%[2]s), of the running
// cell's kind.
const indexDDL = "CREATE INDEX %[1]s_%[2]s ON %[1]s (%[2]s) USING ?"

func (c *cell) fire(table string, row relation.Row) {
	c.fired = append(c.fired, fmt.Sprintf("%s %s@%s", table, row.Tuple, row.Texp))
}

// before runs ahead of statement q in c ("" for a read). It counts reads
// and DELETEs over unswept rows and DELETEs planned as probes.
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
}

// stats are c's result-cache counters, zero with the cache off;
// revalidations and drops count those of the engines a restart replaced.
func (c *cell) stats() engine.ResultCacheMetrics {
	m, _ := c.s.eng.ResultCacheStats()
	m.Revalidations += c.retired.Revalidations
	m.EpochInvalidations += c.retired.EpochInvalidations
	m.TailOverruns += c.retired.TailOverruns
	return m
}

// deletes is the rows c's DELETEs took, on every engine it has had.
func (c *cell) deletes() int64 { return c.retiredDeletes + c.s.eng.Metrics().Deletes }

// image is what recovery must give back of an engine: by table and set key
// every stored row's texp, unswept ones included; each index; the clock.
type image map[string]xtime.Time

func imageOf(eng *engine.Engine) image {
	im := image{"": eng.Now()}
	for _, def := range eng.Catalog().Indexes() {
		im["index "+def.Name] = xtime.Infinity
	}
	for _, nt := range eng.Catalog().TableSet() {
		nt.Rel.RLock()
		nt.Rel.All(func(row relation.Row) { im[nt.Name+" "+row.Tuple.Key()] = row.Texp })
		nt.Rel.RUnlock()
	}
	return im
}

// less reports whether im is before less k rows, each of which after lacks:
// what a log cut inside a write's records gives back when k of them
// survived. An INSERT logs one record, so a cut inside it keeps none.
func (im image) less(before, after image, k int) bool {
	lost := 0
	for key, texp := range before {
		got, ok := im[key]
		if _, kept := after[key]; ok && got != texp || !ok && kept {
			return false
		} else if !ok {
			lost++
		}
	}
	return lost == k && len(im) == len(before)-k
}

// restart closes c's log and recovers its directory into a new engine and
// session, which must hold what the old one held; the ON EXPIRE triggers
// and the aggregation policy carry over.
func (c *cell) restart(t testing.TB) {
	old, im := c.s, imageOf(c.s.eng)
	if err := old.eng.CloseDurability(); err != nil {
		t.Fatalf("%s: close: %v", c.name, err)
	}
	c.retired, c.retiredDeletes = c.stats(), c.deletes()
	c.open(t)
	c.watch(t)
	if c.s.policy, c.restarts = old.policy, c.restarts+1; !reflect.DeepEqual(imageOf(c.s.eng), im) {
		t.Fatalf("%s: a restart recovered\n%v\nnot\n%v", c.name, imageOf(c.s.eng), im)
	}
}

// faultClasses are the disk faults a FAULT step arms, in turn: a sticky
// and a transient fsync failure, a torn write, a full disk.
var faultClasses = [4]func(*vfs.FaultFS){
	func(f *vfs.FaultFS) { f.FailSyncs(0, -1, nil) },
	func(f *vfs.FaultFS) { f.FailSyncs(0, 2, nil) },
	func(f *vfs.FaultFS) { f.TornWrite(5) },
	func(f *vfs.FaultFS) { f.SetQuota(f.Used() + 4) },
}

// failed takes the error write q met under c's armed fault: ErrReadOnly,
// which must have changed nothing, or the injected error that cut it short,
// applied in memory. Either way heal re-runs q.
func (c *cell) failed(t testing.TB, q string, err error, pre image) {
	if c.owed = append(c.owed, q); errors.Is(err, engine.ErrReadOnly) {
		c.readOnly, c.refused = c.readOnly+1, true
		if !reflect.DeepEqual(imageOf(c.s.eng), pre) {
			t.Fatalf("%s: %q was refused with ErrReadOnly and changed the tables", c.name, q)
		}
	} else if !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("%s: %q: %v", c.name, q, err)
	}
}

// heal clears c's fault, recovers the disk to healthy and re-runs the
// writes the fault refused or cut short, at the tick they met it.
func (c *cell) heal(t testing.TB) {
	if c.ffs.Injected() > c.injected {
		c.faults[c.fault]++
	}
	c.ffs.Heal()
	c.ffs.SetQuota(-1)
	if err := c.s.eng.TryDiskRecovery(); err != nil || c.s.eng.DurabilityState() != engine.DurabilityHealthy {
		t.Fatalf("%s: a healed disk recovers to %v (%v)", c.name, c.s.eng.DurabilityState(), err)
	}
	for _, q := range c.owed {
		if _, err := c.s.Exec(q); err != nil {
			t.Fatalf("%s: %q re-run on a healed disk: %v", c.name, q, err)
		}
	}
	c.owed, c.fault, c.refused = nil, -1, false
}

// segment returns the name and size of c's newest log segment.
func (c *cell) segment(t testing.TB) (string, int64) {
	segs, _ := filepath.Glob(filepath.Join(c.dir, "wal-*.log"))
	fi, err := os.Stat(segs[len(segs)-1]) // an open log has one
	if err != nil {
		t.Fatal(err)
	}
	return fi.Name(), fi.Size()
}

// recoverCut recovers, on the real disk, a copy of c's directory whose log
// segment seg is cut to n bytes (the reserve file is headroom, not state),
// and checks the expiration order it rebuilt: a pair per finite row and at
// most 2×rows + 1024 per table in the texp heaps; advanced past every texp,
// the engine then fires each finite row, in (texp, table, key) order — a
// lazy sweep fires its batch at one tick, table by table.
func (c *cell) recoverCut(t testing.TB, seg string, n int64) (image, int) {
	dir := t.TempDir()
	logs, _ := filepath.Glob(filepath.Join(c.dir, "*.log"))
	snaps, _ := filepath.Glob(filepath.Join(c.dir, "*.snap"))
	for _, name := range append(logs, snaps...) {
		data, err := os.ReadFile(name)
		if name = filepath.Base(name); err == nil && name == seg {
			data = data[:n]
		}
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, name), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	s, info := openSession(t, append(slices.Clip(c.opts), engine.WithDurability(dir))...)
	if info.Truncated {
		c.cuts[0]++
	}
	im, finite, bound, fired := imageOf(s.eng), 0, 0, []string(nil)
	for _, nt := range s.eng.Catalog().TableSet() {
		bound += 2*nt.Rel.Len() + 1024
		if err := s.eng.OnExpire(nt.Name, func(table string, row relation.Row, at xtime.Time) {
			fired = append(fired, fmt.Sprintf("%020d %s %020d %s", at, table, row.Texp, row.Tuple.Key()))
		}); err != nil {
			t.Fatal(err)
		}
	}
	for key, texp := range im {
		if key != "" && texp.IsFinite() {
			finite++
		}
	}
	if p := s.eng.Metrics().Scheduler.Pending; p < finite || p > bound {
		t.Fatalf("%s: the recovered texp heaps hold %d pairs for %d finite rows (bound %d)", c.name, p, finite, bound)
	}
	if err := s.eng.Advance(2 * lazyPeriod); err != nil || len(fired) < finite || !slices.IsSorted(fired) {
		t.Fatalf("%s: %d finite rows recovered fired %q (%v)", c.name, finite, fired, err)
	}
	return im, info.Records
}

// matrix replays one stream on the reference and the cells.
type matrix struct {
	t                  testing.TB
	ref                *cell // cache off, no index, eager, in memory
	cells, durable     []*cell
	indexed            map[string]bool // the indexes an indexed cell has, by table_col
	now                int64
	step, reads, stmts int
	bound              int          // statements a fuzz input may run, 0 for no bound; see fuzzStatements
	faults             int          // FAULT steps so far: the next arms faultClasses[faults%4]
	outran             int          // bursts longer than a write tail
	changedAt          []xtime.Time // per propertyQueries entry: the last write that changed its answer
	lost               []lostRow    // every row a DELETE took, in order
}

// lostRow is a row a DELETE took from table.
type lostRow struct {
	table string
	tuple tuple.Tuple
}

// newMatrix makes the reference and the cells keep selects (all fifteen when
// keep is nil): twelve in memory, and three durable ones between which every
// value of cache, index kind and sweep mode appears.
func newMatrix(t testing.TB, keep func(*cell) bool) *matrix {
	m := &matrix{t: t, ref: newCell(false, "", false, false), indexed: map[string]bool{}, changedAt: make([]xtime.Time, len(propertyQueries))}
	m.ref.name = "reference"
	m.ref.open(t)
	cells := []*cell{newCell(true, "", true, true), newCell(false, "HASH", false, true), newCell(true, "ORDERED", false, true)}
	for k := 11; k >= 0; k-- {
		cells = append([]*cell{newCell(k < 6, [3]string{"", "HASH", "ORDERED"}[k/2%3], k%2 == 1, false)}, cells...)
	}
	for _, c := range cells {
		if keep == nil || keep(c) {
			c.open(t)
			if m.cells = append(m.cells, c); c.durable() {
				m.durable = append(m.durable, c)
			}
		}
	}
	m.each(false, append(m.create("pol", "uid INT, deg INT"), m.create("el", "uid INT, deg INT")...)...)
	for _, c := range m.all() {
		c.watch(t)
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
// its engine). DELETEs must print the reference's messages and counts; a
// durable cell whose armed fault failed one of them must reach the count
// once healed, which it is at the end of a step in which a write was refused.
func (m *matrix) each(elsewhere bool, qs ...string) {
	m.stmts += len(qs)
	del := slices.ContainsFunc(qs, func(q string) bool { return strings.HasPrefix(q, "DELETE") })
	var want []string
	for _, c := range m.all() {
		s, deleted, failed := c.s, []string(nil), false
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
			var pre image
			if c.fault >= 0 {
				pre = imageOf(c.s.eng)
			}
			res, err := s.Exec(q)
			switch {
			case err != nil && c.fault >= 0:
				c.failed(m.t, q, err, pre)
				failed = true
			case err != nil:
				m.t.Fatalf("%s: %q: %v", c.name, q, err)
			case strings.HasPrefix(q, "DELETE"):
				deleted = append(deleted, res.Msg)
			}
		}
		if c.refused {
			c.heal(m.t)
		}
		if del {
			deleted = append(deleted, fmt.Sprint(c.deletes(), " deletes"))
		}
		switch {
		case c == m.ref:
			want = deleted
		case failed && del && deleted[len(deleted)-1] != want[len(want)-1], !failed && !slices.Equal(deleted, want):
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

// advance moves every clock: not a write, so no stamp given must end. A
// durable cell that owes writes is healed first, so they run at their tick.
func (m *matrix) advance(to int64) {
	for _, c := range m.durable {
		if c.owed != nil {
			c.heal(m.t)
		}
	}
	m.now = to
	m.each(false, fmt.Sprintf("ADVANCE TO %d", to))
}

// read checks query i in every cell against the reference — itself the
// one-pass evaluation of the logical plan — rows, texps and a true stamp:
// it holds the read's tick, ends no later than the reference's and starts
// no earlier than the last write that changed the answer.
func (m *matrix) read(i int) {
	m.reads++
	m.stmts++
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
	seen, served := false, false // whether a cache-on cell in memory read, and was served
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
		case got.Cached && !c.cache || c.cache && !c.durable() && seen && got.Cached != served:
			bad = "Cached with the cache off, or unlike the other cache-on cells in memory"
		}
		if bad != "" {
			m.t.Fatalf("step %d: %s: %s: %s\ngot (cached=%v): %s at %v under %v\nreference: %s at %v under %v",
				m.step, c.name, q.sql, bad, got.Cached, got.rows, got.At, got.Validity, want.rows, want.At, want.Validity)
		}
		if c.cache && !c.durable() {
			seen, served = true, got.Cached
		}
	}
}

// readIn reads query i in c through Exec and its memo, counts what served
// it — a patch of a monotonic entry that lost a row one of its leaves selects
// since c last read it absorbed a DELETE — and checks that the plan the memo
// gives it is the one c makes afresh. Both checks share one fresh plan.
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
	patched := got.Cached && c.stats().Patches > patches
	sel := c.s.memo[q.sql]
	var fresh algebra.Expr
	if q.build == nil && (patched || sel != nil) {
		fresh = freshPlan(m.t, c.s, q.sql).Physical
	}
	if patched {
		c.patched++
		plan := fresh
		if q.build != nil {
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
	if sel != nil && q.build == nil {
		p, err := c.s.Plan(sel)
		if err != nil {
			m.t.Fatal(err)
		}
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
// an int in [0, n). With a durable cell in the matrix a step first decides
// whether it restarts the durable cells, crashes one or arms a disk fault;
// while one is armed the stream writes one INSERT or DELETE a step,
// advances, reads and heals.
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
	// write is the INSERT or DELETE of decision r < 21.
	write := func(r int) string {
		switch {
		case r < 14:
			return insert(table(), src(30), deg())
		case r < 18:
			t, col, c := table(), "uid", 0
			if src(2) == 0 {
				c = src(30)
			} else {
				col, c = "deg", 15+src(6)*5
			}
			return fmt.Sprintf("DELETE FROM %s WHERE %s = %d", t, col, c)
		case r < 20:
			return fmt.Sprintf("DELETE FROM %s WHERE deg >= %d AND uid < %d", table(), 15+src(6)*5, src(30))
		}
		return "DELETE FROM " + table()
	}
	if m.durable != nil {
		r, armed := src(100), slices.ContainsFunc(m.durable, func(c *cell) bool { return c.fault >= 0 })
		switch {
		case armed && r < 40:
			m.write(false, write(src(21)))
		case armed && r < 50:
			m.advance(m.now + 1 + int64(src(3)))
		case armed && r < 60:
			m.heal(false)
		case armed:
			m.read(src(len(propertyQueries)))
		case r < 2:
			for _, c := range m.durable {
				c.restart(m.t)
			}
		case r < 6:
			m.crash(m.durable[src(len(m.durable))], write(src(21)), src)
		case r < 9:
			for _, c := range m.durable {
				c.fault, c.injected = m.faults%len(faultClasses), c.ffs.Injected()
				faultClasses[c.fault](c.ffs)
			}
			m.faults++
		}
		if armed || r < 9 {
			return
		}
	}
	switch r := src(100); {
	case r < 21:
		m.write(false, write(r))
	case r < 22:
		// One fewer rows than a write tail holds, as many, one more, many
		// more; or as many around a short burst, which the tail absorbs.
		const short = 64
		t := table()
		first, n := insert(t, src(30), deg()), []int{short, engineWriteTail}[src(2)]+[]int{-2, -1, 0, 16}[src(4)]
		if m.past(2*len(propertyQueries) + 1 + n) {
			return
		}
		m.burst(t, first, n)
	case r < 23:
		// Three uids into pol (two rows) and el, then each uid's low-degree
		// pol rows deleted, with or without its el rows: a difference whose
		// right argument joins pol with el, or with itself, may show it again.
		var ins, del []string
		for i := 0; i < 3; i++ {
			uid := src(30)
			ins = append(ins, insert("pol", uid, deg()), insert("pol", uid, deg()), insert("el", uid, deg()))
			if src(2) == 0 {
				del = append(del, fmt.Sprintf("DELETE FROM el WHERE uid = %d", uid))
			}
			del = append(del, fmt.Sprintf("DELETE FROM pol WHERE uid = %d AND deg < 30", uid))
		}
		if m.past(3*len(propertyQueries) + len(ins) + len(del)) {
			return
		}
		m.readAll()
		m.write(false, ins...)
		m.readAll()
		m.write(false, del...)
		m.readAll()
	case r < 24:
		// DROP + CREATE in either column order; from another session, the
		// memo keeps lowerings over the dropped relation for Session.current
		// to refuse.
		t, x := table(), src(4)
		if m.past(2*len(propertyQueries) + 1 + 3) {
			return
		}
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

// past reports whether n more statements would take the stream past its
// bound, and then ends the stream where it is: a step that runs several
// statements checks before it runs any.
func (m *matrix) past(n int) bool {
	if m.bound > 0 && m.stmts+n > m.bound {
		m.bound = m.stmts
		return true
	}
	return false
}

// burst reads every query, writes first, a row the filters may select, and
// n more rows into t that none does, and reads every query again.
func (m *matrix) burst(t, first string, n int) {
	m.readAll()
	burst := []string{first}
	for i := n; i > 0; i-- {
		burst = append(burst, fmt.Sprintf("INSERT INTO %s VALUES (%d, %d) EXPIRES AT %d", t, i, 100+i%3, m.now+1+int64(i%3)))
	}
	m.write(false, burst...)
	if len(burst) > engineWriteTail {
		m.outran++
	}
	m.readAll()
}

// heal heals every durable cell with a fault armed that has failed an
// operation, or with all, every one with a fault armed.
func (m *matrix) heal(all bool) {
	for _, c := range m.durable {
		if c.fault >= 0 && (all || c.ffs.Injected() > c.injected) {
			c.heal(m.t)
		}
	}
}

// crash runs write q in every cell; then it recovers copies of durable cell
// c's directory whose newest segment is cut where q's records start and at
// a byte drawn from inside them. The first must give back the state before
// q, the second that state less as many of q's victims as delete records
// survived.
func (m *matrix) crash(c *cell, q string, src func(n int) int) {
	seg, from := c.segment(m.t)
	before := imageOf(c.s.eng)
	m.write(false, q)
	after := imageOf(c.s.eng)
	im, records := c.recoverCut(m.t, seg, from)
	if c.cuts[1]++; !reflect.DeepEqual(im, before) {
		m.t.Fatalf("step %d: %s: the log cut where %q starts recovers\n%v\nnot\n%v", m.step, c.name, q, im, before)
	}
	if _, to := c.segment(m.t); to-from > 1 {
		at := from + 1 + int64(src(int(to-from-1)))
		if im, n := c.recoverCut(m.t, seg, at); !im.less(before, after, n-records) {
			m.t.Fatalf("step %d: %s: the log of %q cut at %d of [%d, %d] keeps %d records and recovers\n%v\nbefore\n%v\nafter\n%v",
				m.step, c.name, q, at, from, to, n-records, im, before, after)
		}
	}
}

// finish heals every disk and advances past every finite texp: every cell
// must have fired ON EXPIRE for the reference's multiset of (table, tuple,
// texp).
func (m *matrix) finish() {
	m.heal(true)
	m.advance(2 * lazyPeriod)
	slices.Sort(m.ref.fired)
	for _, c := range m.cells {
		if slices.Sort(c.fired); !slices.Equal(c.fired, m.ref.fired) {
			m.t.Fatalf("%s fired ON EXPIRE for\n%s\nthe reference for\n%s", c.name, strings.Join(c.fired, "\n"), strings.Join(m.ref.fired, "\n"))
		}
	}
}

// replay runs steps of the stream seeded by seed on the cells keep selects —
// ending, if the stream wrote no burst longer than a write tail, with
// one burst of a row more, every disk healed first — then finish, and fails
// as vacuous if a cache-on cell never hits, revalidates, patches, keeps a
// difference, absorbs a DELETE into a monotonic entry, drops an entry or
// overruns a write tail, an indexed cell never probes for a
// read or a DELETE, a lazy cell never runs one over an unswept row, or a
// durable cell never restarts, recovers a log cut inside a record and one
// cut at a boundary, refuses a write with ErrReadOnly or fails an operation
// under each fault class.
func replay(t *testing.T, seed int64, steps int, keep func(*cell) bool) *matrix {
	m := newMatrix(t, keep)
	for rng := rand.New(rand.NewSource(seed)); m.step < steps; m.step++ {
		m.next(rng.Intn)
	}
	if m.outran == 0 {
		m.heal(true)
		m.burst("pol", "INSERT INTO pol VALUES (7, 25)", engineWriteTail)
	}
	m.finish()
	for _, c := range m.cells {
		if st := c.stats(); c.cache && (c.hits == 0 || st.Revalidations == 0 || c.patched == 0 || c.kept == 0 || c.absorbed == 0 || st.EpochInvalidations == 0 || st.TailOverruns == 0) ||
			c.using != "" && (c.probed[0] == 0 || c.probed[1] == 0) || c.lazy && c.unswept == 0 {
			t.Fatalf("%s: %d hits, %d revalidated, %d patched (%d kept differences, %d absorbed DELETEs), %d dropped by a write, %d of them tail overruns after %d bursts longer than a tail; %d reads and %d DELETEs probed; %d over unswept rows — the test is vacuous",
				c.name, c.hits, st.Revalidations, c.patched, c.kept, c.absorbed, st.EpochInvalidations, st.TailOverruns, m.outran, c.probed[0], c.probed[1], c.unswept)
		}
		if c.durable() && (c.restarts == 0 || c.cuts[0] == 0 || c.cuts[1] == 0 || c.readOnly == 0 || slices.Contains(c.faults[:], 0)) {
			t.Fatalf("%s: %d restarts, %d logs cut inside a record and %d at a boundary recovered, %d writes refused read-only, %v faults taken by class — the test is vacuous",
				c.name, c.restarts, c.cuts[0], c.cuts[1], c.readOnly, c.faults)
		}
	}
	return m
}

// TestReplayMatrix replays a seeded stream on all fifteen cells.
func TestReplayMatrix(t *testing.T) { replay(t, 20060418, 1000, nil) }

// TestCachedEqualsUncachedProperty replays its own seeds on the cache-on
// cells in memory, unindexed (scan) and indexed, against the cache-off
// reference.
func TestCachedEqualsUncachedProperty(t *testing.T) {
	for seed, name := range []string{"scan", "indexed"} {
		t.Run(name, func(t *testing.T) {
			replay(t, int64(101+seed), 500, func(c *cell) bool { return inMemory(c) && c.cache && (c.using != "") == (name == "indexed") })
		})
	}
}

// TestIndexedEquivalenceProperty replays its own seeds on the cache-off
// indexed cells in memory, hash and ordered, eager and lazy, against the
// unindexed reference.
func TestIndexedEquivalenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			replay(t, 200+seed, 400, func(c *cell) bool { return inMemory(c) && !c.cache && c.using != "" })
		})
	}
}

// TestDeleteEquivalenceProperty replays its own seeds on the cache-off
// cells in memory: every DELETE, by equality, by range or of every row,
// prints and counts what the reference's does, and ON EXPIRE fires alike.
func TestDeleteEquivalenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			replay(t, 300+seed, 400, func(c *cell) bool { return inMemory(c) && !c.cache })
		})
	}
}

// TestCrashRecoveryProperty replays its own seeds on the durable cells,
// eager and lazy apart: each restarts, and recovers logs cut inside and
// between the records of a write into the state before or after it.
func TestCrashRecoveryProperty(t *testing.T) {
	for _, mode := range []string{"eager", "lazy"} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", mode, seed), func(t *testing.T) {
				replay(t, 400+seed, 400, func(c *cell) bool { return c.durable() && c.lazy == (mode == "lazy") })
			})
		}
	}
}

// TestDiskFaultProperty replays its own seeds on the three durable cells:
// under each fault class reads match the reference, a refused write changes
// nothing, and a healed cell re-runs what the fault refused or cut short.
func TestDiskFaultProperty(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			replay(t, 500+seed, 400, func(c *cell) bool { return c.durable() })
		})
	}
}

// TestIndexedConcurrentReads is the matrix's concurrent phase: after a
// seeded replay, four readers race a writer (-race checks the locking) on
// the cell in memory that caches, indexes and sweeps lazily, until a read
// was patched; every eighth tick it re-inserts a row that expired unswept.
func TestIndexedConcurrentReads(t *testing.T) {
	m := replay(t, 20060418, 300, func(c *cell) bool { return inMemory(c) && c.cache && c.using == "ORDERED" && c.lazy })
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

// fuzzStatements bounds an input the fuzzer makes by the statements the
// stream runs, reads included, past the six that make the tables: a step
// that reads every query of the catalogue, or writes a burst, counts as
// what it runs, and a burst, a join burst or a DROP + CREATE that would take
// the stream past the bound ends it instead of running (matrix.past). The fuzzer runs each input that finds new
// coverage over and over while it shortens it, so an input must stay short
// to leave it time to fuzz. A named seed runs to its end.
const fuzzStatements = 6 + 32

// FuzzCachePatch reads its input as the stream's decisions, each the next
// byte modulo n (0 once spent), on the cells in memory. A named seed — not
// one the fuzzer wrote under a hash — must read.
func FuzzCachePatch(f *testing.F) {
	hashed := regexp.MustCompile(`^FuzzCachePatch(/[0-9a-f]{16})?$`)
	f.Fuzz(func(t *testing.T, data []byte) {
		named := !hashed.MatchString(t.Name())
		m, src := newMatrix(t, inMemory), func(n int) (v int) {
			if len(data) > 0 {
				v, data = int(data[0])%n, data[1:]
			}
			return v
		}
		if !named {
			m.bound = fuzzStatements
		}
		for ; len(data) > 0 && (m.bound == 0 || m.stmts < m.bound); m.step++ {
			m.next(src)
		}
		if m.reads == 0 && named {
			t.Fatal("the seed makes no read, so it checks nothing")
		}
		m.finish()
	})
}
