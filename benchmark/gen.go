package main

import (
	"container/heap"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// class is the statement class a latency sample is filed under.
type class uint8

const (
	clsRead    class = iota // SELECT, view read, Materialize, Read(τ), ServerTime
	clsWrite                // INSERT, DELETE
	clsAdvance              // the clock heartbeat with its expiry batch
	numClasses
)

var classNames = [numClasses]string{"read", "write", "advance"}

// opKind is what one generated operation does.
type opKind uint8

const (
	opInsert opKind = iota
	opDelete
	opPoint // SELECT by sid through the hash index
	opRange // SELECT by score range through the ordered index
	opJoin
	opAgg
	opDiff
	opViewRead    // SELECT * FROM <materialised view>
	opMaterialize // wire: fetch a query's result and validity
	opLocalRead   // wire: Read(τ) of the current materialisation
	opServerTime  // wire: one empty round trip
	opAdvance
	numKinds
)

var kindNames = [numKinds]string{
	"insert", "delete", "point", "range", "join", "agg", "diff",
	"view_read", "materialize", "local_read", "server_time", "advance",
}

func (k opKind) class() class {
	switch k {
	case opInsert, opDelete:
		return clsWrite
	case opAdvance:
		return clsAdvance
	}
	return clsRead
}

// row3 is a tuple of up to three integer columns; every table the
// workloads use fits.
type row3 [3]int64

// op is one generated operation together with what the generator's model
// says its answer must be. The program under test receives only stmt (and
// now, for Read(τ)); everything else is the checker's.
type op struct {
	kind  opKind
	qkind opKind // opMaterialize: the kind of the query it ships
	stmt  string
	now   int64 // logical tick the op executes at (ADVANCE: its target)

	// rows is the exact number of result rows the model expects, -1 when
	// the read is not modelled (ranges, joins, aggregates, differences:
	// those are covered by the reference replay). want is the expected
	// row and its texp when rows == 1.
	rows     int
	want     row3
	wantTexp int64
	// expired is the exact number of tuples an ADVANCE must expire.
	expired int

	// What a write changes, for the traced pass's standalone twins.
	table string
	ncol  int
	tup   row3
	texp  int64
	view  string // opViewRead: the view's name
}

// expHeap orders (texp, tuple) pairs; the model's expiration queue.
type expItem struct {
	texp int64
	tup  row3
}
type expHeap []expItem

func (h expHeap) Len() int            { return len(h) }
func (h expHeap) Less(i, j int) bool  { return h[i].texp < h[j].texp }
func (h expHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *expHeap) Push(x interface{}) { *h = append(*h, x.(expItem)) }
func (h *expHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// tableModel is the checker's copy of one table: tuple → texp with the
// engine's set semantics (re-inserting an equal tuple keeps the larger
// expiration time), plus a lazily cleaned expiration queue.
type tableModel struct {
	texp map[row3]int64
	q    expHeap
	// onGone is called for every tuple that expires or is deleted.
	onGone func(row3)
}

const never = math.MaxInt64

func newTableModel() *tableModel { return &tableModel{texp: map[row3]int64{}} }

func (m *tableModel) insert(t row3, texp int64) {
	if old, ok := m.texp[t]; ok && old >= texp {
		return
	}
	m.texp[t] = texp
	if texp != never {
		heap.Push(&m.q, expItem{texp, t})
	}
}

func (m *tableModel) delete(t row3) {
	if _, ok := m.texp[t]; ok {
		delete(m.texp, t)
		if m.onGone != nil {
			m.onGone(t)
		}
	}
}

// advance expires every tuple with texp <= to and returns how many.
func (m *tableModel) advance(to int64) int {
	n := 0
	for len(m.q) > 0 && m.q[0].texp <= to {
		it := heap.Pop(&m.q).(expItem)
		if cur, ok := m.texp[it.tup]; ok && cur == it.texp {
			delete(m.texp, it.tup)
			n++
			if m.onGone != nil {
				m.onGone(it.tup)
			}
		}
	}
	return n
}

// sessModel is tableModel for sess(sid, uid, score), where sid is unique:
// it adds lookup by sid and uniform sampling of the live, unpinned sids.
type sessModel struct {
	*tableModel
	bySid   map[int64]row3
	live    []int64 // sids that may be deleted or point-read as "live"
	pos     map[int64]int
	dead    []int64 // ring of recently expired or deleted sids
	deadAt  int
	nextSid int64
}

func newSessModel() *sessModel {
	m := &sessModel{tableModel: newTableModel(), bySid: map[int64]row3{}, pos: map[int64]int{}, nextSid: 1}
	m.onGone = func(t row3) {
		sid := t[0]
		delete(m.bySid, sid)
		if i, ok := m.pos[sid]; ok {
			last := m.live[len(m.live)-1]
			m.live[i] = last
			m.pos[last] = i
			m.live = m.live[:len(m.live)-1]
			delete(m.pos, sid)
		}
		const ring = 256
		if len(m.dead) < ring {
			m.dead = append(m.dead, sid)
		} else {
			m.dead[m.deadAt%ring] = sid
			m.deadAt++
		}
	}
	return m
}

// add inserts a fresh session; pinned ones are never sampled by pick, so
// they are never deleted.
func (m *sessModel) add(uid, score, texp int64, pinned bool) row3 {
	t := row3{m.nextSid, uid, score}
	m.nextSid++
	m.insert(t, texp)
	m.bySid[t[0]] = t
	if !pinned {
		m.pos[t[0]] = len(m.live)
		m.live = append(m.live, t[0])
	}
	return t
}

func (m *sessModel) pick(rng *rand.Rand) (int64, bool) {
	if len(m.live) == 0 {
		return 0, false
	}
	return m.live[rng.Intn(len(m.live))], true
}

// deleteBySid removes the session from the model and returns the DELETE.
func (m *sessModel) deleteBySid(sid, now int64) op {
	t := m.bySid[sid]
	m.delete(t)
	return op{kind: opDelete, stmt: fmt.Sprintf("DELETE FROM sess WHERE sid = %d", sid),
		now: now, rows: -1, expired: -1, table: "sess", ncol: 3, tup: t}
}

// expectPoint fills o's expectation for a point read of sid at o.now.
func (m *sessModel) expectPoint(o *op, sid int64) {
	o.rows = 0
	if t, ok := m.bySid[sid]; ok && m.texp[t] > o.now {
		o.rows, o.want, o.wantTexp = 1, t, m.texp[t]
	}
}

// generator produces one workload's schema, preload and operation stream
// from a seed. It owns the logical clock: every ADVANCE names an absolute
// tick, so the stream is the same whatever executes it.
type generator struct {
	w        *workload
	seed     int64
	ddl      []string // tables and triggers
	indexDDL []string // the system under test only, after the preload
	viewDDL  []string // after the preload
	preload  []op     // opInsert with absolute expiration times
	next     func() op

	// hasTrigger: every expired tuple must also fire one NOTIFY.
	hasTrigger bool
	generated  int
	digest     uint64 // FNV-1a over every statement generated so far
}

// take generates the next n operations.
func (g *generator) take(n int) []op {
	ops := make([]op, n)
	h := fnv.New64a()
	var seedBuf [8]byte
	for i := range ops {
		ops[i] = g.next()
		for b := 0; b < 8; b++ {
			seedBuf[b] = byte(g.digest >> (8 * b))
		}
		h.Reset()
		h.Write(seedBuf[:])
		h.Write([]byte(ops[i].stmt))
		h.Write([]byte{byte(ops[i].kind)})
		g.digest = h.Sum64()
	}
	g.generated += n
	return ops
}

// residual draws a remaining lifetime for a preloaded row: the stationary
// residual of lifetimes uniform on [1, horizon], so the live set starts at
// its steady state instead of drifting towards it during the timed run.
func residual(rng *rand.Rand, horizon int64) int64 {
	r := int64(float64(horizon) * (1 - math.Sqrt(rng.Float64())))
	if r < 1 {
		r = 1
	}
	return r
}

func insertAt(table string, t row3, ncol int, texp int64) op {
	o := op{kind: opInsert, table: table, ncol: ncol, tup: t, texp: texp, rows: -1, expired: -1}
	if ncol == 2 {
		o.stmt = fmt.Sprintf("INSERT INTO %s VALUES (%d, %d)", table, t[0], t[1])
	} else {
		o.stmt = fmt.Sprintf("INSERT INTO %s VALUES (%d, %d, %d)", table, t[0], t[1], t[2])
	}
	if texp != never {
		o.stmt += fmt.Sprintf(" EXPIRES AT %d", texp)
	}
	return o
}

// insertIn is an INSERT … EXPIRES IN ttl issued at tick now.
func insertIn(table string, t row3, ncol int, now, ttl int64) op {
	o := insertAt(table, t, ncol, never)
	o.texp, o.now = now+ttl, now
	o.stmt += fmt.Sprintf(" EXPIRES IN %d", ttl)
	return o
}

func advanceTo(to int64, expired int) op {
	return op{kind: opAdvance, stmt: fmt.Sprintf("ADVANCE TO %d", to), now: to, rows: -1, expired: expired}
}

func read(kind opKind, stmt string, now int64) op {
	return op{kind: kind, stmt: stmt, now: now, rows: -1, expired: -1}
}

const scoreSpace = 100_000

// scoreWidths returns the width of a score range that selects about
// 100*mult of rows uniformly spread sessions, capped at half the space.
func scoreWidths(rows int) func(mult int64) int64 {
	return func(mult int64) int64 {
		return min(mult*scoreSpace*100/int64(rows), scoreSpace/2)
	}
}

func pointStmt(sid int64) string { return fmt.Sprintf("SELECT * FROM sess WHERE sid = %d", sid) }

func rangeStmt(lo, width int64) string {
	return fmt.Sprintf("SELECT * FROM sess WHERE score >= %d AND score < %d", lo, lo+width)
}

// ---------------------------------------------------------------- session_ingest

// newSessionIngest: the paper's web-session scenario. Almost every
// statement is an INSERT with a TTL; the clock heartbeat expires a batch
// each time it moves.
func newSessionIngest(w *workload, seed int64, sc scale) *generator {
	rows := sc.pick(20_000, 1_500)
	const delta = 10 // ticks per ADVANCE
	// 85 inserts and 5 advances of delta ticks per 100 ops with lifetimes
	// uniform on [1, horizon] hold 8.5*horizon/delta rows live.
	horizon := int64(float64(rows) * delta / 8.5)
	rng := rand.New(rand.NewSource(seed))
	m := newSessModel()
	g := &generator{w: w, seed: seed, hasTrigger: true,
		ddl: []string{
			"CREATE TABLE sess (sid INT, uid INT, score INT)",
			"CREATE TRIGGER sess_expired ON sess ON EXPIRE DO NOTIFY 'session expired'",
		},
		indexDDL: []string{"CREATE INDEX sess_sid ON sess (sid)"},
	}
	newRow := func(texp int64) row3 {
		return m.add(rng.Int63n(5_000), rng.Int63n(scoreSpace), texp, false)
	}
	for i := 0; i < rows; i++ {
		texp := residual(rng, horizon)
		g.preload = append(g.preload, insertAt("sess", newRow(texp), 3, texp))
	}
	now := int64(0)
	g.next = func() op {
		x := rng.Intn(100)
		switch {
		case x >= 95:
			now += delta
			return advanceTo(now, m.advance(now))
		case x >= 90:
			// One read in eight asks for a session that is gone: the
			// answer must be empty, never the expired row.
			sid, ok := m.pick(rng)
			if len(m.dead) > 0 && rng.Intn(8) == 0 {
				sid, ok = m.dead[rng.Intn(len(m.dead))], true
			}
			if ok {
				o := read(opPoint, pointStmt(sid), now)
				m.expectPoint(&o, sid)
				return o
			}
		case x >= 85:
			if sid, ok := m.pick(rng); ok {
				return m.deleteBySid(sid, now)
			}
		}
		ttl := 1 + rng.Int63n(horizon)
		return insertIn("sess", newRow(now+ttl), 3, now, ttl)
	}
	return g
}

// ---------------------------------------------------------------- dashboard_reads

// catalogueKinds fixes which kind of statement sits at which popularity
// rank of dashboard_reads' catalogue. It must not depend on the seed: the
// zipf draw gives rank 0 about a quarter of all reads, so a seed that put
// a join there and another that put a point lookup there would be two
// different workloads. Only the constants inside the statements vary.
func catalogueKinds() []opKind {
	kinds := make([]opKind, 0, 200)
	add := func(k opKind, n int) {
		for i := 0; i < n; i++ {
			kinds = append(kinds, k)
		}
	}
	add(opPoint, 120)
	add(opRange, 50)
	add(opJoin, 20)
	add(opAgg, 5)
	add(opDiff, 5)
	rand.New(rand.NewSource(20060403)).Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

// newDashboardReads: a fixed catalogue of 200 statements drawn zipf(1.1),
// which fits the 256-entry result cache, beside 2.2 % writes and 2 %
// heartbeats that invalidate it.
func newDashboardReads(w *workload, seed int64, sc scale) *generator {
	sessRows := sc.pick(20_000, 1_500)
	usrRows := sc.pick(2_000, 150)
	const groups = 50
	// 2 inserts, 0.2 deletes and 2 one-tick advances per 100 ops: lifetimes
	// uniform on [1, horizon] then hold about horizon/2.15 rows live.
	horizon := int64(float64(sessRows) * 2.15)
	width := scoreWidths(sessRows)
	rng := rand.New(rand.NewSource(seed))
	m := newSessModel()
	g := &generator{w: w, seed: seed,
		ddl: []string{
			"CREATE TABLE sess (sid INT, uid INT, score INT)",
			"CREATE TABLE usr (uid INT, grp INT)",
		},
		indexDDL: []string{
			"CREATE INDEX sess_sid ON sess (sid)",
			"CREATE INDEX sess_score ON sess (score) USING ORDERED",
		},
	}
	for uid := 0; uid < usrRows; uid++ {
		g.preload = append(g.preload, insertAt("usr", row3{int64(uid), int64(uid % groups)}, 2, never))
	}
	kinds := catalogueKinds()
	// 100 of the 120 point statements read pinned sessions (they outlive
	// any run and are never deleted, so their cache entries die only by
	// write epochs); the other 20 read sessions that expire during the run.
	var pinned, mortal []int64
	for i := 0; i < sessRows; i++ {
		texp := residual(rng, horizon)
		pin := len(pinned) < 100 && i%7 == 0
		if pin {
			texp = 1000 * horizon
		}
		t := m.add(rng.Int63n(int64(usrRows)), rng.Int63n(scoreSpace), texp, pin)
		g.preload = append(g.preload, insertAt("sess", t, 3, texp))
		switch {
		case pin:
			pinned = append(pinned, t[0])
		case len(mortal) < 20 && texp > horizon/20 && texp < horizon/4:
			mortal = append(mortal, t[0])
		}
	}
	type entry struct {
		kind opKind
		stmt string
		sid  int64
	}
	catalogue := make([]entry, len(kinds))
	points := 0
	for i, k := range kinds {
		e := entry{kind: k}
		lo := rng.Int63n(scoreSpace / 2)
		grp := rng.Intn(groups)
		switch k {
		case opPoint:
			if points < len(pinned) {
				e.sid = pinned[points]
			} else if n := points - len(pinned); n < len(mortal) {
				e.sid = mortal[n]
			} else {
				e.sid = int64(1 + rng.Intn(sessRows))
			}
			points++
			e.stmt = pointStmt(e.sid)
		case opRange:
			e.stmt = rangeStmt(lo, width(1))
		case opJoin:
			e.stmt = fmt.Sprintf("SELECT sess.sid, sess.score, usr.grp FROM sess JOIN usr ON sess.uid = usr.uid WHERE usr.grp = %d AND sess.score >= %d", grp, scoreSpace-scoreSpace/4+lo%1000)
		case opAgg:
			e.stmt = fmt.Sprintf("SELECT uid, COUNT(*) FROM sess WHERE score >= %d AND score < %d GROUP BY uid", lo, lo+width(4))
		case opDiff:
			e.stmt = fmt.Sprintf("SELECT uid FROM usr WHERE grp = %d EXCEPT SELECT uid FROM sess WHERE score >= %d AND score < %d", grp, lo, lo+width(20))
		}
		catalogue[i] = e
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(catalogue)-1))
	now := int64(0)
	g.next = func() op {
		x := rng.Intn(100)
		switch {
		case x >= 98:
			now++
			return advanceTo(now, m.advance(now))
		case x == 97 && rng.Intn(5) == 0:
			if sid, ok := m.pick(rng); ok {
				return m.deleteBySid(sid, now)
			}
		case x >= 95 && x < 97:
			ttl := 1 + rng.Int63n(horizon)
			t := m.add(rng.Int63n(int64(usrRows)), rng.Int63n(scoreSpace), now+ttl, false)
			return insertIn("sess", t, 3, now, ttl)
		}
		e := catalogue[zipf.Uint64()]
		o := read(e.kind, e.stmt, now)
		if e.kind == opPoint {
			m.expectPoint(&o, e.sid)
		}
		return o
	}
	return g
}

// ---------------------------------------------------------------- view_maintenance

var viewNames = [4]string{"v_join", "v_hist", "v_diff_patch", "v_diff"}

// viewQueries are the four views' defining queries, in viewNames order.
var viewQueries = [4]string{
	"SELECT pol.uid, pol.deg, el.deg FROM pol JOIN el ON pol.uid = el.uid",
	"SELECT deg, COUNT(*) FROM pol GROUP BY deg",
	"SELECT uid FROM pol EXCEPT SELECT uid FROM el",
	"SELECT uid FROM pol EXCEPT SELECT uid FROM el",
}

// newViewMaintenance: the paper's core claim. Four materialised views over
// the news-service tables are read while tuples expire under them: the
// monotonic join never needs recomputation (Theorem 1), the histogram
// invalidates at its change points, and the difference is kept once by
// patching (Theorem 3) and once by recomputing.
func newViewMaintenance(w *workload, seed int64, sc scale) *generator {
	polRows := sc.pick(5_000, 400)
	elRows := polRows / 2
	users := int64(float64(polRows) / 0.9)
	// Per one-tick advance the stream inserts 0.6 pol and 0.4 el rows, so
	// lifetimes uniform on [1, 2*rows/rate] keep both tables at their size.
	polHorizon := int64(2 * float64(polRows) / 0.6)
	elHorizon := int64(2 * float64(elRows) / 0.4)
	rng := rand.New(rand.NewSource(seed))
	pol, el := newTableModel(), newTableModel()
	g := &generator{w: w, seed: seed,
		ddl: []string{
			"CREATE TABLE pol (uid INT, deg INT)",
			"CREATE TABLE el (uid INT, deg INT)",
		},
	}
	for i, name := range viewNames {
		opt := ""
		if name == "v_diff_patch" {
			opt = " WITH (patching)"
		}
		g.viewDDL = append(g.viewDDL, fmt.Sprintf("CREATE MATERIALIZED VIEW %s%s AS %s", name, opt, viewQueries[i]))
	}
	for i := 0; i < polRows; i++ {
		t, texp := row3{rng.Int63n(users), rng.Int63n(100)}, residual(rng, polHorizon)
		pol.insert(t, texp)
		g.preload = append(g.preload, insertAt("pol", t, 2, texp))
	}
	for i := 0; i < elRows; i++ {
		t, texp := row3{rng.Int63n(users), rng.Int63n(100)}, residual(rng, elHorizon)
		el.insert(t, texp)
		g.preload = append(g.preload, insertAt("el", t, 2, texp))
	}
	now := int64(0)
	g.next = func() op {
		x := rng.Intn(100)
		switch {
		case x >= 90:
			now++
			return advanceTo(now, pol.advance(now)+el.advance(now))
		case x >= 84:
			t, ttl := row3{rng.Int63n(users), rng.Int63n(100)}, 1+rng.Int63n(polHorizon)
			pol.insert(t, now+ttl)
			return insertIn("pol", t, 2, now, ttl)
		case x >= 80:
			t, ttl := row3{rng.Int63n(users), rng.Int63n(100)}, 1+rng.Int63n(elHorizon)
			el.insert(t, now+ttl)
			return insertIn("el", t, 2, now, ttl)
		}
		o := read(opViewRead, "", now)
		o.view = viewNames[rng.Intn(len(viewNames))]
		o.stmt = "SELECT * FROM " + o.view
		return o
	}
	return g
}

// ---------------------------------------------------------------- remote_reads

// newRemoteReads: the expsyncd shape. A remote view node materialises
// queries drawn uniformly from a population far larger than the server's
// result cache, reads its local copy while that stays valid, and the
// server keeps inserting and expiring underneath.
func newRemoteReads(w *workload, seed int64, sc scale) *generator {
	sessRows := sc.pick(5_000, 500)
	usrRows := sessRows / 10
	population := sc.pick(5_000, 500)
	const groups = 25
	const delta = 5
	// 5 inserts and 4 advances of delta ticks per 100 ops.
	horizon := int64(2 * float64(sessRows) * 4 * delta / 5)
	width := scoreWidths(sessRows)
	rng := rand.New(rand.NewSource(seed))
	m := newSessModel()
	g := &generator{w: w, seed: seed,
		ddl: []string{
			"CREATE TABLE sess (sid INT, uid INT, score INT)",
			"CREATE TABLE usr (uid INT, grp INT)",
		},
		// The index is there so the wire path has one to ignore:
		// Server.respond plans without the optimiser and scans.
		indexDDL: []string{"CREATE INDEX sess_sid ON sess (sid)"},
	}
	for uid := 0; uid < usrRows; uid++ {
		g.preload = append(g.preload, insertAt("usr", row3{int64(uid), int64(uid % groups)}, 2, never))
	}
	for i := 0; i < sessRows; i++ {
		texp := residual(rng, horizon)
		t := m.add(rng.Int63n(int64(usrRows)), rng.Int63n(scoreSpace), texp, false)
		g.preload = append(g.preload, insertAt("sess", t, 3, texp))
	}
	type entry struct {
		kind opKind
		stmt string
		sid  int64
	}
	pop := make([]entry, 0, population)
	seen := map[string]bool{}
	sids := rng.Perm(sessRows)
	for i := 0; len(pop) < population; i++ {
		e := entry{}
		lo := rng.Int63n(scoreSpace / 2)
		switch slot := len(pop) % 50; {
		case slot < 30:
			e.kind, e.sid = opPoint, int64(1+sids[i%sessRows])
			if i >= sessRows { // more point statements than preloaded rows
				e.sid = int64(i + 1)
			}
			e.stmt = pointStmt(e.sid)
		case slot < 45:
			e.kind, e.stmt = opRange, rangeStmt(lo, width(1))
		case slot < 49:
			e.kind = opJoin
			e.stmt = fmt.Sprintf("SELECT sess.sid, sess.score, usr.grp FROM sess JOIN usr ON sess.uid = usr.uid WHERE usr.grp = %d AND sess.score >= %d", rng.Intn(groups), scoreSpace/2+lo/2)
		default:
			e.kind = opDiff
			e.stmt = fmt.Sprintf("SELECT uid FROM usr WHERE grp = %d EXCEPT SELECT uid FROM sess WHERE score >= %d AND score < %d", rng.Intn(groups), lo, lo+width(10))
		}
		if seen[e.stmt] {
			continue
		}
		seen[e.stmt] = true
		pop = append(pop, e)
	}
	now := int64(0)
	materialised := false
	g.next = func() op {
		x := rng.Intn(100)
		if !materialised {
			x = 0
		}
		switch {
		case x >= 96:
			now += delta
			return advanceTo(now, m.advance(now))
		case x >= 91:
			ttl := 1 + rng.Int63n(horizon)
			t := m.add(rng.Int63n(int64(usrRows)), rng.Int63n(scoreSpace), now+ttl, false)
			return insertIn("sess", t, 3, now, ttl)
		case x >= 86:
			return read(opServerTime, "", now)
		case x >= 66:
			return read(opLocalRead, "", now)
		}
		materialised = true
		e := pop[rng.Intn(len(pop))]
		o := read(opMaterialize, e.stmt, now)
		o.qkind = e.kind
		if e.kind == opPoint {
			m.expectPoint(&o, e.sid)
		}
		return o
	}
	return g
}
