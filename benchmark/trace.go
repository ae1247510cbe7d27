package main

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"expdb"
	"expdb/internal/algebra"
	"expdb/internal/index"
	"expdb/internal/pqueue"
	"expdb/internal/relation"
	"expdb/internal/sql"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/wal"
	"expdb/internal/wheel"
	"expdb/internal/wire"
	"expdb/internal/xtime"
)

// The traced pass. End-to-end numbers are always taken with tracing off;
// here every sampleEvery-th timed operation of one repetition is executed
// decomposed into the same exported calls the program makes for it, each
// wrapped in a span. Spans are recorded from the benchmark's own files,
// around calls into each layer: nothing inside the engine is edited.
//
// A span's children did the same work as the part of the parent they stand
// for. Where the engine does not expose that part (the WAL append inside
// Engine.Insert, the scheduler pop inside Engine.Advance) the child is the
// same call made on a standalone twin of the structure, fed the identical
// stream since the preload; it runs right after the parent, so its start
// and end lie outside the parent's, and nesting is by the parent field.
// A layer's self time is its span's duration minus its children's.
const sampleEvery = 20

// span is one line of the span file.
type span struct {
	Workload string  `json:"workload"`
	Stmt     int     `json:"stmt"`   // index of the statement in the stream
	ID       int     `json:"span"`   // 1-based, unique within the file
	Parent   int     `json:"parent"` // 0: a root span of the statement
	Name     string  `json:"name"`
	Kind     string  `json:"kind,omitempty"`
	Start    int64   `json:"start_ns"` // since the trace began
	End      int64   `json:"end_ns"`
	Units    float64 `json:"units,omitempty"` // rows, krows or tuples the span handled
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	on       bool
	// timerNS is what taking the two timestamps adds to an empty span,
	// measured at start-up and subtracted wherever durations are used.
	timerNS int64
}

func newTracer(workload string, capacity int) *tracer {
	t := &tracer{workload: workload, t0: time.Now(), spans: make([]span, 0, capacity), on: true}
	var empty []int64
	for i := 0; i < 2000; i++ {
		id := t.start(0, 0, "calibrate", "")
		t.end(id, 0)
		empty = append(empty, t.spans[id-1].dur())
	}
	t.timerNS = int64(medianInt64(empty))
	t.spans = t.spans[:0]
	return t
}

// start opens a span and returns its ID; 0 when the tracer is off, which
// end accepts.
func (t *tracer) start(stmt, parent int, name, kind string) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{Workload: t.workload, Stmt: stmt, ID: len(t.spans) + 1, Parent: parent, Name: name, Kind: kind})
	id := len(t.spans)
	t.spans[id-1].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int, units float64) {
	now := int64(time.Since(t.t0))
	if id == 0 {
		return
	}
	t.spans[id-1].End = now
	t.spans[id-1].Units = units
}

// took is the span's duration with the timer's own cost removed.
func (t *tracer) took(id int) time.Duration {
	if id == 0 {
		return 0
	}
	return time.Duration(max(t.spans[id-1].dur()-t.timerNS, 0))
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// twinEvent is what the standalone schedulers hold per scheduled tuple,
// mirroring the engine's own event.
type twinEvent struct{ table, key string }

// twins are standalone copies of the structures the engine keeps private,
// fed every write of the stream (preload included) so that timing a call
// on a twin times the same work on the same contents.
type twins struct {
	rels   map[string]*relation.Relation // same indexes attached as the real table
	idx    map[string][]index.Index      // standalone secondary indexes per table
	texp   map[string]*index.TexpHeap
	pq     *pqueue.Queue[twinEvent]
	wheel  *wheel.Wheel[twinEvent]
	log    *wal.Log // nil for in-memory workloads
	logDir string
}

func newTwins(g *generator, in *instance, walDir string) (*twins, error) {
	tw := &twins{rels: map[string]*relation.Relation{}, idx: map[string][]index.Index{}, texp: map[string]*index.TexpHeap{},
		pq: pqueue.New[twinEvent](1024), wheel: wheel.New[twinEvent](0)}
	for _, name := range tablesOf(g.w) {
		base, err := in.db.Engine().Base(name)
		if err != nil {
			return nil, err
		}
		rel := relation.New(base.Schema())
		rel.EnableTexpIndex()
		tw.rels[name] = rel
		tw.texp[name] = index.NewTexpHeap()
	}
	if g.w.durable {
		log, _, err := wal.OpenFS(walDir, newBenchFS())
		if err != nil {
			return nil, err
		}
		tw.log, tw.logDir = log, walDir
	}
	return tw, nil
}

// attachIndexes gives the twins the secondary indexes the real tables got
// after the preload (attach-time backfill, like CREATE INDEX).
func (tw *twins) attachIndexes(in *instance) {
	for name, rel := range tw.rels {
		base, err := in.db.Engine().Base(name)
		if err != nil {
			continue
		}
		for _, ni := range base.Rel.Indexes() {
			mk := func() index.Index {
				if ni.Idx.Kind() == index.KindOrdered {
					return index.NewOrdered(ni.Idx.Cols())
				}
				return index.NewHash(ni.Idx.Cols())
			}
			rel.AttachIndex(ni.Name, mk())
			standalone := mk()
			rel.All(func(row relation.Row) {
				standalone.Insert(index.Entry{Key: row.Tuple.Key(), Tuple: row.Tuple, Texp: row.Texp})
			})
			tw.idx[name] = append(tw.idx[name], standalone)
		}
	}
}

func (tw *twins) close() {
	if tw.log != nil {
		tw.log.Close()
		os.RemoveAll(tw.logDir)
	}
}

func opTuple(o *op) (tuple.Tuple, xtime.Time) {
	texp := xtime.Time(o.texp)
	if o.texp == never {
		texp = xtime.Infinity
	}
	return tuple.Ints(o.tup[:o.ncol]...), texp
}

// insert applies o to the twins; with the tracer on, each call is a child
// span of parent (the engine.insert span).
func (tw *twins) insert(o *op, tr *tracer, stmt, parent int) {
	t, texp := opTuple(o)
	key := t.Key()
	if tw.log != nil {
		s := tr.start(stmt, parent, "wal.append_sync", "insert")
		if seq, err := tw.log.Append(&wal.Record{Kind: wal.KindInsert, Name: o.table, Tuple: t, Texp: texp}); err == nil {
			tw.log.Sync(seq)
		}
		tr.end(s, 1)
	}
	rs := tr.start(stmt, parent, "relation.insert", "")
	changed, _, had := tw.rels[o.table].InsertKeyed(key, t, texp)
	tr.end(rs, 1)
	if !changed {
		return
	}
	if idxs := tw.idx[o.table]; len(idxs) > 0 {
		s := tr.start(stmt, rs, "index.maintain", "insert")
		for _, ix := range idxs {
			if had {
				ix.Update(key, t, texp)
			} else {
				ix.Insert(index.Entry{Key: key, Tuple: t, Texp: texp})
			}
		}
		tr.end(s, float64(len(idxs)))
	}
	s := tr.start(stmt, rs, "index.texpheap_push", "")
	tw.texp[o.table].Push(key, texp)
	tr.end(s, 1)
	if texp == xtime.Infinity {
		return
	}
	ev := twinEvent{o.table, key}
	s = tr.start(stmt, parent, "pqueue.push", "")
	tw.pq.Push(texp, ev)
	tr.end(s, 1)
	// The wheel is the alternative scheduler: the same event goes through
	// it as a root span, outside engine.insert's subtraction.
	s = tr.start(stmt, 0, "wheel.push", "")
	tw.wheel.Schedule(texp, ev)
	tr.end(s, 1)
}

// untraced is the tracer handed to the twins when a write is only being
// followed, not timed.
var untraced = &tracer{}

// follow applies a write the stream executed whole to the twins, untimed.
func (tw *twins) follow(o *op) {
	switch o.kind {
	case opInsert:
		tw.insert(o, untraced, 0, 0)
	case opDelete:
		tw.delete(o)
	case opAdvance:
		tw.advance(xtime.Time(o.now), untraced, 0, 0)
	}
}

func (tw *twins) delete(o *op) {
	t, _ := opTuple(o)
	key := t.Key()
	if tw.rels[o.table].DeleteKey(key) {
		for _, ix := range tw.idx[o.table] {
			ix.Remove(key, t)
		}
	}
}

// advance moves the twins' clock: what Engine.Advance does to its private
// scheduler and tables, call for call.
func (tw *twins) advance(to xtime.Time, tr *tracer, stmt, parent int) {
	if tw.log != nil {
		s := tr.start(stmt, parent, "wal.append_sync", "advance")
		if seq, err := tw.log.Append(&wal.Record{Kind: wal.KindAdvance, Texp: to}); err == nil {
			tw.log.Sync(seq)
		}
		tr.end(s, 1)
	}
	// The per-table texp heap is the other structure that orders the same
	// rows by expiration; popping it is a root span, outside
	// engine.advance's subtraction. It runs while the twin relation still
	// holds the rows, which is how the heap tells a current pair from a
	// stale one.
	s := tr.start(stmt, 0, "index.texpheap_pop", "")
	n := 0
	for name, th := range tw.texp {
		n += th.PopDue(to, tw.rels[name].TexpKey, func(string, xtime.Time) {})
	}
	tr.end(s, float64(n))

	s = tr.start(stmt, parent, "pqueue.pop_due", "")
	due := tw.pq.PopDue(to)
	tr.end(s, float64(len(due)))

	type gone struct {
		table string
		row   relation.Row
		key   string
	}
	var removed []gone
	rs := tr.start(stmt, parent, "relation.remove_expired", "")
	for _, it := range due {
		rel := tw.rels[it.Value.table]
		if row, ok := rel.RowByKey(it.Value.key); ok && row.Texp == it.At {
			rel.DeleteKey(it.Value.key)
			removed = append(removed, gone{it.Value.table, row, it.Value.key})
		}
	}
	tr.end(rs, float64(len(removed)))
	if len(removed) > 0 {
		s = tr.start(stmt, rs, "index.maintain", "remove")
		n := 0
		for _, g := range removed {
			for _, ix := range tw.idx[g.table] {
				ix.Remove(g.key, g.row.Tuple)
				n++
			}
		}
		tr.end(s, float64(n))
	}

	// The timing wheel is the alternative scheduler: a root span too.
	s = tr.start(stmt, 0, "wheel.advance", "")
	fired := tw.wheel.Advance(to)
	tr.end(s, float64(len(fired)))
}

// physical substitutes index probes for σ[pred](table) where an attached
// index answers the predicate: the two shapes the workloads' statements
// have (equality on a hash index's column, a half-open range on an
// ordered index's column). Session.optimize does this inside DB.Exec but
// is not exported, so the decomposed path rebuilds its choice.
func physical(e algebra.Expr) algebra.Expr {
	if _, ok := e.(*algebra.IndexScan); ok {
		return e
	}
	if kids := e.Children(); len(kids) > 0 {
		swapped, changed := make([]algebra.Expr, len(kids)), false
		for i, k := range kids {
			swapped[i] = physical(k)
			changed = changed || swapped[i] != k
		}
		if changed {
			if e2, err := algebra.ReplaceChildren(e, swapped); err == nil {
				e = e2
			}
		}
	}
	sel, ok := e.(*algebra.Select)
	if !ok {
		return e
	}
	base, ok := sel.Child.(*algebra.Base)
	if !ok {
		return e
	}
	conj := []algebra.Predicate{sel.Pred}
	if and, ok := sel.Pred.(algebra.And); ok {
		conj = and.Preds
	}
	find := func(col int, op algebra.CmpOp) (value.Value, bool) {
		for _, p := range conj {
			if cc, ok := p.(algebra.ColConst); ok && cc.Col == col && cc.Op == op {
				return cc.Const, true
			}
		}
		return value.Value{}, false
	}
	for _, ni := range base.Rel.Indexes() {
		cols := ni.Idx.Cols()
		if len(cols) != 1 {
			continue
		}
		switch ni.Idx.Kind() {
		case index.KindHash:
			if v, ok := find(cols[0], algebra.OpEq); ok && len(conj) == 1 {
				ix := algebra.NewIndexScan(base, ni.Name, sel.Pred, nil)
				ix.Eq = []value.Value{v}
				ix.EqKey = tuple.Tuple(ix.Eq).Key()
				return ix
			}
		case index.KindOrdered:
			lo, okLo := find(cols[0], algebra.OpGe)
			hi, okHi := find(cols[0], algebra.OpLt)
			if bounds := btoi(okLo) + btoi(okHi); bounds > 0 && len(conj) == bounds {
				ix := algebra.NewIndexScan(base, ni.Name, sel.Pred, nil)
				if okLo {
					ix.Lo, ix.LoInc = []value.Value{lo}, true
				}
				if okHi {
					ix.Hi, ix.HiInc = []value.Value{hi}, false
				}
				return ix
			}
		}
	}
	return e
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// tracedRun executes one repetition with every sampleEvery-th operation
// decomposed into spans.
type tracedRun struct {
	in  *instance
	tr  *tracer
	tw  *twins
	eng *expdb.Engine

	// The gob pair imitates one connection's codec: type descriptors go
	// over once, then every Response is encoded and decoded again.
	pipe bytes.Buffer
	enc  *gob.Encoder
	dec  *gob.Decoder

	// Σ root spans of each decomposed op and the latency of the same kinds
	// executed whole, ns; cache hits (index 1) apart from misses, because
	// the two are different amounts of work.
	decomposed [numKinds][2][]int64
	whole      [numKinds][2][]int64
	rowsIn     float64 // rows the access paths handed up, cache misses only
	rowsOut    float64 // rows those queries returned
}

func newTracedRun(in *instance, tr *tracer, tw *twins) *tracedRun {
	x := &tracedRun{in: in, tr: tr, tw: tw, eng: in.db.Engine()}
	x.enc, x.dec = gob.NewEncoder(&x.pipe), gob.NewDecoder(&x.pipe)
	return x
}

// leaves times the access paths under an evaluated plan: one span per
// index probe or table scan, children of parent. It returns the rows they
// produced.
func (x *tracedRun) leaves(stmt, parent int, e algebra.Expr, tau xtime.Time) float64 {
	switch n := e.(type) {
	case *algebra.IndexScan:
		rows := 0
		count := func(index.Entry) bool { rows++; return true }
		switch ix := n.Base.Rel.IndexNamed(n.Index).(type) {
		case *index.Hash:
			s := x.tr.start(stmt, parent, "index.probe", "")
			ix.Probe(n.EqKey, tau, count)
			x.tr.end(s, 1)
		case *index.Ordered:
			s := x.tr.start(stmt, parent, "index.range", "")
			ix.Ascend(n.Lo, n.LoInc, n.Hi, n.HiInc, tau, count)
			x.tr.end(s, float64(rows))
		}
		return float64(rows)
	case *algebra.Base:
		rows := 0
		s := x.tr.start(stmt, parent, "relation.scan", "")
		n.Rel.AliveAt(tau, func(relation.Row) { rows++ })
		x.tr.end(s, float64(rows)/1000)
		return float64(rows)
	}
	total := 0.0
	for _, c := range e.Children() {
		total += x.leaves(stmt, parent, c, tau)
	}
	return total
}

// query is the SELECT ladder below the statement text: plan, evaluate
// through the engine (cache probe included), fetch the rows, each a child
// of parent. It returns what those three spans add up to, and replay,
// which records the rungs below them (the parse alone; on a cache miss the
// evaluation without the engine and its access paths). The caller runs
// replay once no span that must not contain it is open. optimise says
// whether index probes are substituted (DB.Exec does, the wire server
// does not); cacheable whether the engine may serve and store the answer
// in its result cache.
func (x *tracedRun) query(stmt, parent int, q string, kind opKind, optimise, cacheable bool) (total time.Duration, res result, replay func(), err error) {
	k := kindNames[kind]
	sp := x.tr.start(stmt, parent, "sql.plan", k)
	expr, err := x.in.db.Plan(q)
	if err != nil {
		x.tr.end(sp, 1)
		return 0, res, func() {}, err
	}
	plan := algebra.PushDownSelections(expr)
	key := ""
	if cacheable {
		key = plan.String()
	}
	if optimise {
		plan = physical(plan)
	}
	x.tr.end(sp, 1)

	sq := x.tr.start(stmt, parent, "engine.query", k)
	qr, err := x.eng.QueryStamped(plan, key, 0)
	x.tr.end(sq, 1)
	if err != nil {
		return 0, res, func() {}, err
	}
	if qr.Cached {
		x.tr.spans[sq-1].Name = "engine.cache_hit"
	}
	sr := x.tr.start(stmt, parent, "relation.rows_sorted", k)
	res.rows = qr.Rel.RowsSorted(qr.At)
	x.tr.end(sr, float64(len(res.rows))/1000)
	res.at, res.validAt, res.validUntil, res.stamped, res.cached = qr.At, qr.Validity.At, qr.Validity.ValidUntil, true, qr.Cached

	replay = func() {
		s := x.tr.start(stmt, sp, "sql.parse", "select")
		sql.Parse(q)
		x.tr.end(s, 1)
		if qr.Cached {
			// Rungs below the engine are taken only on a miss, so parent
			// and child did the same work.
			return
		}
		ev := x.tr.start(stmt, sq, "algebra.eval", k)
		algebra.EvalStream(plan, qr.At)
		x.tr.end(ev, 1)
		x.rowsIn += x.leaves(stmt, ev, plan, qr.At)
		x.rowsOut += float64(len(res.rows))
	}
	return x.tr.took(sp) + x.tr.took(sq) + x.tr.took(sr), res, replay, nil
}

// exec runs o decomposed and returns what its root spans add up to.
func (x *tracedRun) exec(stmt int, o *op) (time.Duration, result, error) {
	var res result
	db := x.in.db
	switch o.kind {
	case opPoint, opRange, opJoin, opAgg, opDiff:
		d, res, replay, err := x.query(stmt, 0, o.stmt, o.kind, true, true)
		replay()
		return d, res, err

	case opViewRead:
		sp := x.tr.start(stmt, 0, "view.read", "hit")
		rel, info, err := db.ReadView(o.view)
		x.tr.end(sp, 1)
		if err != nil {
			return 0, res, err
		}
		if info.Source == expdb.SourceRecomputed {
			x.tr.spans[sp-1].Kind = "recompute"
		}
		sr := x.tr.start(stmt, 0, "relation.rows_sorted", "view_read")
		res.rows = rel.RowsSorted(info.At)
		x.tr.end(sr, float64(len(res.rows))/1000)
		res.at, res.validAt, res.validUntil, res.stamped = info.At, info.Validity.At, info.Validity.ValidUntil, true
		return x.tr.took(sp) + x.tr.took(sr), res, nil

	case opInsert:
		sp := x.tr.start(stmt, 0, "sql.parse", "insert")
		parsed, err := sql.Parse(o.stmt)
		x.tr.end(sp, 1)
		if err != nil {
			return 0, res, err
		}
		ins := parsed.(*sql.Insert)
		se := x.tr.start(stmt, 0, "engine.insert", "")
		texp := xtime.Infinity
		switch ins.Expires.Kind {
		case sql.ExpiresAt:
			texp = ins.Expires.Time
		case sql.ExpiresIn:
			texp = x.eng.Now().Add(ins.Expires.Time)
		}
		for _, row := range ins.Rows {
			if err = x.eng.Insert(ins.Table, tuple.Tuple(row), texp); err != nil {
				break
			}
		}
		x.tr.end(se, 1)
		x.tw.insert(o, x.tr, stmt, se)
		return x.tr.took(sp) + x.tr.took(se), res, err

	case opAdvance:
		before, lines := x.eng.Stats().TuplesExpired, x.in.notify.lines
		sp := x.tr.start(stmt, 0, "sql.parse", "advance")
		sql.Parse(o.stmt)
		x.tr.end(sp, 1)
		se := x.tr.start(stmt, 0, "engine.advance", "")
		err := db.Advance(xtime.Time(o.now))
		x.tr.end(se, 0)
		res.expired = x.eng.Stats().TuplesExpired - before
		res.triggers = x.in.notify.lines - lines
		x.tr.spans[se-1].Units = float64(res.expired)
		x.tw.advance(xtime.Time(o.now), x.tr, stmt, se)
		// The heartbeat with nothing due: the same tick again.
		s := x.tr.start(stmt, 0, "engine.advance_empty", "")
		db.Advance(xtime.Time(o.now))
		x.tr.end(s, 1)
		return x.tr.took(sp) + x.tr.took(se), res, err

	case opMaterialize:
		hits := x.in.cli.ServerCacheHits
		sp := x.tr.start(stmt, 0, "wire.roundtrip", "materialize")
		err := x.in.cli.Materialize(o.stmt, false)
		var rel *relation.Relation
		if err == nil {
			rel, err = x.in.cli.Read(xtime.Time(o.now))
		}
		x.tr.end(sp, 1)
		if err != nil {
			return 0, res, err
		}
		v := x.in.cli.Validity()
		res.rows, res.at, res.validAt, res.validUntil, res.stamped = rel.RowsSorted(xtime.Time(o.now)), v.At, v.At, v.ValidUntil, true
		// What Server.respond did for this request, in process: a fresh
		// session plans without the optimiser, the engine evaluates (from
		// its cache exactly when the server's answer came from it), the
		// rows are sorted and converted.
		rs := x.tr.start(stmt, sp, "wire.respond", kindNames[o.qkind])
		_, served, replay, err := x.query(stmt, rs, o.stmt, o.qkind, false, x.in.cli.ServerCacheHits > hits)
		resp := wire.Response{Now: served.at, Texp: served.validUntil}
		for _, row := range served.rows {
			wr := wire.WireRow{Texp: row.Texp, Vals: make([]wire.WireValue, len(row.Tuple))}
			for i, val := range row.Tuple {
				wr.Vals[i] = wire.ToWire(val)
			}
			resp.Rows = append(resp.Rows, wr)
		}
		x.tr.end(rs, 1)
		cs := x.tr.start(stmt, sp, "wire.codec", "")
		var back wire.Response
		if err == nil {
			if err = x.enc.Encode(&resp); err == nil {
				err = x.dec.Decode(&back)
			}
		}
		x.tr.end(cs, float64(len(resp.Rows))/1000)
		replay()
		return x.tr.took(sp), res, err

	case opLocalRead:
		sp := x.tr.start(stmt, 0, "wire.local_read", "")
		rel, err := x.in.cli.Read(xtime.Time(o.now))
		x.tr.end(sp, 1)
		if err != nil {
			return 0, res, err
		}
		res.rows, res.at = rel.RowsSorted(xtime.Time(o.now)), xtime.Time(o.now)
		return x.tr.took(sp), res, nil

	case opServerTime:
		sp := x.tr.start(stmt, 0, "wire.roundtrip", "server_time")
		tick, err := x.in.cli.ServerTime()
		x.tr.end(sp, 1)
		res.tick = tick
		return x.tr.took(sp), res, err
	}
	// DELETE is not decomposed: one span for the whole statement.
	sp := x.tr.start(stmt, 0, "sql.exec", kindNames[o.kind])
	_, err := db.Exec(o.stmt)
	x.tr.end(sp, 1)
	return x.tr.took(sp), res, err
}

// drive runs the next n operations, keeping the twins in step with every
// write. With sample set it decomposes every sampleEvery-th operation and
// files all of them in rep; without, everything runs whole and untimed (the
// warm-up).
func (x *tracedRun) drive(g *generator, n int, sample bool, rep *repetition, t *tally) {
	first := g.generated
	sampled := func(i int) bool { return sample && i%sampleEvery == sampleEvery-1 }
	forEachOp(g, n, t, func(i int, o *op) (time.Duration, result, error) {
		if sampled(i) {
			d, res, err := x.exec(first+i, o)
			if o.kind == opDelete {
				x.tw.delete(o)
			}
			return d, res, err
		}
		d, res, err := x.in.exec(o)
		x.tw.follow(o)
		return d, res, err
	}, func(i int, o *op, d time.Duration, res *result) {
		if !sample {
			return
		}
		if hit := btoi(res.cached); sampled(i) {
			x.decomposed[o.kind][hit] = append(x.decomposed[o.kind][hit], int64(d))
		} else {
			x.whole[o.kind][hit] = append(x.whole[o.kind][hit], int64(d))
		}
		rep.busy += d
		rep.ops++
	})
}

// counters is the program's own accounting around a timed section.
type counters struct {
	m        expdb.MetricsSnapshot
	mem      runtime.MemStats
	syncs    int64 // benchFS: Sync calls
	devBytes int64 // benchFS: bytes written to files
	wire     expdb.WireStats
}

func snapshot(in *instance) counters {
	c := counters{m: in.db.Metrics()}
	runtime.ReadMemStats(&c.mem)
	if in.fs != nil {
		c.syncs, c.devBytes = in.fs.totals()
	}
	if in.cli != nil {
		c.wire = in.cli.Stats()
	}
	return c
}

// liveRows counts the rows alive in the workload's tables right now.
func liveRows(in *instance) int {
	n := 0
	now := in.db.Now()
	for _, name := range tablesOf(in.w) {
		if base, err := in.db.Engine().Base(name); err == nil {
			n += base.Rel.CountAt(now)
		}
	}
	return n
}

func runTraced(w *workload, cfg config) (*record, error) {
	t := &tally{workload: w.name, seed: cfg.seed}
	_, digest, err := checkPhase(w, cfg, t)
	if err != nil {
		return nil, err
	}
	n := w.tracedOps(cfg.scale)
	rec := &record{Workload: w.name, Seed: cfg.seed, Trace: 1, Scale: cfg.scale.String(), Seconds: cfg.seconds,
		Metrics: map[string]metricValue{}, OpCounts: map[string]int{}, StreamDigest: digest}
	put := func(name, unit string, v float64, samples int) {
		rec.Metrics[name] = metricValue{Value: v, Unit: unit, N: samples}
	}
	for _, m := range perLayerMetrics {
		put(m.name, m.unit, 0, 0)
	}

	// Repetition A: tracing off. Counts and allocation come from here, and
	// its throughput is the base of the tracing overhead.
	g := w.newGen(w, repSeed(cfg.seed, 0), cfg.scale)
	in, err := setUp(g, dataDir(cfg.dataRoot, 1), false)
	if err != nil {
		return nil, err
	}
	plain := &repetition{}
	warmUp(g, in, w.warmOps(cfg.scale), t)
	runtime.GC()
	before := snapshot(in)
	userBytes, rowsFetched, readOps := 0.0, 0.0, 0.0
	forEachOp(g, n, t, func(_ int, o *op) (time.Duration, result, error) { return in.exec(o) },
		func(_ int, o *op, d time.Duration, res *result) {
			plain.kindLat[o.kind] = append(plain.kindLat[o.kind], int64(d))
			plain.busy += d
			plain.ops++
			switch {
			case o.kind == opInsert:
				userBytes += float64(8 * (o.ncol + 1))
			case o.kind == opMaterialize:
				rowsFetched += float64(len(res.rows))
			}
			if o.kind.class() == clsRead {
				readOps++
			}
		})
	after := snapshot(in)
	live := liveRows(in)
	withDB := heapLive()
	var rcv recovery
	if w.durable {
		if rcv, err = checkRecovery(in, tablesOf(w), t); err != nil {
			in.close()
			return nil, err
		}
	}
	in.close()
	in = nil
	heapBytes := float64(withDB) - float64(heapLive())
	for k, lat := range plain.kindLat {
		if len(lat) > 0 {
			rec.OpCounts[kindNames[k]] = len(lat)
		}
	}

	// Repetition B: the same stream on a fresh database, traced.
	g = w.newGen(w, repSeed(cfg.seed, 0), cfg.scale)
	in, err = setUp(g, dataDir(cfg.dataRoot, 2), false)
	if err != nil {
		return nil, err
	}
	defer func() { in.close() }()
	tr := newTracer(w.name, n/sampleEvery*16+1024)
	tw, err := newTwins(g, in, filepath.Join(cfg.dataRoot, "twin-wal"))
	if err != nil {
		return nil, err
	}
	defer tw.close()
	for i := range g.preload {
		tw.follow(&g.preload[i])
	}
	tw.attachIndexes(in)
	x := newTracedRun(in, tr, tw)
	traced := &repetition{}
	x.drive(g, w.warmOps(cfg.scale), false, traced, t)
	x.drive(g, n, true, traced, t)
	if mon := in.db.Monitor(); mon != nil {
		for i := 0; i < 200; i++ {
			s := tr.start(0, 0, "monitor.tick", "")
			mon.Tick()
			tr.end(s, 1)
		}
	}
	if cfg.spans != "" {
		if err := tr.write(cfg.spans); err != nil {
			return nil, err
		}
	}

	// ---- derive the per-layer metrics
	d := newDerivation(tr)
	us := func(ns float64) float64 { return ns / 1e3 }
	med := func(name, unit string, vs []float64) {
		put(name, unit, us(median(vs)), len(vs))
	}
	med("relation.insert_us", "us", d.durs("relation.insert", ""))
	med("relation.scan_us_per_krow", "us", d.perUnit("relation.scan", "", 0))
	med("relation.rows_sorted_us_per_krow", "us", d.perUnit("relation.rows_sorted", "", 0.02))
	med("relation.remove_expired_us_per_tuple", "us", d.perUnit("relation.remove_expired", "", 0))
	med("index.hash_probe_us", "us", d.durs("index.probe", ""))
	med("index.ordered_range_us_per_row", "us", d.perUnit("index.range", "", 0))
	med("index.maintain_us", "us", d.durs("index.maintain", "insert"))
	med("index.texpheap_pop_us_per_tuple", "us", d.perUnit("index.texpheap_pop", "", 0))
	med("pqueue.push_us", "us", d.durs("pqueue.push", ""))
	med("pqueue.pop_due_us_per_tuple", "us", d.perUnit("pqueue.pop_due", "", 0))
	med("wheel.push_us", "us", d.durs("wheel.push", ""))
	med("wheel.advance_us_per_tuple", "us", d.perUnit("wheel.advance", "", 0))
	for _, k := range []opKind{opPoint, opRange, opJoin, opAgg, opDiff} {
		med("algebra.eval_us."+kindNames[k], "us", d.durs("algebra.eval", kindNames[k]))
	}
	if x.rowsOut > 0 {
		put("algebra.rows_in_per_row_out", "ratio", x.rowsIn/x.rowsOut, int(x.rowsOut))
	}
	med("engine.query_self_us", "us", d.selfs("engine.query", false))
	med("engine.insert_self_us", "us", d.selfs("engine.insert", false))
	med("engine.advance_self_us_per_tuple", "us", d.selfs("engine.advance", true))
	med("engine.advance_empty_us", "us", d.durs("engine.advance_empty", ""))
	med("engine.cache_hit_us", "us", d.durs("engine.cache_hit", ""))
	if bc, ac := before.m.ResultCache, after.m.ResultCache; bc != nil && ac != nil {
		hits, misses := float64(ac.Hits-bc.Hits), float64(ac.Misses-bc.Misses)
		if hits+misses > 0 {
			put("engine.cache_hit_ratio", "ratio", hits/(hits+misses), int(hits+misses))
		}
		put("engine.cache_epoch_invalidations", "count", float64(ac.EpochInvalidations-bc.EpochInvalidations), 1)
		put("engine.cache_evictions", "count", float64(ac.Evictions-bc.Evictions), 1)
	}
	if live > 0 {
		put("engine.sched_pending_per_live_row", "ratio", float64(after.m.Scheduler.Pending)/float64(live), live)
		put("engine.heap_bytes_per_live_row", "B", heapBytes/float64(live), live)
	}
	put("engine.expired_total", "count", float64(after.m.TuplesExpired-before.m.TuplesExpired), 1)
	put("engine.triggers_fired", "count", float64(after.m.TriggersFired-before.m.TriggersFired), 1)

	if w.durable {
		med("wal.append_sync_us", "us", d.durs("wal.append_sync", "insert"))
		if userBytes > 0 {
			put("wal.bytes_per_user_byte", "ratio", float64(after.devBytes-before.devBytes)/userBytes, int(userBytes))
		}
		if writes := float64(len(plain.kindLat[opInsert]) + len(plain.kindLat[opDelete])); writes > 0 {
			put("wal.syncs_per_write", "ratio", float64(after.syncs-before.syncs)/writes, int(writes))
		}
		put("wal.recover_s", "s", rcv.seconds, 1)
		if rcv.records > 0 {
			put("wal.replay_us_per_record", "us", rcv.seconds*1e6/float64(rcv.records), rcv.records)
		}
	}

	med("sql.parse_us.insert", "us", d.durs("sql.parse", "insert"))
	med("sql.parse_us.select", "us", d.durs("sql.parse", "select"))
	med("sql.plan_us", "us", d.selfs("sql.plan", false))
	sqlKinds := []opKind{opInsert, opPoint, opRange, opJoin, opAgg, opDiff}
	if v, samples := x.overhead(sqlKinds); samples > 0 {
		put("sql.exec_overhead_us", "us", us(v), samples)
	}

	med("view.read_hit_us", "us", d.durs("view.read", "hit"))
	med("view.recompute_us", "us", d.durs("view.read", "recompute"))
	if len(after.m.Views) > 0 {
		reads, recomputed, patches := 0, 0, 0
		for i, name := range viewNames {
			a, b := after.m.Views[name], before.m.Views[name]
			r, c := a.Reads-b.Reads, a.Recomputations-b.Recomputations
			reads, recomputed, patches = reads+r, recomputed+c, patches+a.PatchesApplied-b.PatchesApplied
			if r > 0 {
				put("view.recompute_ratio."+viewShort[i], "ratio", float64(c)/float64(r), r)
			}
		}
		if reads > 0 {
			put("view.recompute_ratio", "ratio", float64(recomputed)/float64(reads), reads)
		}
		put("view.patches_applied", "count", float64(patches), 1)
		if v, samples := x.overhead([]opKind{opViewRead}); samples > 0 {
			put("view.sql_read_overhead_us", "us", us(v), samples)
		}
	}

	if w.remote {
		med("wire.roundtrip_us.time", "us", d.durs("wire.roundtrip", "server_time"))
		med("wire.codec_us_per_krow", "us", d.perUnit("wire.codec", "", 0.02))
		med("wire.self_us", "us", d.selfsOfKind("wire.roundtrip", "materialize"))
		med("wire.local_read_us", "us", d.durs("wire.local_read", ""))
		if rowsFetched > 0 {
			put("wire.bytes_per_row", "B", float64(after.wire.BytesReceived-before.wire.BytesReceived)/rowsFetched, int(rowsFetched))
		}
		if readOps > 0 {
			put("wire.round_trips_per_read", "ratio", float64(after.wire.MessagesSent-before.wire.MessagesSent)/readOps, int(readOps))
		}
	}
	med("monitor.tick_us", "us", d.durs("monitor.tick", ""))

	for c := class(0); c < numClasses; c++ {
		var lat []int64
		for k, ks := range plain.kindLat {
			if opKind(k).class() == c {
				lat = append(lat, ks...)
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		put("e2e."+classNames[c]+"_p99_us", "us", us(float64(percentile(lat, 99))), len(lat))
	}
	ops := float64(plain.ops)
	put("expdb.allocs_per_stmt", "count", float64(after.mem.Mallocs-before.mem.Mallocs)/ops, plain.ops)
	put("expdb.bytes_per_stmt", "B", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/ops, plain.ops)
	put("expdb.gc_cycles", "count", float64(after.mem.NumGC-before.mem.NumGC), 1)
	put("expdb.gc_pause_total_ms", "ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, 1)
	if base := plain.throughput(); base > 0 {
		put("expdb.trace_overhead_pct", "%", 100*(base-traced.throughput())/base, traced.ops)
	}
	put("expdb.span_timer_us", "us", us(float64(tr.timerNS)), 2000)
	worst, samples := x.worstSumError()
	put("expdb.span_sum_error_pct", "%", 100*worst, samples)
	put("expdb.negative_self_spans", "count", float64(d.negativeSelfNames()), len(tr.spans))

	rec.Attempted, rec.Failed, rec.Correct = t.attempted, t.failed, t.failed == 0
	return rec, nil
}

var viewShort = [4]string{"join", "hist", "diff_patch", "diff"}

// overhead is how much longer the listed kinds take executed whole than
// their decomposed root spans add up to: the part of a statement that sits
// above the calls the decomposition makes (statement metrics, trace IDs,
// the optimiser, view resolution). Medians per kind and cache outcome,
// weighted by how many of each ran.
func (x *tracedRun) overhead(kinds []opKind) (ns float64, samples int) {
	weight := 0.0
	for _, k := range kinds {
		for hit := range x.whole[k] {
			whole, parts := x.whole[k][hit], x.decomposed[k][hit]
			if len(whole) == 0 || len(parts) == 0 {
				continue
			}
			w := float64(len(whole) + len(parts))
			ns += w * (medianInt64(whole) - medianInt64(parts))
			weight += w
			samples += len(parts)
		}
	}
	if weight == 0 {
		return 0, 0
	}
	return ns / weight, samples
}

// sumChecked are the kinds whose decomposition claims to be the whole
// statement: their root spans must add up to the statement timed whole.
// View reads are left out because the gap is the finding (ReadView against
// SELECT * FROM v; see view.sql_read_overhead_us); joins, aggregates and
// differences because the optimiser's join order and build side cannot be
// rebuilt from outside, so their decomposed plan is not the plan DB.Exec
// runs; DELETE and the wire operations because they are one span.
var sumChecked = []opKind{opInsert, opPoint, opRange, opAdvance}

// worstSumError is the largest relative gap, over sumChecked and cache
// outcomes, between the median of the decomposed statements' span sums and
// the median of the same statements timed whole.
func (x *tracedRun) worstSumError() (worst float64, samples int) {
	for _, k := range sumChecked {
		for hit := range x.whole[k] {
			whole, parts := x.whole[k][hit], x.decomposed[k][hit]
			if len(whole) < 20 || len(parts) < 20 {
				continue
			}
			base := medianInt64(whole)
			gap := (medianInt64(parts) - base) / base
			fmt.Fprintf(os.Stderr, "note: %s (cache hit: %v) whole %.0f ns (n=%d), span sum %.0f ns (n=%d)\n",
				kindNames[k], hit == 1, base, len(whole), medianInt64(parts), len(parts))
			if gap < 0 {
				gap = -gap
			}
			worst = max(worst, gap)
			samples += len(parts)
		}
	}
	return worst, samples
}

// derivation turns the recorded spans into per-layer numbers.
type derivation struct {
	tr       *tracer
	children map[int][]int // span ID → child span IDs
}

func newDerivation(tr *tracer) *derivation {
	d := &derivation{tr: tr, children: map[int][]int{}}
	for i := range tr.spans {
		if p := tr.spans[i].Parent; p != 0 {
			d.children[p] = append(d.children[p], tr.spans[i].ID)
		}
	}
	return d
}

func (d *derivation) each(name, kind string, fn func(s *span)) {
	for i := range d.tr.spans {
		s := &d.tr.spans[i]
		if s.Name == name && (kind == "" || s.Kind == kind) {
			fn(s)
		}
	}
}

// durs is every matching span's duration, ns.
func (d *derivation) durs(name, kind string) []float64 {
	var vs []float64
	d.each(name, kind, func(s *span) { vs = append(vs, float64(d.tr.took(s.ID))) })
	return vs
}

// perUnit is duration per unit, over spans that handled more than floor
// units (a span over nothing has no per-unit cost).
func (d *derivation) perUnit(name, kind string, floor float64) []float64 {
	var vs []float64
	d.each(name, kind, func(s *span) {
		if s.Units > floor {
			vs = append(vs, float64(d.tr.took(s.ID))/s.Units)
		}
	})
	return vs
}

func (d *derivation) self(s *span) float64 {
	self := float64(d.tr.took(s.ID))
	for _, c := range d.children[s.ID] {
		self -= float64(d.tr.took(c))
	}
	return self
}

// selfs is every matching span's self time; perUnit divides by the span's
// units and skips spans without any.
func (d *derivation) selfs(name string, perUnit bool) []float64 {
	var vs []float64
	d.each(name, "", func(s *span) {
		switch {
		case !perUnit:
			vs = append(vs, d.self(s))
		case s.Units > 0:
			vs = append(vs, d.self(s)/s.Units)
		}
	})
	return vs
}

func (d *derivation) selfsOfKind(name, kind string) []float64 {
	var vs []float64
	d.each(name, kind, func(s *span) { vs = append(vs, d.self(s)) })
	return vs
}

// negativeSelfNames counts the span names whose median self time is below
// zero: a child that took longer than the parent it stands for.
func (d *derivation) negativeSelfNames() int {
	byName := map[string][]float64{}
	for i := range d.tr.spans {
		s := &d.tr.spans[i]
		if len(d.children[s.ID]) > 0 {
			byName[s.Name] = append(byName[s.Name], d.self(s))
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	negative := 0
	for _, name := range names {
		if m := median(byName[name]); m < 0 {
			negative++
			fmt.Fprintf(os.Stderr, "note: median self time of %s is %.0f ns (n=%d)\n", name, m, len(byName[name]))
		}
	}
	return negative
}
