package expdb_test

// This file exercises every exported symbol of the public packages expdb
// and expdb/algebra, so an accidental removal or signature change breaks
// the build here before it breaks a downstream user.

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"expdb"
	"expdb/algebra"
	"expdb/internal/relation/reltest"
)

// apiDB loads the paper's Figure 1 database through the SQL surface.
func apiDB(t *testing.T, opts ...expdb.EngineOption) *expdb.DB {
	t.Helper()
	db := expdb.Open(opts...)
	if _, err := db.ExecScript(`
		CREATE TABLE pol (uid INT, deg INT);
		CREATE TABLE el  (uid INT, deg INT);
		INSERT INTO pol VALUES (1, 25) EXPIRES AT 10;
		INSERT INTO pol VALUES (2, 25) EXPIRES AT 15;
		INSERT INTO pol VALUES (3, 35) EXPIRES AT 10;
		INSERT INTO el VALUES (1, 75) EXPIRES AT 5;
		INSERT INTO el VALUES (2, 85) EXPIRES AT 3;
		INSERT INTO el VALUES (4, 90) EXPIRES AT 2;
	`); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestAPIValuesAndTuples(t *testing.T) {
	tup := expdb.Tuple{expdb.Int(1), expdb.Float(2.5), expdb.Str("x"), expdb.Bool(true), expdb.Null}
	if len(tup) != 5 {
		t.Fatal("tuple constructors")
	}
	if got := expdb.Ints(1, 2); len(got) != 2 {
		t.Fatal("Ints")
	}
	schema := expdb.Schema{Cols: []expdb.Column{{Name: "id", Kind: expdb.Int(0).Kind()}}}
	if schema.Arity() != 1 {
		t.Fatal("schema arity")
	}
	var inf expdb.Time = expdb.Infinity
	if inf.String() != "inf" {
		t.Fatalf("Infinity renders %q", inf)
	}
}

func TestAPIOpenVariants(t *testing.T) {
	var buf strings.Builder
	db := expdb.OpenWithNotify(&buf, expdb.WithEagerSweep())
	db.MustExec(`CREATE TABLE s (id INT)`)
	db.MustExec(`CREATE TRIGGER gone ON s ON EXPIRE DO NOTIFY 'bye'`)
	if err := db.Insert("s", expdb.Ints(1), 5); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertTTL("s", expdb.Ints(2), 100); err != nil {
		t.Fatal(err)
	}
	fired := 0
	var fn expdb.TriggerFunc = func(table string, row expdb.Row, at expdb.Time) {
		if table == "s" && row.Texp == 5 && at == 5 {
			fired++
		}
	}
	if err := db.OnExpire("s", fn); err != nil {
		t.Fatal(err)
	}
	if err := db.Advance(6); err != nil {
		t.Fatal(err)
	}
	if db.Now() != 6 || fired != 1 || !strings.Contains(buf.String(), "NOTIFY") {
		t.Fatalf("now=%v fired=%d notify=%q", db.Now(), fired, buf.String())
	}

	lazy := expdb.Open(expdb.WithLazySweep(8))
	lazy.MustExec(`CREATE TABLE s (id INT)`)
	if err := lazy.Advance(3); err != nil {
		t.Fatal(err)
	}
}

func TestAPIExecAndPlan(t *testing.T) {
	db := apiDB(t)
	res, err := db.Exec(`SELECT * FROM pol`)
	if err != nil || res.Rel.CountAt(res.At) != 3 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	res = db.MustExec(`SELECT uid FROM pol ORDER BY uid DESC LIMIT 2`)
	if len(res.Rows()) != 2 || res.Msg != "" {
		t.Fatalf("ordered rows = %+v", res.Rows())
	}
	var e expdb.Expr
	if e, err = db.Plan(`SELECT uid FROM pol EXCEPT SELECT uid FROM el`); err != nil {
		t.Fatal(err)
	}
	if e.Monotonic() {
		t.Fatal("difference should be non-monotonic")
	}
	var eng *expdb.Engine = db.Engine()
	if eng.Now() != 0 {
		t.Fatal("engine clock")
	}
}

func TestAPIViewsAndReadInfo(t *testing.T) {
	db := apiDB(t)
	expr, err := db.Plan(`SELECT uid FROM pol EXCEPT SELECT uid FROM el`)
	if err != nil {
		t.Fatal(err)
	}
	var opts []expdb.ViewOption = []expdb.ViewOption{expdb.WithPatching(), expdb.WithPatchBudget(16)}
	var v *expdb.View
	if v, err = db.CreateView("onlypol", expr, opts...); err != nil {
		t.Fatal(err)
	}
	var validity expdb.IntervalSet = v.Validity()
	if validity.Contains(99) == false && v.Texp() == 0 {
		t.Fatal("validity surface")
	}
	var rel *expdb.Relation
	var info expdb.ReadInfo
	if rel, info, err = db.ReadView("onlypol"); err != nil {
		t.Fatal(err)
	}
	var src expdb.Source = info.Source
	if src != expdb.SourceMaterialised || rel.CountAt(info.At) == 0 {
		t.Fatalf("info=%+v", info)
	}
	if rows := rel.RowsSorted(info.At); len(rows) == 0 {
		t.Fatalf("rows=%v", rows)
	}

	// The interval-validity mode and every recovery policy must be
	// constructible; moved reads surface the moved Source values.
	for _, opt := range []expdb.ViewOption{
		expdb.WithIntervalValidity(),
		expdb.WithRecoverReject(),
		expdb.WithRecoverBackward(),
		expdb.WithRecoverForward(),
	} {
		if opt == nil {
			t.Fatal("nil view option")
		}
	}
	db2 := apiDB(t)
	expr2, _ := db2.Plan(`SELECT uid FROM pol EXCEPT SELECT uid FROM el`)
	if _, err := db2.CreateView("mv", expr2, expdb.WithIntervalValidity(), expdb.WithRecoverBackward()); err != nil {
		t.Fatal(err)
	}
	if err := db2.Advance(4); err != nil {
		t.Fatal(err)
	}
	if _, info, err := db2.ReadView("mv"); err != nil {
		t.Fatal(err)
	} else if info.Source != expdb.SourceMovedBackward && info.Source != expdb.SourceMaterialised {
		t.Fatalf("moved read source = %v", info.Source)
	}
	_ = expdb.SourceMovedForward
	_ = expdb.SourceRecomputed
}

func TestAPIIncremental(t *testing.T) {
	db := apiDB(t)
	expr, err := db.Plan(`SELECT uid FROM pol EXCEPT SELECT uid FROM el`)
	if err != nil {
		t.Fatal(err)
	}
	var inc *expdb.Incremental = expdb.NewIncremental(expr)
	if _, err := inc.Eval(0); err != nil {
		t.Fatal(err)
	}
	inc.Invalidate()
	if _, err := inc.Eval(1); err != nil {
		t.Fatal(err)
	}
}

func TestAPISentinelErrors(t *testing.T) {
	db := apiDB(t)
	_, err := db.Exec(`SELECT * FROM nope`)
	if !errors.Is(err, expdb.ErrNoSuchTable) || !errors.Is(err, expdb.ErrNoSuchView) {
		t.Fatalf("missing-relation error %v", err)
	}
	if err := db.Insert("pol", expdb.Ints(1), 99); !errors.Is(err, expdb.ErrSchemaMismatch) {
		t.Fatalf("schema error %v", err)
	}
	expr, _ := db.Plan(`SELECT uid FROM pol EXCEPT SELECT uid FROM el`)
	if _, err := db.CreateView("rej", expr, expdb.WithRecoverReject()); err != nil {
		t.Fatal(err)
	}
	if err := db.Advance(4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ReadView("rej"); !errors.Is(err, expdb.ErrInvalidRead) {
		t.Fatalf("invalid-read error %v", err)
	}
}

func TestAPIMetrics(t *testing.T) {
	db := apiDB(t)
	var m expdb.MetricsSnapshot = db.Metrics()
	if m.Inserts != 6 {
		t.Fatalf("inserts = %d", m.Inserts)
	}
	var sm expdb.SQLMetricsSnapshot = db.SQLMetrics()
	if sm.Statements["insert"] != 6 {
		t.Fatalf("sql statements = %+v", sm.Statements)
	}

	// The HTTP handler serves the combined snapshot, and its counters
	// move under load.
	h := db.MetricsHandler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `"inserts": 6`) {
		t.Fatalf("handler body:\n%s", rec.Body.String())
	}
	db.MustExec(`INSERT INTO pol VALUES (9, 9) EXPIRES AT 99`)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), `"inserts": 7`) {
		t.Fatalf("counters did not move under load:\n%s", rec.Body.String())
	}
}

func TestAPIAlgebraSurface(t *testing.T) {
	db := apiDB(t)
	eng := db.Engine()
	pol, err := eng.Base("pol")
	if err != nil {
		t.Fatal(err)
	}
	el, err := eng.Base("el")
	if err != nil {
		t.Fatal(err)
	}
	var _ *algebra.Base = pol
	rebased := algebra.NewBase("pol2", pol.Rel)
	if rebased.Schema().Arity() != 2 {
		t.Fatal("NewBase")
	}

	// Predicates: every comparison operator and every combinator.
	var preds []algebra.Predicate
	for _, op := range []algebra.CmpOp{
		algebra.OpEq, algebra.OpNe, algebra.OpLt,
		algebra.OpLe, algebra.OpGt, algebra.OpGe,
	} {
		preds = append(preds, algebra.ColConst{Col: 1, Op: op, Const: expdb.Int(25)})
	}
	combined := algebra.Or{Preds: []algebra.Predicate{
		algebra.And{Preds: preds[:2]},
		algebra.Not{Pred: algebra.True{}},
		algebra.ColCol{Left: 0, Right: 1, Op: algebra.OpLt},
	}}

	sel, err := algebra.NewSelect(combined, pol)
	if err != nil {
		t.Fatal(err)
	}
	var _ *algebra.Select = sel
	proj, err := algebra.NewProject([]int{0}, sel)
	if err != nil {
		t.Fatal(err)
	}
	var _ *algebra.Project = proj
	var prod *algebra.Product = algebra.NewProduct(pol, el)
	join, err := algebra.NewJoin(algebra.ColCol{Left: 0, Right: 2, Op: algebra.OpEq}, pol, el)
	if err != nil {
		t.Fatal(err)
	}
	var _ *algebra.Join = join
	ej, err := algebra.EquiJoin(pol, 0, el, 0)
	if err != nil {
		t.Fatal(err)
	}
	elProj, err := algebra.NewProject([]int{0}, el)
	if err != nil {
		t.Fatal(err)
	}
	union, err := algebra.NewUnion(proj, elProj)
	if err != nil {
		t.Fatal(err)
	}
	var _ *algebra.Union = union
	inter, err := algebra.NewIntersect(proj, elProj)
	if err != nil {
		t.Fatal(err)
	}
	var _ *algebra.Intersect = inter
	diff, err := algebra.NewDiff(proj, elProj)
	if err != nil {
		t.Fatal(err)
	}
	var _ *algebra.Diff = diff

	// Aggregation: every kind and policy.
	funcs := []algebra.AggFunc{
		{Kind: algebra.AggMin, Col: 1},
		{Kind: algebra.AggMax, Col: 1},
		{Kind: algebra.AggSum, Col: 1},
		{Kind: algebra.AggAvg, Col: 1},
		{Kind: algebra.AggCount, Col: -1},
	}
	for _, policy := range []algebra.AggPolicy{
		algebra.PolicyNaive, algebra.PolicyNeutral, algebra.PolicyExact,
	} {
		agg, err := algebra.NewAgg([]int{1}, funcs, policy, pol)
		if err != nil {
			t.Fatal(err)
		}
		var _ *algebra.Agg = agg
		if _, err := algebra.GroupBy([]int{1}, funcs[:1], policy, pol); err != nil {
			t.Fatal(err)
		}
	}

	// Structural helpers.
	if diff.Monotonic() || !union.Monotonic() {
		t.Fatal("Monotonic")
	}
	nodes := 0
	algebra.Walk(diff, func(algebra.Expr) { nodes++ })
	// diff − (π(σ(pol))) \ (π(el)): 6 nodes in all.
	if nodes != 6 {
		t.Fatalf("Walk visited %d nodes", nodes)
	}
	selOverJoin, err := algebra.NewSelect(algebra.ColConst{Col: 0, Op: algebra.OpGt, Const: expdb.Int(0)}, ej)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := algebra.PushDownSelections(selOverJoin)
	if rewritten == nil {
		t.Fatal("PushDownSelections")
	}

	// Expressions evaluate through the engine against live data.
	for _, e := range []algebra.Expr{proj, prod, join, ej, union, inter, diff, rewritten} {
		if _, err := eng.QueryStamped(e, "", 0); err != nil {
			t.Fatalf("query %s: %v", e, err)
		}
	}
	var _ []algebra.CriticalRow // Theorem 3 helper-queue element type
	var _ algebra.AggKind = algebra.AggCount

	// The streaming executor: Stream pushes every row EvalStream collects,
	// duplicates included, beside texp(e).
	for _, e := range []algebra.Expr{proj, join, union, inter, diff} {
		want, err := algebra.Evaluate(e, 0)
		if err != nil {
			t.Fatal(err)
		}
		streamed := 0
		texp, err := e.Stream(0, func(expdb.Row) { streamed++ })
		if err != nil || texp != want.Texp {
			t.Fatalf("Stream(%s): texp(e) = %v (%v), Evaluate %v", e, texp, err, want.Texp)
		}
		if streamed < want.Rel.CountAt(0) {
			t.Fatalf("Stream(%s) emitted %d rows, want ≥ %d", e, streamed, want.Rel.CountAt(0))
		}
	}
}

// TestAPITracing exercises the observability surface end to end: typed
// events and traces, the slow-query options, the trace ID threading from
// statement results into the lifecycle log, and both debug handlers.
func TestAPITracing(t *testing.T) {
	db := apiDB(t,
		expdb.WithSlowQueryThreshold(time.Nanosecond),
		expdb.WithEventLogCapacity(64))

	// Every statement result carries a trace ID.
	adv := db.MustExec("ADVANCE TO 6")
	var tid expdb.TraceID = adv.TraceID
	if tid == 0 {
		t.Fatal("statement result without a trace ID")
	}

	// The Advance's expiry batches appear as typed events under that ID.
	var events []expdb.Event = db.Events()
	if len(events) == 0 {
		t.Fatal("no lifecycle events after an Advance past three expirations")
	}
	var expired int64
	for _, ev := range events {
		var k expdb.EventKind = ev.Kind
		if k.String() == "expiry" && ev.Trace == tid {
			expired += ev.Count
		}
	}
	if expired != 3 {
		t.Fatalf("expiry events under trace %s count %d tuples, want 3 (el)", tid, expired)
	}
	if db.EventsDropped() != 0 {
		t.Fatalf("dropped = %d with a 64-slot ring", db.EventsDropped())
	}

	// ReadInfo and the event log are built from the same struct: the
	// trace IDs must match (the single-source-of-truth guarantee).
	if _, err := db.Exec("CREATE VIEW onlypol WITH (patching) AS SELECT uid FROM pol EXCEPT SELECT uid FROM el"); err != nil {
		t.Fatal(err)
	}
	db.MustExec("ADVANCE TO 8")
	_, info, err := db.ReadView("onlypol")
	if err != nil {
		t.Fatal(err)
	}
	if info.TraceID == 0 {
		t.Fatal("ReadInfo without a trace ID")
	}
	var last expdb.Event
	for _, ev := range db.Events() {
		if ev.Name == "onlypol" && ev.Kind.String() != "view-recompute" {
			last = ev
		}
	}
	if last.Trace != info.TraceID {
		t.Fatalf("event trace %s != ReadInfo trace %s — surfaces disagree", last.Trace, info.TraceID)
	}
	if last.Texp != info.Texp {
		t.Fatalf("event texp %v != ReadInfo texp %v", last.Texp, info.Texp)
	}

	// Slow-query log: the 1ns threshold traces every statement.
	sel := db.MustExec("SELECT * FROM pol")
	var traces []expdb.Trace = db.Traces()
	found := false
	for _, tr := range traces {
		if tr.ID == sel.TraceID {
			found = true
			if tr.Stmt != "SELECT * FROM pol" {
				t.Errorf("trace stmt = %q", tr.Stmt)
			}
			var root *expdb.Span = tr.Root
			if root == nil || len(root.Children) == 0 {
				t.Errorf("trace without spans: %+v", tr)
			}
		}
	}
	if !found {
		t.Fatalf("no trace recorded for the SELECT (id %s) among %d traces", sel.TraceID, len(traces))
	}

	// Runtime toggle off stops recording.
	db.SetSlowQueryThreshold(0)
	before := len(db.Traces())
	db.MustExec("SELECT * FROM pol")
	if got := len(db.Traces()); got != before {
		t.Fatalf("traces recorded with log off: %d -> %d", before, got)
	}

	// Both debug handlers serve JSON.
	rec := httptest.NewRecorder()
	db.EventsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("events content type %q", ct)
	}
	for _, want := range []string{`"events"`, `"dropped"`, `"total"`, `"kind": "expiry"`} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("events payload missing %s:\n%s", want, rec.Body.String())
		}
	}
	rec = httptest.NewRecorder()
	db.TracesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	for _, want := range []string{`"traces"`, `"total"`, `"stmt": "SELECT * FROM pol"`} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("traces payload missing %s:\n%s", want, rec.Body.String())
		}
	}

	// SQL surface: SHOW EVENTS / SHOW TRACES reach the same rings.
	if res := db.MustExec("SHOW EVENTS LIMIT 2"); len(strings.Split(res.Msg, "\n")) != 2 {
		t.Fatalf("SHOW EVENTS LIMIT 2:\n%s", res.Msg)
	}
	if res := db.MustExec("SHOW TRACES"); !strings.Contains(res.Msg, "SELECT * FROM pol") {
		t.Fatalf("SHOW TRACES:\n%s", res.Msg)
	}

	// EXPLAIN ANALYZE through the façade returns per-node actuals.
	res := db.MustExec("EXPLAIN ANALYZE SELECT uid FROM pol")
	if !strings.Contains(res.Msg, "(actual: rows in=") {
		t.Fatalf("EXPLAIN ANALYZE missing actuals:\n%s", res.Msg)
	}
}

// TestAPIWireSurface exercises every wire symbol the façade re-exports:
// server construction + options, DialWire + options, degraded-state
// reads, typed errors, and the fault-tolerance metrics snapshot.
func TestAPIWireSurface(t *testing.T) {
	db := apiDB(t)
	var srv *expdb.WireServer = db.NewWireServer(
		expdb.WithWireIdleTimeout(time.Minute),
		expdb.WithWireMaxMessageBytes(1<<20),
		expdb.WithWireMaxConns(8),
		expdb.WithWireDrainTimeout(time.Second),
	)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var c *expdb.WireClient
	c, err = expdb.DialWire(addr,
		expdb.WithWireDialTimeout(time.Second),
		expdb.WithWireRequestTimeout(time.Second),
		expdb.WithWireBackoff(time.Millisecond, 4*time.Millisecond, 2),
		expdb.WithWireJitterSeed(42),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Materialize("SELECT uid FROM pol", false); err != nil {
		t.Fatal(err)
	}
	var st expdb.WireClientState = c.State()
	if st != expdb.WireConnected || st.String() != "connected" {
		t.Fatalf("state = %v, want connected", st)
	}
	rel, err := c.Read(0)
	if err != nil || rel.CountAt(0) != 3 {
		t.Fatalf("read: %v (%d rows)", err, rel.CountAt(0))
	}
	var ws expdb.WireStats = c.Stats()
	if ws.MessagesSent == 0 {
		t.Fatal("no traffic counted")
	}
	var wm expdb.WireMetricsSnapshot = srv.WireMetrics()
	if wm.ConnsAccepted != 1 || wm.ActiveConns != 1 {
		t.Fatalf("wire metrics: %+v", wm)
	}
	// A remote read is a SELECT in the database's one SQL metrics sink.
	var prom strings.Builder
	if err := db.WritePrometheus(&prom); err != nil || db.SQLMetrics().Statements["select"] != 1 ||
		!strings.Contains(prom.String(), `expdb_sql_statements_total{kind="select"} 1`) ||
		!strings.Contains(prom.String(), "expdb_wire_conns_accepted_total 1") {
		t.Fatalf("remote SELECT not counted (%v):\n%s", err, prom.String())
	}

	// The typed errors are wrapped, not replaced.
	if _, err := expdb.DialWire("127.0.0.1:1", expdb.WithWireDialTimeout(100*time.Millisecond)); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
	for _, sentinel := range []error{expdb.ErrWireProtocol, expdb.ErrWireServerBusy,
		expdb.ErrWireTooLarge, expdb.ErrWireDegraded} {
		if sentinel == nil || sentinel.Error() == "" {
			t.Fatal("wire sentinel error missing")
		}
	}
	if expdb.WireDegraded.String() != "degraded" {
		t.Fatal("WireDegraded name")
	}
}

func TestAPIQueryAndResultCache(t *testing.T) {
	db := apiDB(t)
	q := "SELECT deg, COUNT(*) FROM pol GROUP BY deg"

	// Query is the documented entry point; Exec is its alias.
	first, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first Query must miss")
	}
	if first.Validity != (expdb.Validity{At: 0, ValidUntil: 10}) {
		t.Fatalf("validity = %v, want [0, 10)", first.Validity)
	}
	second, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeated Exec must be served from the result cache")
	}
	if len(second.Rows()) != 2 {
		t.Fatalf("Rows() = %d, want 2 groups", len(second.Rows()))
	}
	if _, ok := second.Ordered(); ok {
		t.Fatal("Ordered must report false without ORDER BY/LIMIT")
	}

	m, err := db.CacheMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Hits != 1 || m.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", m.Hits, m.Misses)
	}
	if m.Capacity != expdb.DefaultResultCacheSize {
		t.Fatalf("capacity = %d, want DefaultResultCacheSize (%d)", m.Capacity, expdb.DefaultResultCacheSize)
	}
	// The engine metrics snapshot embeds the same counters for /metrics.
	if snap := db.Metrics(); snap.ResultCache == nil || snap.ResultCache.Hits != 1 {
		t.Fatal("MetricsSnapshot must embed the result-cache block when enabled")
	}

	// Runtime disable: ErrCacheDisabled surfaces via errors.Is everywhere.
	db.SetResultCache(0)
	if _, err := db.CacheMetrics(); !errors.Is(err, expdb.ErrCacheDisabled) {
		t.Fatalf("CacheMetrics with cache off = %v, want ErrCacheDisabled", err)
	}
	if _, err := db.Query("SHOW CACHE"); !errors.Is(err, expdb.ErrCacheDisabled) {
		t.Fatalf("SHOW CACHE with cache off = %v, want ErrCacheDisabled", err)
	}
	if snap := db.Metrics(); snap.ResultCache != nil {
		t.Fatal("MetricsSnapshot must omit the result-cache block when disabled")
	}
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("cache-off Query must re-evaluate")
	}
	db.SetResultCache(8)
	db.MustExec(q)
	if !db.MustExec(q).Cached {
		t.Fatal("re-enabled cache must serve hits again")
	}
}

// BenchmarkExecCachedPoint times DB.Exec and Rows() of an indexed point read
// that the result cache answers, once the statement memo holds its parse
// and lowering: the memo lookup, the cache lookup and the result, whose one
// row is the cached answer's own (scripts/alloc-gates.sh budgets its
// allocations).
func BenchmarkExecCachedPoint(b *testing.B) {
	db := expdb.Open()
	db.MustExec("CREATE TABLE sess (sid INT, uid INT, score INT)")
	for sid := int64(0); sid < 5000; sid++ {
		if err := db.Insert("sess", expdb.Tuple{expdb.Int(sid), expdb.Int(sid % 500), expdb.Int(sid * 37 % 100_000)}, 1_000_000); err != nil {
			b.Fatal(err)
		}
	}
	db.MustExec("CREATE INDEX sess_sid ON sess (sid)")
	q := "SELECT * FROM sess WHERE sid = 4242"
	db.MustExec(q) // noted by the memo, and the cache filled
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(q)
		if err != nil || !res.Cached || len(res.Rows()) != 1 {
			b.Fatalf("cached %v, err %v", res != nil && res.Cached, err)
		}
	}
}

// BenchmarkExecInsert times DB.Exec of INSERT … EXPIRES IN texts, each new
// to the session, into a table with a hash index: the statement text a
// stream of TTL inserts sends, lexed, parsed and executed.
func BenchmarkExecInsert(b *testing.B) {
	db := expdb.Open()
	db.MustExec("CREATE TABLE sess (sid INT, uid INT, score INT)")
	db.MustExec("CREATE INDEX sess_sid ON sess (sid)")
	stmts := make([]string, b.N)
	for i := range stmts {
		stmts[i] = fmt.Sprintf("INSERT INTO sess VALUES (%d, %d, %d) EXPIRES IN %d", i, i%500, i*37%100_000, 1+i%5000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(stmts[i]); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAPIWithResultCacheOption(t *testing.T) {
	db := apiDB(t, expdb.WithResultCache(0))
	if _, err := db.CacheMetrics(); !errors.Is(err, expdb.ErrCacheDisabled) {
		t.Fatal("WithResultCache(0) must open with the cache disabled")
	}
	sized := apiDB(t, expdb.WithResultCache(3))
	m, err := sized.CacheMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Capacity != 3 {
		t.Fatalf("capacity = %d, want 3", m.Capacity)
	}
}

func TestAPIContextVariants(t *testing.T) {
	db := apiDB(t)
	ctx := context.Background()
	if _, err := db.QueryContext(ctx, "SELECT * FROM pol"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(ctx, "SELECT * FROM el"); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE MATERIALIZED VIEW hist AS SELECT deg, COUNT(*) FROM pol GROUP BY deg")
	if _, _, err := db.ReadViewContext(ctx, "hist"); err != nil {
		t.Fatal(err)
	}

	// A cancelled context fails fast at the statement boundary.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(cancelled, "SELECT * FROM pol"); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext = %v, want context.Canceled", err)
	}
	if _, err := db.ExecContext(cancelled, "SELECT * FROM pol"); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecContext = %v, want context.Canceled", err)
	}
	if _, _, err := db.ReadViewContext(cancelled, "hist"); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadViewContext = %v, want context.Canceled", err)
	}
}

// TestAPIReadInfoValidity: a view that keeps its future never recomputes
// (Texp = ∞), and its reads are stamped until the next pending birth — not
// until Texp, which a patched view used to claim: [0, inf) over rows that
// stop being the answer at 3.
func TestAPIReadInfoValidity(t *testing.T) {
	db := apiDB(t)
	db.MustExec("CREATE MATERIALIZED VIEW hist AS SELECT deg, COUNT(*) FROM pol GROUP BY deg")
	rel, info, err := db.ReadView("hist")
	if err != nil {
		t.Fatal(err)
	}
	// ⟨25, 2⟩ becomes ⟨25, 1⟩ at 10; nothing else ever invalidates hist.
	if info.Validity.At != 0 || info.Validity.ValidUntil != 10 || info.Texp != expdb.Infinity {
		t.Fatalf("ReadInfo.Validity = %v, Texp = %v; want [0, 10) and inf", info.Validity, info.Texp)
	}
	if !info.Cached {
		t.Fatal("a fresh materialised view read must report Cached (served from the materialisation)")
	}
	// The view's own read and the SQL read of it show the same rows.
	rows := rel.RowsSorted(info.At)
	res := db.MustExec("SELECT * FROM hist")
	if len(rows) != len(res.Rows()) {
		t.Fatalf("ReadView = %d rows, Result.Rows() = %d", len(rows), len(res.Rows()))
	}

	// Figure 1's difference, patched: {⟨3⟩} at 0, and ⟨2⟩ must appear at 3.
	const diff = "SELECT uid FROM pol EXCEPT SELECT uid FROM el"
	db.MustExec("CREATE VIEW vp WITH (patching) AS " + diff)
	at0 := db.MustExec("SELECT * FROM vp")
	if at0.Validity.At != 0 || at0.Validity.ValidUntil != 3 || len(at0.Rows()) != 1 {
		t.Fatalf("SELECT * FROM vp at 0: %d rows stamped %v, want ⟨3⟩ stamped [0, 3)", len(at0.Rows()), at0.Validity)
	}
	// The stamp is true at its last instant: the stamped rows, aged to
	// Until − 1, are a fresh evaluation there — and at Until they are not.
	db.MustExec("ADVANCE TO 2")
	if fresh := db.MustExec(diff); !reltest.EqualAt(at0.Rel, fresh.Rel, 2) {
		t.Fatalf("the rows stamped [0, 3) at 2:\n%swant\n%s", at0.Rel.Render(2), fresh.Rel.Render(2))
	}
	db.MustExec("ADVANCE TO 3")
	at3, fresh := db.MustExec("SELECT * FROM vp"), db.MustExec(diff)
	if !reltest.EqualAt(at3.Rel, fresh.Rel, 3) || reltest.EqualAt(at0.Rel, fresh.Rel, 3) || at3.Validity.At != 3 || at3.Validity.ValidUntil != 5 {
		t.Fatalf("vp at 3, stamped %v:\n%swant [3, 5) over\n%s", at3.Validity, at3.Rel.Render(3), fresh.Rel.Render(3))
	}
}
