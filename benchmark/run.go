package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"expdb"
	"expdb/internal/relation"
	"expdb/internal/xtime"
)

// scale selects the data sizes: full is what BENCHMARK.json's numbers are
// measured at, tiny is the smoke test's.
type scale int

const (
	scaleFull scale = iota
	scaleTiny
)

func (s scale) String() string {
	if s == scaleTiny {
		return "tiny"
	}
	return "full"
}

func (s scale) pick(full, tiny int) int {
	if s == scaleTiny {
		return tiny
	}
	return full
}

// workload is one traffic mix. The names are final: later issues cite them.
type workload struct {
	name    string
	why     string
	durable bool // WAL on (through benchFS)
	monitor bool // WithMonitor sampler goroutine
	remote  bool // reads go through a loopback wire.Server
	newGen  func(w *workload, seed int64, sc scale) *generator
	// warm is how many operations run untimed before each repetition's
	// timed section (about a tenth of what the section executes); traced
	// is the fixed length of the traced pass's timed section.
	warm, traced int
}

func (w *workload) warmOps(sc scale) int   { return sc.pick(w.warm, 100) }
func (w *workload) tracedOps(sc scale) int { return sc.pick(w.traced, 600) }

var workloads = []*workload{
	{name: "session_ingest", durable: true, newGen: newSessionIngest, warm: 3000, traced: 30000,
		why: "durable and write-heavy: WAL, expiry scheduler, relation insert and index maintenance do the work; cache, algebra, views and wire idle"},
	{name: "dashboard_reads", newGen: newDashboardReads, warm: 10000, traced: 60000,
		why: "in-memory and read-heavy over 200 zipf statements that fit the result cache: parse, plan, index probes, executor and cache dominate; 2% writes invalidate"},
	{name: "view_maintenance", newGen: newViewMaintenance, warm: 1000, traced: 8000,
		why: "four materialised views read while tuples expire under them: recompute vs patch vs never (Theorems 1 and 3); indexes, WAL and wire idle"},
	{name: "remote_reads", durable: true, monitor: true, remote: true, newGen: newRemoteReads, warm: 1500, traced: 12000,
		why: "a wire client materialises 5000 distinct queries, more than the cache holds: gob codec, per-request session and unoptimised scans do the work"},
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// lineCounter is the trigger NOTIFY sink: it counts lines, so the number
// of triggers fired is known without keeping their text.
type lineCounter struct{ lines int }

func (c *lineCounter) Write(p []byte) (int, error) {
	c.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

// instance is one database under test, set up the way the workload's
// users would: through SQL, and for remote_reads behind a wire server.
type instance struct {
	w      *workload
	db     *expdb.DB
	dir    string
	fs     *benchFS
	srv    *expdb.WireServer
	cli    *expdb.WireClient
	notify *lineCounter
	setup  time.Duration
	// setupSpeed is the machine-speed factor around the set-up (see
	// calibrate.go); setupSeconds is the set-up time at reference speed.
	setupSpeed float64

	// reference instances answer wire operations locally; these remember
	// the client-side state they have to imitate.
	reference bool
	refQuery  string
	refRows   []relation.Row
	refUntil  xtime.Time
}

// result is what one executed operation returned, in a form the checker
// can compare between the system under test and the reference.
type result struct {
	rows       []relation.Row
	at         xtime.Time
	validAt    xtime.Time
	validUntil xtime.Time
	stamped    bool // at/validAt/validUntil are set
	cached     bool // served from the engine's result cache
	expired    int  // ADVANCE: tuples expired
	triggers   int  // ADVANCE: NOTIFY lines written
	tick       xtime.Time
}

const (
	wireDialTimeout    = 5 * time.Second
	wireRequestTimeout = 20 * time.Second
)

// setUp opens a database for g's workload in dir (unused for in-memory
// workloads), runs the DDL, preloads, builds indexes and views, and for
// remote workloads starts the server and dials it. reference builds the
// oracle instead: in-memory, result cache off, no indexes, no wire.
func setUp(g *generator, dir string, reference bool) (*instance, error) {
	in := &instance{w: g.w, notify: &lineCounter{}, reference: reference}
	// Every set-up starts from a collected heap, so its time does not
	// depend on how much garbage the previous phase left behind.
	runtime.GC()
	speedBefore := calibSample(2 * calibIters)
	start := time.Now()
	switch {
	case reference:
		in.db = expdb.OpenWithNotify(in.notify, expdb.WithResultCache(0))
	case g.w.durable:
		in.dir, in.fs = dir, newBenchFS()
		opts := []expdb.EngineOption{expdb.WithVFS(in.fs)}
		if g.w.monitor {
			opts = append(opts, expdb.WithMonitor(expdb.MonitorOptions{}))
		}
		db, err := expdb.OpenDurableWithNotify(dir, in.notify, opts...)
		if err != nil {
			return nil, fmt.Errorf("open durable %s: %w", dir, err)
		}
		in.db = db
	default:
		in.db = expdb.OpenWithNotify(in.notify)
	}
	run := func(stmts []string) error {
		for _, s := range stmts {
			if _, err := in.db.Exec(s); err != nil {
				return fmt.Errorf("%s: %w", s, err)
			}
		}
		return nil
	}
	err := run(g.ddl)
	for i := 0; err == nil && i < len(g.preload); i++ {
		if _, perr := in.db.Exec(g.preload[i].stmt); perr != nil {
			err = fmt.Errorf("%s: %w", g.preload[i].stmt, perr)
		}
	}
	if err == nil && !reference {
		err = run(g.indexDDL)
	}
	if err == nil {
		err = run(g.viewDDL)
	}
	if err == nil && g.w.remote && !reference {
		in.srv = in.db.NewWireServer()
		var addr string
		if addr, err = in.srv.Listen("127.0.0.1:0"); err == nil {
			in.cli, err = expdb.DialWire(addr,
				expdb.WithWireDialTimeout(wireDialTimeout),
				expdb.WithWireRequestTimeout(wireRequestTimeout),
				expdb.WithWireBackoff(time.Millisecond, 10*time.Millisecond, 1))
		}
	}
	if err != nil {
		in.close()
		return nil, fmt.Errorf("%s set-up: %w", g.w.name, err)
	}
	in.setup = time.Since(start)
	in.setupSpeed = (speedBefore + calibSample(2*calibIters)) / 2 / nominalKernelNS
	return in, nil
}

func (in *instance) setupSeconds() float64 { return in.setup.Seconds() / in.setupSpeed }

// close releases everything the instance holds; safe on a half-built one.
func (in *instance) close() {
	if in.cli != nil {
		in.cli.Close()
		in.cli = nil
	}
	if in.srv != nil {
		in.srv.Close()
		in.srv = nil
	}
	if in.db != nil {
		in.db.Close()
		in.db = nil
	}
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}

// exec runs one operation the way a user would and returns how long the
// user waited. Fetching the rows is part of a read; reading the engine's
// expiry counters around an ADVANCE is the checker's and is not timed.
func (in *instance) exec(o *op) (time.Duration, result, error) {
	var res result
	switch o.kind {
	case opMaterialize:
		start := time.Now()
		err := in.cli.Materialize(o.stmt, false)
		var rel *relation.Relation
		if err == nil {
			rel, err = in.cli.Read(xtime.Time(o.now))
		}
		d := time.Since(start)
		if err != nil {
			return d, res, err
		}
		v := in.cli.Validity()
		res.rows, res.at, res.validAt, res.validUntil, res.stamped = rel.RowsSorted(xtime.Time(o.now)), v.At, v.At, v.ValidUntil, true
		return d, res, nil
	case opLocalRead:
		start := time.Now()
		rel, err := in.cli.Read(xtime.Time(o.now))
		d := time.Since(start)
		if err != nil {
			return d, res, err
		}
		res.rows, res.at = rel.RowsSorted(xtime.Time(o.now)), xtime.Time(o.now)
		return d, res, nil
	case opServerTime:
		start := time.Now()
		tick, err := in.cli.ServerTime()
		d := time.Since(start)
		res.tick = tick
		return d, res, err
	case opAdvance:
		before, lines := in.db.Engine().Stats().TuplesExpired, in.notify.lines
		start := time.Now()
		_, err := in.db.Exec(o.stmt)
		d := time.Since(start)
		res.expired = in.db.Engine().Stats().TuplesExpired - before
		res.triggers = in.notify.lines - lines
		return d, res, err
	case opInsert, opDelete:
		start := time.Now()
		_, err := in.db.Exec(o.stmt)
		return time.Since(start), res, err
	default: // SQL reads, view reads included
		start := time.Now()
		r, err := in.db.Exec(o.stmt)
		if err != nil {
			return time.Since(start), res, err
		}
		res.rows = r.Rows()
		d := time.Since(start)
		res.at, res.validAt, res.validUntil, res.stamped, res.cached = r.At, r.Validity.At, r.Validity.ValidUntil, true, r.Cached
		return d, res, nil
	}
}

// execReference answers o from the oracle database. Wire operations are
// imitated locally: Materialize is the query itself, Read(τ) is the last
// materialisation filtered to the rows alive at τ while τ is inside its
// validity window and a fresh evaluation once it is not, which is exactly
// what the paper says a remote copy may do.
func (in *instance) execReference(o *op) (result, error) {
	var res result
	query := func(q string) error {
		r, err := in.db.Exec(q)
		if err != nil {
			return err
		}
		in.refQuery, in.refRows, in.refUntil = q, r.Rows(), r.Validity.ValidUntil
		res.rows, res.at, res.validUntil, res.stamped = in.refRows, r.At, r.Validity.ValidUntil, true
		return nil
	}
	switch o.kind {
	case opMaterialize:
		return res, query(o.stmt)
	case opLocalRead:
		if xtime.Time(o.now) >= in.refUntil {
			err := query(in.refQuery)
			res.stamped = false
			return res, err
		}
		for _, row := range in.refRows {
			if row.Texp > xtime.Time(o.now) {
				res.rows = append(res.rows, row)
			}
		}
		res.at = xtime.Time(o.now)
		return res, nil
	case opServerTime:
		res.tick = in.db.Now()
		return res, nil
	}
	_, res, err := in.exec(o)
	return res, err
}

// renderRows is the byte form two answers are compared in.
func renderRows(rows []relation.Row) string {
	var b strings.Builder
	for _, row := range rows {
		fmt.Fprintf(&b, "%s@%s;", row.Tuple, row.Texp)
	}
	return b.String()
}

// verify checks one answer against the generator's model and against the
// invariants every read must keep. It returns "" when the answer is right.
func verify(g *generator, o *op, res *result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	switch o.kind {
	case opAdvance:
		if o.expired >= 0 && res.expired != o.expired {
			return fmt.Sprintf("expired %d tuples, model says %d", res.expired, o.expired)
		}
		if g.hasTrigger && res.triggers != res.expired {
			return fmt.Sprintf("%d triggers fired for %d expirations", res.triggers, res.expired)
		}
		return ""
	case opServerTime:
		if int64(res.tick) != o.now {
			return fmt.Sprintf("server time %d, clock is at %d", res.tick, o.now)
		}
		return ""
	case opInsert, opDelete:
		return ""
	}
	if int64(res.at) != o.now {
		return fmt.Sprintf("answered at tick %d, clock is at %d", res.at, o.now)
	}
	if res.stamped && (res.validAt > res.at || res.at >= res.validUntil) {
		return fmt.Sprintf("tick %d outside the answer's validity [%d, %d)", res.at, res.validAt, res.validUntil)
	}
	for _, row := range res.rows {
		if row.Texp <= res.at {
			return fmt.Sprintf("row %s expired at %s but was returned at %s", row.Tuple, row.Texp, res.at)
		}
	}
	if o.rows >= 0 {
		if len(res.rows) != o.rows {
			return fmt.Sprintf("%d rows, model says %d", len(res.rows), o.rows)
		}
		if o.rows == 1 {
			row := res.rows[0]
			for c := 0; c < len(row.Tuple); c++ {
				if row.Tuple[c].AsInt() != o.want[c] {
					return fmt.Sprintf("row %s, model says %v", row.Tuple, o.want)
				}
			}
			if int64(row.Texp) != o.wantTexp {
				return fmt.Sprintf("row %s expires at %s, model says %d", row.Tuple, row.Texp, o.wantTexp)
			}
		}
	}
	return ""
}

// tally counts operations attempted and failed over a whole run and prints
// the first few failures with what is needed to replay them.
type tally struct {
	workload  string
	seed      int64
	attempted int
	failed    int
}

const maxFailuresPrinted = 8

func (t *tally) fail(index int, o *op, why string) {
	t.failed++
	if t.failed <= maxFailuresPrinted {
		fmt.Fprintf(os.Stderr, "FAILED %s seed=%d op=%d %s %q: %s\n", t.workload, t.seed, index, kindNames[o.kind], o.stmt, why)
	}
}

// note records a failed check that is not one operation of the stream.
func (t *tally) note(what, why string) {
	t.attempted++
	t.failed++
	fmt.Fprintf(os.Stderr, "FAILED %s seed=%d %s: %s\n", t.workload, t.seed, what, why)
}

// forEachOp generates the next n operations of g, runs each through exec
// and checks its answer against the model and the invariants. ok, when not
// nil, is called for every operation that passed, with its position among
// the n.
func forEachOp(g *generator, n int, t *tally, exec func(i int, o *op) (time.Duration, result, error), ok func(i int, o *op, d time.Duration, res *result)) {
	first := g.generated
	for done := 0; done < n; {
		chunk := g.take(min(n-done, chunkOps))
		for j := range chunk {
			i, o := done+j, &chunk[j]
			t.attempted++
			d, res, err := exec(i, o)
			if why := verify(g, o, &res, err); why != "" {
				t.fail(first+i, o, why)
				continue
			}
			if ok != nil {
				ok(i, o, d, &res)
			}
		}
		done += len(chunk)
	}
}

// replayAgainstReference runs the first n operations of g on both the
// system under test and the oracle and compares every answer and validity
// stamp byte for byte.
func replayAgainstReference(g *generator, sys, ref *instance, n int, t *tally) {
	forEachOp(g, n, t, func(_ int, o *op) (time.Duration, result, error) { return sys.exec(o) },
		func(i int, o *op, _ time.Duration, got *result) {
			want, err := ref.execReference(o)
			switch {
			case err != nil:
				t.fail(i, o, "reference: "+err.Error())
			case renderRows(got.rows) != renderRows(want.rows):
				t.fail(i, o, fmt.Sprintf("rows differ from the reference: got %.200q want %.200q", renderRows(got.rows), renderRows(want.rows)))
			case got.stamped && want.stamped && got.validUntil != want.validUntil:
				t.fail(i, o, fmt.Sprintf("valid until %s, reference says %s", got.validUntil, want.validUntil))
			case got.expired != want.expired || got.tick != want.tick:
				t.fail(i, o, fmt.Sprintf("expired %d at tick %d, reference expired %d at tick %d", got.expired, got.tick, want.expired, want.tick))
			}
		})
}

// checkViewsAgainstRecomputation is the paper's claim checked directly: a
// freshly materialised view that is only maintained under expiration must
// equal its defining query evaluated from scratch at every later tick
// (Theorems 1-3). It refreshes every view, then walks the clock forward
// with no writes and compares after each tick.
func checkViewsAgainstRecomputation(sys *instance, from int64, ticks int, t *tally) int64 {
	for _, name := range viewNames {
		t.attempted++
		if _, err := sys.db.Exec("REFRESH VIEW " + name); err != nil {
			t.note("refresh "+name, err.Error())
		}
	}
	now := from
	for i := 0; i < ticks; i++ {
		now++
		if _, err := sys.db.Exec(fmt.Sprintf("ADVANCE TO %d", now)); err != nil {
			t.note("advance", err.Error())
			return now
		}
		for v, name := range viewNames {
			t.attempted++
			maintained, err := sys.db.Exec("SELECT * FROM " + name)
			if err != nil {
				t.note("read "+name, err.Error())
				continue
			}
			fresh, err := sys.db.Exec(viewQueries[v])
			if err != nil {
				t.note("recompute "+name, err.Error())
				continue
			}
			if got, want := tuplesOf(maintained.Rows()), tuplesOf(fresh.Rows()); got != want {
				t.failed++
				fmt.Fprintf(os.Stderr, "FAILED %s seed=%d view %s at tick %d differs from its recomputation: got %.200q want %.200q\n",
					t.workload, t.seed, name, now, got, want)
			}
		}
	}
	return now
}

// tuplesOf renders the tuples only: a maintained view and a recomputation
// agree on which tuples are visible, while a recomputation may derive a
// later per-tuple texp for an aggregate row than the materialisation did.
func tuplesOf(rows []relation.Row) string {
	parts := make([]string, len(rows))
	for i, row := range rows {
		parts[i] = row.Tuple.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// liveDigest hashes a database's visible state: every table's rows with
// their expiration times, at the current tick.
func liveDigest(db *expdb.DB, tables []string) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "tick %d\n", db.Now())
	for _, tb := range tables {
		r, err := db.Exec("SELECT * FROM " + tb)
		if err != nil {
			return "", err
		}
		rows := r.Rows()
		fmt.Fprintf(h, "%s %d\n%s\n", tb, len(rows), renderRows(rows))
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// recovery is the outcome of one crash-image recovery check.
type recovery struct {
	seconds float64
	records int
}

// checkRecovery cuts a crash image of in's data directory (no Close, no
// Checkpoint; only bytes a Sync covered survive), opens it, and requires
// the recovered database to show exactly what the original shows at the
// same tick: every acknowledged write readable, nothing expired returned.
func checkRecovery(in *instance, tables []string, t *tally) (recovery, error) {
	var rec recovery
	image := in.dir + "-crash"
	defer os.RemoveAll(image)
	if err := in.fs.crashImage(in.dir, image); err != nil {
		return rec, fmt.Errorf("crash image: %w", err)
	}
	start := time.Now()
	db, err := expdb.OpenDurable(image, expdb.WithVFS(newBenchFS()))
	rec.seconds = time.Since(start).Seconds()
	t.attempted++
	if err != nil {
		t.failed++
		return rec, fmt.Errorf("recover %s: %w", image, err)
	}
	defer db.Close()
	if info := db.RecoveryInfo(); info != nil {
		rec.records = info.Records
	}
	want, err := liveDigest(in.db, tables)
	if err != nil {
		return rec, err
	}
	got, err := liveDigest(db, tables)
	if err != nil {
		return rec, err
	}
	if got != want {
		t.failed++
		fmt.Fprintf(os.Stderr, "FAILED %s seed=%d recovery: recovered state digest %s, original %s\n", t.workload, t.seed, got[:16], want[:16])
	}
	return rec, nil
}

func tablesOf(w *workload) []string {
	switch w.name {
	case "view_maintenance":
		return []string{"pol", "el"}
	case "session_ingest":
		return []string{"sess"}
	}
	return []string{"sess", "usr"}
}

// repetition is what one timed pass over a fresh database measured.
type repetition struct {
	setupSeconds float64
	lat          [numClasses][]int64 // ns per timed op, by class
	kindLat      [numKinds][]int64
	ops          int
	busy         time.Duration // Σ op latencies: the client's closed-loop time
	heapLiveMB   float64
	speed        float64 // median machine-speed factor of the timed section
}

func (r *repetition) throughput() float64 {
	if r.busy <= 0 {
		return 0
	}
	return float64(r.ops) / r.busy.Seconds()
}

const chunkOps = 1024

// warmUp executes and checks the next n operations without timing them:
// caches fill and lazy set-up finishes before the timed section starts.
func warmUp(g *generator, in *instance, n int, t *tally) {
	forEachOp(g, n, t, func(_ int, o *op) (time.Duration, result, error) { return in.exec(o) }, nil)
}

// drive executes g's stream on in, timing every operation, until budget
// of wall time is spent. Latencies are filed at reference machine speed
// (see calibrate.go).
func drive(g *generator, in *instance, budget time.Duration, rep *repetition, t *tally) {
	type sample struct {
		kind opKind
		ns   int64
	}
	var (
		samples []sample
		speed   speedTrack
		index   = g.generated
	)
	deadline := time.Now().Add(budget)
timed:
	for {
		for i, o := range g.take(chunkOps) {
			o := o
			if len(samples)%calibEvery == 0 {
				speed.sample()
			}
			t.attempted++
			d, res, err := in.exec(&o)
			if why := verify(g, &o, &res, err); why != "" {
				t.fail(index+i, &o, why)
				d = 0 // keeps its slot, so the samples stay aligned
			}
			samples = append(samples, sample{o.kind, int64(d)})
			if i%16 == 15 && time.Now().After(deadline) {
				break timed
			}
		}
		index += chunkOps
	}
	speed.sample()
	rep.speed = speed.overall()
	factor := 1.0
	for i, s := range samples {
		if i%calibEvery == 0 {
			factor = speed.factor(i)
		}
		if s.ns == 0 {
			continue
		}
		ns := int64(float64(s.ns) / factor)
		rep.lat[s.kind.class()] = append(rep.lat[s.kind.class()], ns)
		rep.kindLat[s.kind] = append(rep.kindLat[s.kind], ns)
		rep.busy += time.Duration(ns)
		rep.ops++
	}
}

// heapLive is the heap still reachable after a forced collection.
func heapLive() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func dataDir(root string, n int) string {
	return filepath.Join(root, fmt.Sprintf("db-%d", n))
}
