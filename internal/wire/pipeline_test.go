package wire

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"expdb/internal/algebra"
	"expdb/internal/engine"
	"expdb/internal/interval"
	"expdb/internal/relation"
	"expdb/internal/relation/reltest"
	"expdb/internal/sql"
	"expdb/internal/view"
	"expdb/internal/xtime"
)

// benchShapes are the benchmark's statement shapes — point, range, join
// with a pushed-down filter, EXCEPT, GROUP BY — plus a bare and a filtered
// read of a view.
var benchShapes = []struct{ name, stmt string }{
	{"point", "SELECT * FROM sess WHERE sid = 7"},
	{"range", "SELECT * FROM sess WHERE score >= 20 AND score < 60"},
	{"join", "SELECT sess.sid, sess.score, usr.grp FROM sess JOIN usr ON sess.uid = usr.uid WHERE usr.grp = 1 AND sess.score >= 30"},
	{"except", "SELECT uid FROM usr WHERE grp = 1 EXCEPT SELECT uid FROM sess WHERE score >= 10 AND score < 70"},
	{"groupby", "SELECT uid, COUNT(*) FROM sess GROUP BY uid"},
	{"view", "SELECT * FROM v_hist"},
	{"view_filtered", "SELECT * FROM v_hist WHERE uid = 2"},
}

var indexConfigs = []struct {
	name string
	ddl  []string
}{
	{"no_index", nil},
	{"hash", []string{"CREATE INDEX sess_sid ON sess (sid)", "CREATE INDEX usr_grp ON usr (grp)"}},
	{"ordered", []string{"CREATE INDEX sess_sid ON sess (sid) USING ORDERED",
		"CREATE INDEX sess_score ON sess (score) USING ORDERED", "CREATE INDEX usr_grp ON usr (grp) USING ORDERED"}},
}

// benchEngine loads a small remote_reads-shaped database: 40 sessions of 8
// users in 3 groups, lifetimes spread so that every tick up to 40 expires
// something, and an aggregate view over the sessions.
func benchEngine(t testing.TB, rows int, indexDDL []string) (*engine.Engine, *sql.Session) {
	t.Helper()
	eng := engine.New()
	sess := sql.NewSession(eng, nil)
	exec := func(q string) {
		if _, err := sess.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	exec("CREATE TABLE sess (sid INT, uid INT, score INT)")
	exec("CREATE TABLE usr (uid INT, grp INT)")
	for uid := 0; uid < 8; uid++ {
		exec(fmt.Sprintf("INSERT INTO usr VALUES (%d, %d)", uid, uid%3))
	}
	for sid := 1; sid <= rows; sid++ {
		exec(fmt.Sprintf("INSERT INTO sess VALUES (%d, %d, %d) EXPIRES AT %d", sid, sid%8, (sid*37)%100, 1+(sid*7)%40))
	}
	for _, ddl := range indexDDL {
		exec(ddl)
	}
	exec("CREATE VIEW v_hist AS SELECT uid, COUNT(*) FROM sess GROUP BY uid")
	return eng, sess
}

func serve(t testing.TB, eng *engine.Engine) (*Server, *Client) {
	t.Helper()
	srv := NewServer(eng, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

// TestEveryEntryPointAgreesWithTheLogicalPlan: whatever physical plan the
// pipeline picks, DB.Exec, a remote materialisation with and without
// patches (and under a patch budget) and CREATE VIEW return the rows, the
// per-tuple expiration times and the ValidUntil that evaluating the
// unoptimised Plan.Logical gives; and the cache key never depends on which
// indexes exist.
func TestEveryEntryPointAgreesWithTheLogicalPlan(t *testing.T) {
	keys := map[string]string{}
	for _, cfg := range indexConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			eng, sess := benchEngine(t, 40, cfg.ddl)
			_, c := serve(t, eng)
			for _, now := range []xtime.Time{0, 3, 9, 16, 33} {
				if err := eng.Advance(now); err != nil {
					t.Fatal(err)
				}
				for _, sh := range benchShapes {
					sel, err := sql.ParseQuery(sh.stmt)
					if err != nil {
						t.Fatal(err)
					}
					p, err := sess.Plan(sel)
					if err != nil {
						t.Fatal(err)
					}
					if prev, ok := keys[sh.name]; ok && prev != p.Key {
						t.Fatalf("%s: key %q here, %q under another index configuration", sh.name, p.Key, prev)
					}
					keys[sh.name] = p.Key
					if (p.Key == "") != strings.HasPrefix(sh.name, "view") {
						t.Fatalf("%s: key %q", sh.name, p.Key)
					}
					want, err := algebra.EvalStream(p.Logical, now)
					if err != nil {
						t.Fatal(err)
					}
					texp, err := algebra.ExprTexp(p.Logical, now)
					if err != nil {
						t.Fatal(err)
					}
					until := xtime.Min(texp, p.Until)
					check := func(entry string, got *relation.Relation, gotUntil, until xtime.Time) {
						t.Helper()
						if !reltest.EqualAt(got, want, now) {
							t.Fatalf("%s at %v via %s (physical %s):\n%swant\n%s", sh.name, now, entry, p.Physical, got.Render(now), want.Render(now))
						}
						if gotUntil != until {
							t.Fatalf("%s at %v via %s: valid until %v, want %v", sh.name, now, entry, gotUntil, until)
						}
					}

					for i := 0; i < 2; i++ { // evaluated, then (where cacheable) from the result cache
						res, err := sess.Exec(sh.stmt)
						if err != nil {
							t.Fatal(err)
						}
						check("Exec", res.Rel, res.Validity.ValidUntil, until)
					}
					remote := func(entry string, patches bool, budget int, until xtime.Time) {
						t.Helper()
						if err := c.MaterializeContext(context.Background(), sh.stmt, patches, budget); err != nil {
							t.Fatal(err)
						}
						rel, err := c.Read(now)
						if err != nil {
							t.Fatal(err)
						}
						check(entry, rel, c.Texp(), until)
					}
					remote("Materialize", false, 0, until)
					// With births shipped, a root difference (Theorem 3) or
					// GROUP BY (§3.4.1) invalidates only with its arguments, or
					// at the second birth when the budget is one. The births
					// are found by brute force: whatever a later evaluation
					// shows that the one before it, aged, does not.
					patched, budgeted := until, until
					if algebra.HasFuture(p.Logical) {
						patched = xtime.Infinity // monotonic arguments
						var born []xtime.Time
						prev := want
						for at := now + 1; at <= 45; at++ {
							cur, err := algebra.EvalStream(p.Logical, at)
							if err != nil {
								t.Fatal(err)
							}
							cur.AliveAt(at, func(row relation.Row) {
								if !prev.Contains(row.Tuple, at) {
									born = append(born, at)
								}
							})
							prev = cur
						}
						if budgeted = patched; len(born) > 1 {
							budgeted = born[1]
						} else if sh.name == "except" && now == 0 {
							t.Fatalf("the EXCEPT shape has %d critical tuples; the budget is never exercised", len(born))
						}
					}
					remote("Materialize+patches", true, 0, patched)
					remote("Materialize+patches, budget 1", true, 1, budgeted)

					if p.Key != "" { // a view over a view freezes a snapshot: not a maintained reading
						name := fmt.Sprintf("eq_%s_%d", sh.name, now)
						if _, err := sess.Exec("CREATE VIEW " + name + " AS " + sh.stmt); err != nil {
							t.Fatal(err)
						}
						rel, info, err := eng.ReadView(name)
						if err != nil {
							t.Fatal(err)
						}
						check("CREATE VIEW", rel, info.Validity.ValidUntil, until)
						if err := eng.DropView(name); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// TestServerProbesTheIndex: the plan a connection's session makes for
// sid = k on an indexed table is an index probe — the server used to scan
// past the index it maintains — and the probe's answer is what arrives.
func TestServerProbesTheIndex(t *testing.T) {
	const q = "SELECT * FROM sess WHERE sid = 7"
	eng, _ := benchEngine(t, 40, indexConfigs[1].ddl)
	_, c := serve(t, eng)
	sel, err := sql.ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sql.NewSession(eng, nil).Plan(sel)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Physical.String(); !strings.HasPrefix(got, "ixscan[sess_sid =7]") {
		t.Fatalf("server-side plan for a point query: %s", got)
	}
	if err := c.Materialize(q, false); err != nil {
		t.Fatal(err)
	}
	rel, err := c.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if rel.CountAt(0) != 1 {
		t.Fatalf("point read returned %d rows", rel.CountAt(0))
	}
}

// TestMaterializeWhileIndexesChurn: eight connections keep materialising
// while CREATE INDEX / DROP INDEX loops on the table they read. A plan made
// a moment before its index vanished degrades to a scan, so no request
// fails and no answer changes. Run under -race.
func TestMaterializeWhileIndexesChurn(t *testing.T) {
	eng, ddl := benchEngine(t, 40, nil)
	srv, _ := serve(t, eng)
	stmts := []string{benchShapes[0].stmt, benchShapes[1].stmt, benchShapes[2].stmt, benchShapes[3].stmt}
	want := make([]string, len(stmts))
	for i, q := range stmts {
		res, err := ddl.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Rel.Render(0)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			c, err := Dial(srv.ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 150; i++ {
				k := (g + i) % len(stmts)
				if err := c.Materialize(stmts[k], i%3 == 0); err != nil {
					t.Errorf("conn %d request %d: %v", g, i, err)
					return
				}
				rel, err := c.Read(0)
				if err != nil {
					t.Errorf("conn %d read %d: %v", g, i, err)
					return
				}
				if got := rel.Render(0); got != want[k] {
					t.Errorf("conn %d request %d %q:\n%swant\n%s", g, i, stmts[k], got, want[k])
					return
				}
			}
		}(g)
	}
	go func() { readers.Wait(); close(done) }()
	for churn := 0; ; churn++ {
		select {
		case <-done:
			if churn == 0 {
				t.Fatal("no index was created while the readers ran")
			}
			return
		default:
		}
		for _, q := range []string{"CREATE INDEX sess_sid ON sess (sid)", "CREATE INDEX sess_score ON sess (score) USING ORDERED",
			"DROP INDEX sess_sid", "DROP INDEX sess_score"} {
			if _, err := ddl.Exec(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
	}
}

// TestRemoteCopyOfAViewExpiresWithTheView fails at the parent commit: a
// materialisation of a view arrived stamped Texp = ∞, so the remote copy
// served a stale histogram as a local read for ever.
func TestRemoteCopyOfAViewExpiresWithTheView(t *testing.T) {
	for _, tc := range []struct {
		view, def string
		until     xtime.Time
	}{
		{"hist", "SELECT deg, COUNT(*) FROM pol GROUP BY deg", 10},
		{"onlypol", "SELECT uid FROM pol EXCEPT SELECT uid FROM el", 3},
	} {
		t.Run(tc.view, func(t *testing.T) {
			eng := figure1Engine(t)
			sess := sql.NewSession(eng, nil)
			if _, err := sess.Exec("CREATE VIEW " + tc.view + " AS " + tc.def); err != nil {
				t.Fatal(err)
			}
			_, c := serve(t, eng)
			if err := c.Materialize("SELECT * FROM "+tc.view, false); err != nil {
				t.Fatal(err)
			}
			_, info, err := eng.ReadView(tc.view)
			if err != nil {
				t.Fatal(err)
			}
			if c.Validity() != info.Validity || c.Texp() != tc.until {
				t.Fatalf("remote copy stamped %v, the view %v (want until %v)", c.Validity(), info.Validity, tc.until)
			}
			fresh := func() *sql.Result {
				t.Helper()
				res, err := sess.Exec(tc.def)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			if err := eng.Advance(tc.until - 1); err != nil {
				t.Fatal(err)
			}
			rel, err := c.Read(tc.until - 1)
			if err != nil {
				t.Fatal(err)
			}
			if want := fresh(); !reltest.SameTuplesAt(rel, want.Rel, tc.until-1) || c.LocalReads != 1 || c.Rematerializations != 0 {
				t.Fatalf("at Until-1 (local reads %d, refetches %d):\n%swant\n%s", c.LocalReads, c.Rematerializations,
					rel.Render(tc.until-1), want.Rel.Render(tc.until-1))
			}
			if err := eng.Advance(tc.until); err != nil {
				t.Fatal(err)
			}
			rel, err = c.Read(tc.until)
			if err != nil {
				t.Fatal(err)
			}
			if c.Rematerializations != 1 {
				t.Fatalf("a read at Until was served locally (%d refetches)", c.Rematerializations)
			}
			if want := fresh(); !reltest.EqualAt(rel, want.Rel, tc.until) || c.Texp() != want.Validity.ValidUntil {
				t.Fatalf("at Until, valid until %v (fresh %v):\n%swant\n%s", c.Texp(), want.Validity.ValidUntil,
					rel.Render(tc.until), want.Rel.Render(tc.until))
			}
		})
	}
	// A copy that keeps its future is stamped as the view is: until its next
	// birth, and from the last one it applied.
	t.Run("patched", func(t *testing.T) {
		const q = "SELECT uid FROM pol EXCEPT SELECT uid FROM el"
		eng := figure1Engine(t)
		if _, err := sql.NewSession(eng, nil).Exec("CREATE VIEW onlypol AS " + q); err != nil {
			t.Fatal(err)
		}
		_, c := serve(t, eng)
		if err := c.Materialize(q, true); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			at   xtime.Time
			want interval.Validity
		}{{0, interval.Validity{At: 0, ValidUntil: 3}}, {4, interval.Validity{At: 3, ValidUntil: 5}}} {
			if err := eng.Advance(tc.at); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Read(tc.at); err != nil {
				t.Fatal(err)
			}
			_, info, err := eng.ReadView("onlypol")
			if err != nil {
				t.Fatal(err)
			}
			if c.Validity() != info.Validity || info.Validity != tc.want {
				t.Fatalf("read at %v: remote copy stamped %v, the view %v, want %v", tc.at, c.Validity(), info.Validity, tc.want)
			}
		}
		if c.Rematerializations != 0 {
			t.Fatalf("a copy that keeps its future was fetched again (%d times)", c.Rematerializations)
		}
	})
}

// TestMovedViewOverTheWire: while a recovery=backward view is invalid its
// whole read travels stamped with the instant it was moved to, patches
// wanted or not, and a query computed over it is refused rather than sent
// with rows of one instant under the stamp of another.
func TestMovedViewOverTheWire(t *testing.T) {
	eng := figure1Engine(t) // the difference is invalid on [3, 15)
	sess := sql.NewSession(eng, nil)
	if _, err := sess.Exec("CREATE VIEW vi WITH (mode=interval, recovery=backward) AS SELECT uid FROM pol EXCEPT SELECT uid FROM el"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Advance(4); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, nil)
	for _, patches := range []bool{false, true} {
		resp := srv.respond(sess, &Request{Kind: MsgMaterialize, Query: "SELECT * FROM vi", WantPatches: patches})
		if resp.Err != "" || resp.Now != 2 || resp.Texp != 3 || rowsOf(resp) != 1 {
			t.Fatalf("patches=%v: now %v, texp %v, %d rows, err %q; want the answer of instant 2, valid until 3",
				patches, resp.Now, resp.Texp, rowsOf(resp), resp.Err)
		}
		resp = srv.respond(sess, &Request{Kind: MsgMaterialize, Query: "SELECT uid FROM vi WHERE uid > 0", WantPatches: patches})
		if resp.Err == "" {
			t.Fatalf("patches=%v: computed over a moved view: now %v, texp %v", patches, resp.Now, resp.Texp)
		}
	}
}

// TestServerPlansAgainWhenAViewOutrunsThePlan: the server's clock advances
// while it answers. A plan over a view that expired before it was evaluated
// is reported (on both branches: through Session.Query, and through
// algebra.Materialize when patches are wanted) and respond plans again, so no
// response ever travels with Texp ≤ Now — a copy the client would have to
// discard on arrival.
func TestServerPlansAgainWhenAViewOutrunsThePlan(t *testing.T) {
	for _, req := range []*Request{
		{Kind: MsgMaterialize, Query: "SELECT deg FROM hist WHERE deg >= 0"},
		{Kind: MsgMaterialize, Query: "SELECT deg FROM hist EXCEPT SELECT deg FROM el", WantPatches: true},
	} {
		eng := figure1Engine(t)
		sess := sql.NewSession(eng, nil)
		if _, err := sess.Exec("CREATE VIEW hist AS SELECT deg, COUNT(*) FROM pol GROUP BY deg"); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(eng, nil)
		sel, err := sql.ParseQuery(req.Query)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sess.Plan(sel)
		if err != nil || plan.Until != 10 {
			t.Fatalf("%s: plan until %v, err %v; want 10", req.Query, plan.Until, err)
		}
		if err := eng.Advance(10); err != nil {
			t.Fatal(err)
		}
		var stale Response
		if err := srv.evaluate(sess, &plan, req, &stale); !errors.Is(err, view.ErrInvalid) {
			t.Fatalf("%s: a plan valid until 10 ran at 10: now %v texp %v, err %v", req.Query, stale.Now, stale.Texp, err)
		}
		if resp := srv.respond(sess, req); resp.Err != "" || resp.Now != 10 || resp.Texp <= resp.Now || rowsOf(resp) != 1 {
			t.Fatalf("%s: planned again: now %v, texp %v, %d rows, err %q", req.Query, resp.Now, resp.Texp, rowsOf(resp), resp.Err)
		}
	}

	// The same under a clock that really runs: every window of this view
	// is one tick long, four connections keep asking, nothing arrives
	// stamped empty. Run under -race.
	eng, _ := benchEngine(t, 80, nil)
	srv := NewServer(eng, nil)
	var (
		answers atomic.Int64
		done    atomic.Bool
		wg      sync.WaitGroup
	)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := sql.NewSession(eng, nil)
			req := &Request{Kind: MsgMaterialize, Query: "SELECT uid FROM v_hist WHERE uid >= 0"}
			if c%2 == 1 {
				req = &Request{Kind: MsgMaterialize, Query: "SELECT uid FROM v_hist EXCEPT SELECT uid FROM usr WHERE grp = 1", WantPatches: true}
			}
			for !done.Load() {
				resp := srv.respond(sess, req)
				answers.Add(1)
				if resp.Err != "" && !strings.Contains(resp.Err, "plan expired") {
					t.Errorf("%s: %s", req.Query, resp.Err)
					return
				}
				if resp.Err == "" && resp.Texp <= resp.Now {
					t.Errorf("%s: answer of instant %v valid until %v", req.Query, resp.Now, resp.Texp)
					return
				}
			}
		}()
	}
	for tick := xtime.Time(1); tick <= 40; tick++ {
		if err := eng.Advance(tick); err != nil {
			t.Error(err)
			break
		}
		for target := answers.Load() + 8; answers.Load() < target && !t.Failed(); {
			runtime.Gosched()
		}
	}
	done.Store(true)
	wg.Wait()
}

// BenchmarkWireRespondPoint is one MsgMaterialize through Server.respond
// with no socket: a point query on a 5 000-row indexed table, result cache
// off. It pins what a request costs beyond the probe — parse, one Plan,
// the response — now that the session lives as long as its connection and
// nothing is sorted (scripts/alloc-gates.sh).
func BenchmarkWireRespondPoint(b *testing.B) {
	eng, _ := benchEngine(b, 5000, []string{"CREATE INDEX sess_sid ON sess (sid)"})
	eng.SetResultCache(0)
	srv := NewServer(eng, nil)
	sess := sql.NewSession(eng, nil)
	reqs := make([]Request, 512)
	for i := range reqs {
		// Lifetimes end by tick 40 and the clock stays at 0: every sid is alive.
		reqs[i] = Request{Kind: MsgMaterialize, Query: fmt.Sprintf("SELECT * FROM sess WHERE sid = %d", 1+i*9)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := srv.respond(sess, &reqs[i%len(reqs)]); resp.Err != "" || rowsOf(resp) != 1 {
			b.Fatalf("%s: %d rows, err %q", reqs[i%len(reqs)].Query, rowsOf(resp), resp.Err)
		}
	}
}

// BenchmarkClientLocalRead is a read a remote copy that keeps its future
// answers with no round trip: "serve" with no birth due, the shared snapshot
// alone; "birth" applying one, merged with the few live rows into a new
// in-order store. The copy is a − b with 1 000 births, k born at k;
// fetching it again once they are used up is not timed
// (scripts/alloc-gates.sh).
func BenchmarkClientLocalRead(b *testing.B) {
	eng := engine.New()
	sess := sql.NewSession(eng, nil)
	exec := func(q string) {
		if _, err := sess.Exec(q); err != nil {
			b.Fatalf("%s: %v", q, err)
		}
	}
	exec("CREATE TABLE a (k INT)")
	exec("CREATE TABLE b (k INT)")
	const births = 1000
	for k := 1; k <= births; k++ {
		exec(fmt.Sprintf("INSERT INTO a VALUES (%d) EXPIRES AT %d", k, k+5))
		exec(fmt.Sprintf("INSERT INTO b VALUES (%d) EXPIRES AT %d", k, k))
	}
	_, c := serve(b, eng)
	fetch := func() {
		if err := c.Materialize("SELECT k FROM a EXCEPT SELECT k FROM b", true); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("serve", func(b *testing.B) {
		fetch()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rel, err := c.Read(0); err != nil || rel.CountAt(0) != 0 {
				b.Fatalf("read at 0: %v", err)
			}
		}
		if c.PatchesApplied != 0 || c.Rematerializations != 0 {
			b.Fatalf("%d births applied, %d refetches", c.PatchesApplied, c.Rematerializations)
		}
	})
	b.Run("birth", func(b *testing.B) {
		fetch()
		applied := c.PatchesApplied
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			at := xtime.Time(1 + i%births)
			if at == 1 && i > 0 {
				b.StopTimer()
				fetch()
				b.StartTimer()
			}
			if rel, err := c.Read(at); err != nil || rel.CountAt(at) != int(min(at, 5)) {
				b.Fatalf("read at %v: %v", at, err)
			}
		}
		if c.PatchesApplied-applied != b.N || c.Rematerializations != 0 {
			b.Fatalf("%d births applied in %d reads, %d refetches", c.PatchesApplied-applied, b.N, c.Rematerializations)
		}
	})
}

// TestClientShedMovesTheFloorNotTheStamp is engine's
// TestShedMovesTheFloorNotTheStamp for a remote copy: a Read that finds a
// row of the copy dead sheds it, the floor of the copy moves to the instant
// read, and the stamp still describes the materialisation: it holds that
// instant, and the rows are the evaluation there and, when the stamp ends,
// at its last instant.
func TestClientShedMovesTheFloorNotTheStamp(t *testing.T) {
	eng := engine.New()
	if _, err := sql.NewSession(eng, nil).ExecScript(`
		CREATE TABLE pol (uid INT, deg INT);
		CREATE TABLE el (uid INT, deg INT);
		INSERT INTO pol VALUES (1, 0) EXPIRES AT 20;
		INSERT INTO pol VALUES (2, 0) EXPIRES AT 5;
		INSERT INTO pol VALUES (3, 0) EXPIRES AT 30;
		INSERT INTO el VALUES (1, 0) EXPIRES AT 10;
	`); err != nil {
		t.Fatal(err)
	}
	_, c := serve(t, eng)
	uids := func(table string) algebra.Expr {
		b, err := eng.Base(table)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := algebra.NewProject([]int{0}, b)
		return p
	}
	diff, _ := algebra.NewDiff(uids("pol"), uids("el"))
	for query, expr := range map[string]algebra.Expr{"SELECT uid FROM pol": uids("pol"), "SELECT uid FROM pol EXCEPT SELECT uid FROM el": diff} {
		if err := c.Materialize(query, true); err != nil {
			t.Fatal(err)
		}
		for _, tau := range []xtime.Time{0, 0, 5} { // the second read lays the copy out; uid 2 dies at 5
			rel, err := c.Read(tau)
			if err != nil {
				t.Fatal(err)
			}
			if tau == 0 {
				continue
			}
			v := c.Validity()
			if c.mat.Floor() != tau || !v.Contains(tau) || c.Rematerializations != 0 {
				t.Fatalf("%s read at %v: floor %v, stamped %v, %d re-fetches", query, tau, c.mat.Floor(), v, c.Rematerializations)
			}
			at := []xtime.Time{tau}
			if v.ValidUntil != xtime.Infinity {
				at = append(at, v.ValidUntil-1)
			} else if expr == diff {
				t.Fatalf("%s stamped %v, want an end at 10", query, v)
			}
			for _, at := range at {
				want, err := algebra.Evaluate(expr, at)
				if err != nil || !reltest.EqualAt(rel, want.Rel, at) {
					t.Fatalf("%s read at %v, stamped %v, shows at %v (%v)\n%swant\n%s", query, tau, v, at, err, rel.Render(at), want.Rel.Render(at))
				}
			}
		}
	}
}

// TestClientReadBelowTheFloor: a read that sheds rows of the local copy —
// births applied and the dead compacted away at 12 — leaves no earlier
// instant to the copy: a read there re-fetches, and its answer is the
// evaluation at that instant. The stamp contains each instant read, and may
// start below the floor of the copy, never above it.
func TestClientReadBelowTheFloor(t *testing.T) {
	eng := figure1Engine(t)
	_, c := serve(t, eng)
	pol, err := eng.Base("pol")
	if err != nil {
		t.Fatal(err)
	}
	el, err := eng.Base("el")
	if err != nil {
		t.Fatal(err)
	}
	polUID, _ := algebra.NewProject([]int{0}, pol)
	elUID, _ := algebra.NewProject([]int{0}, el)
	diff, _ := algebra.NewDiff(polUID, elUID)
	for query, expr := range map[string]algebra.Expr{"SELECT uid FROM pol": polUID, "SELECT uid FROM pol EXCEPT SELECT uid FROM el": diff} {
		if err := c.Materialize(query, true); err != nil {
			t.Fatal(err)
		}
		for _, tau := range []xtime.Time{12, 4, 1} {
			rel, err := c.Read(tau)
			want, werr := algebra.Evaluate(expr, tau)
			if err != nil || werr != nil || !reltest.EqualAt(rel, want.Rel, tau) {
				t.Fatalf("%s read at %v (%v):\n%swant\n%s", query, tau, err, rel.Render(tau), want.Rel.Render(tau))
			}
			if v := c.Validity(); !c.mat.Holds(tau) || !v.Contains(tau) || v.At > c.mat.Floor() {
				t.Fatalf("%s read at %v: the copy holds from %v, stamped %v", query, tau, c.mat.Floor(), v)
			}
		}
	}
}
