package sql

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"expdb/internal/engine"
	"expdb/internal/relation"
	"expdb/internal/tuple"
)

// memoRead runs q through s, whose memo must hold it, and checks the
// answer and the physical plan against a session without a memo that
// parses, lowers and optimises q afresh and evaluates it past the result
// cache (which the memoised read may have filled). It returns the plan the
// memoised parse gets.
func memoRead(t *testing.T, s *Session, q string) Plan {
	t.Helper()
	res, err := s.Exec(q)
	if err != nil {
		t.Fatalf("memoised %q: %v", q, err)
	}
	sel := s.memo[q]
	if sel == nil {
		t.Fatalf("%q is not memoised", q)
	}
	p, err := s.Plan(sel)
	if err != nil {
		t.Fatal(err)
	}
	fp := freshPlan(t, s, q)
	fp.Key = ""
	qr, err := s.Query(&fp)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rowsKey(res.Rows()), rowsKey(qr.Rel.RowsSorted(qr.At)); got != want {
		t.Fatalf("%q through the memo: %s\nfresh: %s", q, got, want)
	}
	if got, want := p.Physical.String(), fp.Physical.String(); got != want {
		t.Fatalf("%q through the memo plans %s, afresh %s", q, got, want)
	}
	return p
}

// freshPlan plans q as a session without a memo does — parsed, lowered and
// optimised anew — under s's policy and harvested actuals.
func freshPlan(t testing.TB, s *Session, q string) Plan {
	t.Helper()
	fresh := NewSession(s.eng, nil)
	fresh.policy, fresh.actuals = s.policy, s.actuals
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := fresh.Plan(stmt)
	if err != nil {
		t.Fatalf("fresh %q: %v", q, err)
	}
	return p
}

// memoised Execs q twice, so that the memo notes it and then holds it.
func memoised(t *testing.T, s *Session, q string) {
	t.Helper()
	mustExec(t, s, q)
	mustExec(t, s, q)
}

// TestPlanMemoAdmission: a SELECT text is noted on its first sighting and
// memoised on its second; a hit parses nothing and is counted; only
// SELECTs are kept, never a parse error; and at DefaultResultCacheSize
// texts the memo starts over.
func TestPlanMemoAdmission(t *testing.T) {
	s := newSession(t)
	q := "SELECT uid FROM pol WHERE deg = 25"
	mustExec(t, s, q)
	if sel, seen := s.memo[q]; !seen || sel != nil {
		t.Fatalf("after one read: memo entry %v, seen %v; want noted with no parse", sel, seen)
	}
	parses := s.m.ParseNanos.Snapshot().Count
	mustExec(t, s, q)
	sel := s.memo[q]
	if sel == nil || s.m.MemoHits.Load() != 0 {
		t.Fatalf("after two reads: memo entry %v, hits %d; want the parse, no hit", sel, s.m.MemoHits.Load())
	}
	mustExec(t, s, q)
	if s.memo[q] != sel || s.m.MemoHits.Load() != 1 || s.m.ParseNanos.Snapshot().Count != parses+1 {
		t.Fatalf("third read: hits %d, parses %d; want 1 hit and no parse", s.m.MemoHits.Load(), s.m.ParseNanos.Snapshot().Count-parses)
	}
	// Only a memoised statement keeps its lowering; a one-off plan allocates none.
	if sel.low == nil || sel.low.Logical == nil {
		t.Fatal("the memoised statement kept no lowering")
	}
	once, err := ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Plan(once); err != nil || once.low != nil {
		t.Fatalf("a statement outside the memo: err %v, lowering %v; want none kept", err, once.low)
	}
	if !strings.Contains(mustExec(t, s, "SHOW METRICS").Msg, `"plan_memo_hits": 1`) {
		t.Fatal("SHOW METRICS does not report the memo hit")
	}

	// PlanQuery shares the memo, and still refuses what it cannot plan.
	if _, err := s.PlanQuery(q); err != nil || s.m.MemoHits.Load() != 2 {
		t.Fatalf("PlanQuery: err %v, hits %d; want a memo hit", err, s.m.MemoHits.Load())
	}
	ordered := "SELECT uid FROM pol ORDER BY uid"
	memoised(t, s, ordered)
	if _, err := s.PlanQuery(ordered); err == nil {
		t.Fatal("PlanQuery planned a memoised ORDER BY")
	}

	for _, stmt := range []string{"INSERT INTO pol VALUES (7, 70)", "EXPLAIN " + q, "SHOW TIME"} {
		memoised(t, s, stmt)
		if _, seen := s.memo[stmt]; seen {
			t.Fatalf("%q entered the memo", stmt)
		}
	}
	bad := "SELECT uid FROM"
	for i := 0; i < 2; i++ {
		if _, err := s.Exec(bad); err == nil {
			t.Fatal("parsed a broken SELECT")
		}
	}
	if _, seen := s.memo[bad]; seen {
		t.Fatal("a parse error entered the memo")
	}

	for i := len(s.memo); i < engine.DefaultResultCacheSize; i++ {
		mustExec(t, s, fmt.Sprintf("SELECT uid FROM pol WHERE deg = %d", 1000+i))
	}
	if len(s.memo) != engine.DefaultResultCacheSize {
		t.Fatalf("memo holds %d texts, want %d", len(s.memo), engine.DefaultResultCacheSize)
	}
	mustExec(t, s, "SELECT uid FROM pol WHERE deg = 35")
	if _, seen := s.memo[q]; seen || len(s.memo) != 1 {
		t.Fatalf("memo at the bound: %d texts, %q kept %v; want it emptied and the new text noted", len(s.memo), q, seen)
	}
}

// TestPlanMemoHitRunsNoOptimiser: a memoised read the result cache answers
// is served by its key alone. Such a read allocates the Result and the
// snapshot header the cache hands out; the optimiser, which costs the probe
// and builds it, would add 10 allocations.
func TestPlanMemoHitRunsNoOptimiser(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE INDEX pol_uid ON pol (uid)")
	q := "SELECT * FROM pol WHERE uid = 2"
	memoised(t, s, q)
	if n := testing.AllocsPerRun(100, func() {
		if res, err := s.Exec(q); err != nil || !res.Cached {
			t.Fatalf("cached %v, err %v", res != nil && res.Cached, err)
		}
	}); n > 4 {
		t.Fatalf("a cached read through Exec: %.1f allocs, budget 4", n)
	}
}

// TestPlanMemoFollowsIndexDDL: the optimiser runs on every read that
// evaluates, so a memoised statement probes an index created after it was
// memoised and scans again once the index is dropped.
func TestPlanMemoFollowsIndexDDL(t *testing.T) {
	s := newSession(t)
	for uid := 10; uid < 200; uid++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO pol VALUES (%d, %d)", uid, uid%40))
	}
	q := "SELECT * FROM pol WHERE uid = 42"
	memoised(t, s, q)
	if p := memoRead(t, s, q); strings.Contains(p.Physical.String(), "ixscan") {
		t.Fatalf("probed with no index: %s", p.Physical)
	}
	mustExec(t, s, "CREATE INDEX pol_uid ON pol (uid)")
	if p := memoRead(t, s, q); !strings.Contains(p.Physical.String(), "ixscan[pol_uid") {
		t.Fatalf("after CREATE INDEX: %s", p.Physical)
	}
	mustExec(t, s, "DROP INDEX pol_uid")
	if p := memoRead(t, s, q); strings.Contains(p.Physical.String(), "ixscan") {
		t.Fatalf("after DROP INDEX: %s", p.Physical)
	}
}

// TestPlanMemoReadersRaceIndexDDL: four readers read through their memos
// while a writer creates and drops indexes, inserts and advances the clock,
// so the optimiser a read leaves to the engine runs while DDL is in flight.
// Each answer must be the one a cache-off session gives in some state the
// engine passed through during the read, and no row it returns may be dead
// at its instant.
func TestPlanMemoReadersRaceIndexDDL(t *testing.T) {
	queries := []string{
		"SELECT * FROM pol WHERE uid = 7",
		"SELECT uid FROM pol WHERE deg >= 20 AND deg < 40",
		"SELECT deg, COUNT(*) FROM pol GROUP BY deg",
		"SELECT uid FROM pol EXCEPT SELECT uid FROM el",
		"SELECT pol.uid, el.deg FROM pol JOIN el ON pol.uid = el.uid WHERE pol.deg < 30",
	}
	setup := []string{"CREATE TABLE pol (uid INT, deg INT)", "CREATE TABLE el (uid INT, deg INT)"}
	r := rand.New(rand.NewSource(48))
	var ops []string
	now, indexed := 0, false
	for len(ops) < 300 {
		switch k := r.Intn(10); {
		case k == 0 && !indexed:
			ops = append(ops, "CREATE INDEX ix ON "+[]string{"pol (uid)", "pol (deg) USING ORDERED", "el (uid)", "pol (uid, deg)"}[r.Intn(4)])
			indexed = true
		case k == 0:
			ops = append(ops, "DROP INDEX ix")
			indexed = false
		case k <= 2:
			now++
			ops = append(ops, fmt.Sprintf("ADVANCE TO %d", now))
		default:
			ops = append(ops, fmt.Sprintf("INSERT INTO %s VALUES (%d, %d) EXPIRES AT %d",
				[]string{"pol", "el"}[r.Intn(2)], r.Intn(12), 5*r.Intn(10), now+1+r.Intn(8)))
		}
	}

	// want[v][i] is query i's answer after the first v ops, cache off.
	ref := NewSession(engine.New(engine.WithResultCache(0)), nil)
	answers := func() []string {
		out := make([]string, len(queries))
		for i, q := range queries {
			out[i] = rowsKey(mustExec(t, ref, q).Rows())
		}
		return out
	}
	for _, op := range setup {
		mustExec(t, ref, op)
	}
	want := [][]string{answers()}
	for _, op := range ops {
		mustExec(t, ref, op)
		want = append(want, answers())
	}

	eng := engine.New()
	writer := NewSession(eng, nil)
	for _, op := range setup {
		mustExec(t, writer, op)
	}
	var done atomic.Int64 // ops the writer has finished
	var ready, wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		ready.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, r := NewSession(eng, nil), rand.New(rand.NewSource(g))
			read := func(i int) bool {
				from := done.Load()
				res, err := s.Exec(queries[i])
				to := min(done.Load()+1, int64(len(ops)))
				if err != nil {
					t.Errorf("%s: %v", queries[i], err)
					return false
				}
				res.Rel.All(func(row relation.Row) {
					if row.Texp <= res.At {
						t.Errorf("%s at %s: the row %s@%s is dead", queries[i], res.At, row.Tuple, row.Texp)
					}
				})
				got := rowsKey(res.Rows())
				if !slices.ContainsFunc(want[from:to+1], func(w []string) bool { return w[i] == got }) {
					t.Errorf("%s at %s (cached %v, ops %d–%d): %s, which no cache-off state between gives", queries[i], res.At, res.Cached, from, to, got)
					return false
				}
				return true
			}
			ok := true
			for i := range queries {
				ok = ok && read(i) && read(i)
			}
			ready.Done()
			for ok && done.Load() < int64(len(ops)) {
				ok = read(r.Intn(len(queries)))
			}
		}()
	}
	ready.Wait()
	for _, op := range ops {
		mustExec(t, writer, op)
		done.Add(1)
	}
	wg.Wait()
	if stats, _ := eng.ResultCacheStats(); stats.Hits == 0 || stats.Misses == 0 {
		t.Fatalf("hits %d, misses %d: the readers never both hit and evaluated", stats.Hits, stats.Misses)
	}
}

// TestPlanMemoCostsEveryRead: a table that grows from empty to 20 000 rows
// turns the scan a memoised statement was first planned with into a probe.
func TestPlanMemoCostsEveryRead(t *testing.T) {
	s := NewSession(engine.New(), nil)
	mustExec(t, s, "CREATE TABLE ev (k INT, v INT)")
	mustExec(t, s, "CREATE INDEX ev_k ON ev (k)")
	q := "SELECT v FROM ev WHERE k = 7"
	memoised(t, s, q)
	if p := memoRead(t, s, q); strings.Contains(p.Physical.String(), "ixscan") {
		t.Fatalf("an empty table probed: %s", p.Physical)
	}
	for k := 0; k < 20_000; k++ {
		if err := s.eng.Insert("ev", tuple.Ints(int64(k%1000), int64(k)), 1_000_000); err != nil {
			t.Fatal(err)
		}
	}
	if p := memoRead(t, s, q); !strings.Contains(p.Physical.String(), "ixscan[ev_k") {
		t.Fatalf("20 000 rows scanned: %s", p.Physical)
	}
}

// TestPlanMemoFollowsTableReplacement: DROP + CREATE TABLE under the same
// name — in another session on the engine, so the memo keeps the statement
// — makes another relation, so the memoised statement is lowered again: it
// reads the new table's columns in their new order, and fails once the
// column it names is gone. A session's own DROP TABLE empties its memo, so
// no lowering keeps the dropped relation alive.
func TestPlanMemoFollowsTableReplacement(t *testing.T) {
	s := newSession(t)
	ddl := NewSession(s.eng, nil)
	q := "SELECT uid FROM pol WHERE deg >= 30"
	memoised(t, s, q)
	memoRead(t, s, q)
	mustExec(t, ddl, "DROP TABLE pol")
	mustExec(t, ddl, "CREATE TABLE pol (deg INT, uid INT)")
	mustExec(t, ddl, "INSERT INTO pol VALUES (40, 8)")
	mustExec(t, ddl, "INSERT INTO pol VALUES (20, 9)")
	if rows := memoRead(t, s, q); rows.Logical.Schema().Arity() != 1 {
		t.Fatalf("logical %s", rows.Logical)
	}
	if got := rowsKey(mustExec(t, s, q).Rows()); got != "⟨8⟩@inf" {
		t.Fatalf("rows %s, want uid 8 of the new table", got)
	}
	mustExec(t, ddl, "DROP TABLE pol")
	mustExec(t, ddl, "CREATE TABLE pol (deg INT, gid INT)")
	if _, err := s.Exec(q); err == nil || !strings.Contains(err.Error(), "unknown column uid") {
		t.Fatalf("a vanished column: %v", err)
	}
	if sel := s.memo[q]; sel == nil || sel.low.Logical != nil {
		t.Fatal("a failed lowering left the stale one in place")
	}
	mustExec(t, s, "DROP TABLE el")
	if len(s.memo) != 0 {
		t.Fatalf("DROP TABLE left %d texts in the memo", len(s.memo))
	}
}

// TestPlanMemoFollowsPolicy: the aggregation policy is part of a lowering,
// so SET POLICY between two reads of a memoised GROUP BY changes what the
// second one computes.
func TestPlanMemoFollowsPolicy(t *testing.T) {
	s := newSession(t)
	q := "SELECT deg, MAX(uid) FROM pol GROUP BY deg"
	memoised(t, s, q)
	exact := rowsKey(mustExec(t, s, q).Rows())
	memoRead(t, s, q)
	mustExec(t, s, "SET POLICY naive")
	memoRead(t, s, q)
	if naive := rowsKey(mustExec(t, s, q).Rows()); naive == exact {
		t.Fatalf("naive and exact agree (%s): the test proves nothing", naive)
	}
}

// TestPlanMemoLearnsFromAnalyze: actuals EXPLAIN ANALYZE harvests steer the
// next plan of a memoised statement. The probe's guess of 30 % of the rows
// is wrong for a range every row passes; measured, the scan is cheaper.
func TestPlanMemoLearnsFromAnalyze(t *testing.T) {
	s := NewSession(engine.New(), nil)
	mustExec(t, s, "CREATE TABLE ev (k INT, v INT)")
	for k := 0; k < 500; k++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO ev VALUES (%d, %d)", k, k))
	}
	mustExec(t, s, "CREATE INDEX ev_v ON ev (v) USING ORDERED")
	q := "SELECT * FROM ev WHERE v >= 0"
	memoised(t, s, q)
	if p := memoRead(t, s, q); !strings.Contains(p.Physical.String(), "ixscan[ev_v") {
		t.Fatalf("before ANALYZE: %s", p.Physical)
	}
	mustExec(t, s, "EXPLAIN ANALYZE "+q)
	if p := memoRead(t, s, q); strings.Contains(p.Physical.String(), "ixscan") {
		t.Fatalf("after ANALYZE measured every row: %s", p.Physical)
	}
}

// TestPlanMemoKeepsNoViewLowering: a plan over a view embeds the snapshot
// one read returned, so a memoised SELECT over a view reads it anew —
// after an ADVANCE that moves the view, and after a REFRESH that shows it
// the base writes. The memo keeps no lowering of it, which would hold the
// snapshot alive.
func TestPlanMemoKeepsNoViewLowering(t *testing.T) {
	s := windowSession(t)
	queries := []string{"SELECT * FROM hist", "SELECT deg FROM hist WHERE deg >= 0", "SELECT * FROM onlypol"}
	for _, q := range queries {
		memoised(t, s, q)
		memoRead(t, s, q)
	}
	for _, step := range []string{"ADVANCE TO 5", "INSERT INTO pol VALUES (4, 45) EXPIRES AT 20", "REFRESH VIEW hist", "REFRESH VIEW onlypol", "ADVANCE TO 8"} {
		mustExec(t, s, step)
		for _, q := range queries {
			memoRead(t, s, q)
			if s.memo[q].low.Logical != nil {
				t.Fatalf("%q kept the lowering of a view plan", q)
			}
		}
	}
}

// TestExplainNamesProbesWithResiduals pins EXPLAIN's access-path lines for
// a probe whose residual it lists apart: chosen, and rejected.
func TestExplainNamesProbesWithResiduals(t *testing.T) {
	s := NewSession(engine.New(), nil)
	mustExec(t, s, "CREATE TABLE sess (sid INT, uid INT, score INT)")
	mustExec(t, s, "CREATE INDEX sess_score ON sess (score) USING ORDERED")
	q := "EXPLAIN SELECT * FROM sess WHERE score >= 1000 AND score < 1500 AND uid = 3"
	for _, want := range []string{
		"  σ[($3 >= 1000) AND ($3 < 1500) AND ($2 = 3)](sess) → scan(sess) (est cost 1.0)",
		"    rejected: ixscan[sess_score ≥1000 <1500](sess) (est cost 1.0)",
	} {
		if msg := mustExec(t, s, q).Msg; !strings.Contains(msg+"\n", want+"\n") {
			t.Fatalf("EXPLAIN lacks the line\n%s\n%s", want, msg)
		}
	}
	for sid := 0; sid < 100; sid++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO sess VALUES (%d, %d, %d)", sid, sid%7, sid*20))
	}
	for _, want := range []string{
		"  σ[($3 >= 1000) AND ($3 < 1500) AND ($2 = 3)](sess) → ixscan[sess_score ≥1000 <1500](sess) (est cost 36.7)",
		"    rejected: scan(sess) (est cost 100.0)",
	} {
		if msg := mustExec(t, s, q).Msg; !strings.Contains(msg+"\n", want+"\n") {
			t.Fatalf("EXPLAIN lacks the line\n%s\n%s", want, msg)
		}
	}
}

// TestPlanQueryRunsNoOptimiser: PlanQuery, which DB.Plan is, returns the
// tree Plan makes as Logical and runs no optimiser for it. With the
// lowering kept in the memo it allocates less than Plan of the same
// statement, which optimises.
func TestPlanQueryRunsNoOptimiser(t *testing.T) {
	s := newSession(t)
	for _, q := range []string{
		"SELECT uid FROM pol EXCEPT SELECT uid FROM el",
		"SELECT pol.uid, el.deg FROM pol JOIN el ON pol.uid = el.uid WHERE pol.deg >= 30 AND el.deg < 80",
	} {
		sel, err := ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.Plan(sel)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ { // the second read admits q to the memo, the third reuses its lowering
			expr, err := s.PlanQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := expr.String(), p.Logical.String(); got != want {
				t.Fatalf("PlanQuery(%q) = %s, want Plan's Logical %s", q, got, want)
			}
		}
		memo := s.memo[q]
		if memo == nil {
			t.Fatalf("%q is not in the memo", q)
		}
		planQuery := testing.AllocsPerRun(50, func() { _, _ = s.PlanQuery(q) })
		plan := testing.AllocsPerRun(50, func() { _, _ = s.Plan(memo) })
		if planQuery >= plan {
			t.Fatalf("%q: PlanQuery allocates %.0f, Plan %.0f: PlanQuery optimised", q, planQuery, plan)
		}
	}
}
