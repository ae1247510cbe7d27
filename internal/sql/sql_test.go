package sql

import (
	"fmt"
	"strings"
	"testing"

	"expdb/internal/engine"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// newSession spins up an engine with the paper's Figure 1 database loaded
// through SQL.
func newSession(t *testing.T) *Session {
	t.Helper()
	s := NewSession(engine.New(), nil)
	script := `
		CREATE TABLE pol (uid INT, deg INT);
		CREATE TABLE el  (uid INT, deg INT);
		INSERT INTO pol VALUES (1, 25) EXPIRES AT 10;
		INSERT INTO pol VALUES (2, 25) EXPIRES AT 15;
		INSERT INTO pol VALUES (3, 35) EXPIRES AT 10;
		INSERT INTO el VALUES (1, 75) EXPIRES AT 5;
		INSERT INTO el VALUES (2, 85) EXPIRES AT 3;
		INSERT INTO el VALUES (4, 90) EXPIRES AT 2;
	`
	if _, err := s.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	return s
}

func mustExec(t *testing.T, s *Session, q string) *Result {
	t.Helper()
	res, err := s.Exec(q)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return res
}

func TestSelectStar(t *testing.T) {
	s := newSession(t)
	res := mustExec(t, s, "SELECT * FROM pol")
	if res.Rel.CountAt(res.At) != 3 {
		t.Fatalf("rows = %d, want 3", res.Rel.CountAt(res.At))
	}
}

func TestSelectWhere(t *testing.T) {
	s := newSession(t)
	res := mustExec(t, s, "SELECT uid FROM pol WHERE deg = 25")
	if res.Rel.CountAt(0) != 2 {
		t.Fatalf("rows = %d, want 2:\n%s", res.Rel.CountAt(0), res.Rel.Render(0))
	}
	res = mustExec(t, s, "SELECT uid FROM pol WHERE deg > 25 AND uid >= 1")
	if res.Rel.CountAt(0) != 1 || !res.Rel.Contains(tuple.Ints(3), 0) {
		t.Fatalf("unexpected rows:\n%s", res.Rel.Render(0))
	}
	// Reversed operand order normalises.
	res = mustExec(t, s, "SELECT uid FROM pol WHERE 25 < deg")
	if res.Rel.CountAt(0) != 1 {
		t.Fatalf("reversed comparison failed:\n%s", res.Rel.Render(0))
	}
}

func TestSelectJoin(t *testing.T) {
	s := newSession(t)
	res := mustExec(t, s, "SELECT pol.uid, pol.deg, el.deg FROM pol JOIN el ON pol.uid = el.uid")
	if res.Rel.CountAt(0) != 2 {
		t.Fatalf("join rows = %d, want 2:\n%s", res.Rel.CountAt(0), res.Rel.Render(0))
	}
	texp, ok := res.Rel.Texp(tuple.Ints(1, 25, 75))
	if !ok || texp != 5 {
		t.Fatalf("join texp = %v, %v; want 5 (min rule)", texp, ok)
	}
}

func TestAmbiguousColumnRejected(t *testing.T) {
	s := newSession(t)
	if _, err := s.Exec("SELECT uid FROM pol JOIN el ON pol.uid = el.uid"); err == nil {
		t.Fatal("ambiguous column accepted")
	}
}

func TestGroupByHistogram(t *testing.T) {
	s := newSession(t)
	res := mustExec(t, s, "SELECT deg, COUNT(*) FROM pol GROUP BY deg")
	if !res.Rel.Contains(tuple.Ints(25, 2), 0) || !res.Rel.Contains(tuple.Ints(35, 1), 0) {
		t.Fatalf("histogram wrong:\n%s", res.Rel.Render(0))
	}
	// Figure 3(a): the ⟨25, 2⟩ row expires at 10 (count changes).
	texp, _ := res.Rel.Texp(tuple.Ints(25, 2))
	if texp != 10 {
		t.Fatalf("texp(⟨25,2⟩) = %v, want 10", texp)
	}
}

func TestGlobalAggregate(t *testing.T) {
	s := newSession(t)
	res := mustExec(t, s, "SELECT SUM(deg), COUNT(*), MIN(deg), MAX(deg), AVG(deg) FROM pol")
	rows := res.Rel.Rows(0)
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1:\n%s", len(rows), res.Rel.Render(0))
	}
	r := rows[0].Tuple
	if r[0].AsInt() != 85 || r[1].AsInt() != 3 || r[2].AsInt() != 25 || r[3].AsInt() != 35 {
		t.Fatalf("aggregates = %v", r)
	}
	if av := r[4].AsFloat(); av < 28.3 || av > 28.4 {
		t.Fatalf("avg = %v", r[4])
	}
}

func TestNonGroupColumnRejected(t *testing.T) {
	s := newSession(t)
	if _, err := s.Exec("SELECT uid, COUNT(*) FROM pol GROUP BY deg"); err == nil {
		t.Fatal("non-grouped column accepted")
	}
	if _, err := s.Exec("SELECT deg FROM pol GROUP BY deg"); err == nil {
		t.Fatal("GROUP BY without aggregate accepted")
	}
}

func TestSetOperators(t *testing.T) {
	s := newSession(t)
	// Figure 3(b): π1(Pol) EXCEPT π1(El) = {⟨3⟩} at time 0.
	res := mustExec(t, s, "SELECT uid FROM pol EXCEPT SELECT uid FROM el")
	if res.Rel.CountAt(0) != 1 || !res.Rel.Contains(tuple.Ints(3), 0) {
		t.Fatalf("EXCEPT wrong:\n%s", res.Rel.Render(0))
	}
	res = mustExec(t, s, "SELECT uid FROM pol INTERSECT SELECT uid FROM el")
	if res.Rel.CountAt(0) != 2 {
		t.Fatalf("INTERSECT rows = %d, want 2", res.Rel.CountAt(0))
	}
	res = mustExec(t, s, "SELECT uid FROM pol UNION SELECT uid FROM el")
	if res.Rel.CountAt(0) != 4 {
		t.Fatalf("UNION rows = %d, want 4", res.Rel.CountAt(0))
	}
}

func TestAdvanceAndExpiration(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "ADVANCE TO 10")
	res := mustExec(t, s, "SELECT * FROM pol")
	if res.Rel.CountAt(10) != 1 {
		t.Fatalf("rows at 10 = %d, want 1", res.Rel.CountAt(10))
	}
	if _, err := s.Exec("ADVANCE TO 5"); err == nil {
		t.Fatal("backwards advance accepted")
	}
}

func TestExpiresVariants(t *testing.T) {
	s := NewSession(engine.New(), nil)
	mustExec(t, s, "CREATE TABLE x (id INT)")
	mustExec(t, s, "ADVANCE TO 5")
	mustExec(t, s, "INSERT INTO x VALUES (1) EXPIRES IN 7")
	mustExec(t, s, "INSERT INTO x VALUES (2) EXPIRES NEVER")
	mustExec(t, s, "INSERT INTO x VALUES (3)")
	rel, err := s.eng.Catalog().Table("x")
	if err != nil {
		t.Fatal(err)
	}
	if texp, _ := rel.Texp(tuple.Ints(1)); texp != 12 {
		t.Fatalf("EXPIRES IN: texp = %v, want 12", texp)
	}
	for _, id := range []int64{2, 3} {
		if texp, _ := rel.Texp(tuple.Ints(id)); texp != xtime.Infinity {
			t.Fatalf("id %d: texp = %v, want ∞", id, texp)
		}
	}
}

func TestMultiRowInsert(t *testing.T) {
	s := NewSession(engine.New(), nil)
	mustExec(t, s, "CREATE TABLE x (id INT, v INT)")
	res := mustExec(t, s, "INSERT INTO x VALUES (1, 10), (2, 20), (3, 30) EXPIRES AT 9")
	if res.Msg != "3 tuple(s) inserted into x (expires 9)" {
		t.Fatalf("msg = %q", res.Msg)
	}
	if res = mustExec(t, s, "INSERT INTO x VALUES (4, 40)"); res.Msg != "1 tuple(s) inserted into x (expires inf)" {
		t.Fatalf("msg = %q", res.Msg)
	}
}

func TestDeleteWhere(t *testing.T) {
	s := newSession(t)
	res := mustExec(t, s, "DELETE FROM pol WHERE deg = 25")
	if !strings.Contains(res.Msg, "2 tuple(s)") {
		t.Fatalf("msg = %q", res.Msg)
	}
	left := mustExec(t, s, "SELECT * FROM pol")
	if left.Rel.CountAt(0) != 1 {
		t.Fatalf("rows = %d, want 1", left.Rel.CountAt(0))
	}
}

func TestCreateViewAndRead(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE MATERIALIZED VIEW onlypol WITH (patching) AS SELECT uid FROM pol EXCEPT SELECT uid FROM el")
	mustExec(t, s, "ADVANCE TO 6")
	res := mustExec(t, s, "SELECT * FROM onlypol")
	// Theorem 3 patching: at 6, UIDs 1, 2, 3 all visible.
	for _, uid := range []int64{1, 2, 3} {
		if !res.Rel.Contains(tuple.Ints(uid), 6) {
			t.Fatalf("uid %d missing:\n%s", uid, res.Rel.Render(6))
		}
	}
	v, err := s.eng.Catalog().View("onlypol")
	if err != nil {
		t.Fatal(err)
	}
	if v.Stats().Recomputations != 0 {
		t.Fatalf("patched view recomputed: %+v", v.Stats())
	}
}

// TestViewOverViewRefused: a view over a view stored the inner view's
// one-time snapshot, so once s(1) expired at 5 and v1 showed ⟨1⟩, v2 still
// answered no rows, stamped [0, ∞[. Such a view is refused, naming the
// inner view; a SELECT over a view is unchanged.
func TestViewOverViewRefused(t *testing.T) {
	s := NewSession(engine.New(), nil)
	if _, err := s.ExecScript(`CREATE TABLE r (a INT); CREATE TABLE s (a INT);
		INSERT INTO r VALUES (1) EXPIRES AT 100; INSERT INTO s VALUES (1) EXPIRES AT 5;
		CREATE VIEW v1 AS SELECT a FROM r EXCEPT SELECT a FROM s`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CREATE VIEW v2 AS SELECT a FROM v1"); err == nil || !strings.Contains(err.Error(), "reads view v1") {
		t.Fatalf("view over a view: err %v, want a refusal naming v1", err)
	}
	mustExec(t, s, "ADVANCE TO 5")
	if res := mustExec(t, s, "SELECT a FROM v1"); !res.Rel.Contains(tuple.Ints(1), 5) || res.Validity.At != 5 {
		t.Fatalf("SELECT over v1 at 5: valid %v\n%s", res.Validity, res.Rel.Render(5))
	}
}

func TestViewModeOptions(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE VIEW vi WITH (mode=interval, recovery=backward) AS SELECT uid FROM pol EXCEPT SELECT uid FROM el")
	mustExec(t, s, "ADVANCE TO 7")
	res := mustExec(t, s, "SELECT * FROM vi")
	// Moved backward to time 2: only ⟨3⟩.
	if res.Rel.CountAt(7) != 0 && res.Rel.CountAt(2) != 1 {
		t.Fatalf("unexpected view answer:\n%s", res.Rel.Render(2))
	}
	if _, err := s.Exec("CREATE VIEW bad WITH (mode=warp) AS SELECT * FROM pol"); err == nil {
		t.Fatal("bad mode accepted")
	}
	if _, err := s.Exec("CREATE VIEW bad2 WITH (patching) AS SELECT * FROM pol"); err == nil {
		t.Fatal("patching accepted for non-difference view")
	}
}

func TestRefreshView(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE VIEW d AS SELECT uid FROM pol EXCEPT SELECT uid FROM el")
	mustExec(t, s, "ADVANCE TO 4")
	res := mustExec(t, s, "REFRESH VIEW d")
	if !strings.Contains(res.Msg, "refreshed at 4") {
		t.Fatalf("msg = %q", res.Msg)
	}
}

func TestTriggersThroughSQL(t *testing.T) {
	var out strings.Builder
	s := NewSession(engine.New(), &out)
	mustExec(t, s, "CREATE TABLE sess (id INT, who STRING, score FLOAT)")
	mustExec(t, s, "CREATE TRIGGER bye ON sess ON EXPIRE DO NOTIFY 'session ended'")
	mustExec(t, s, "INSERT INTO sess VALUES (4242, 'o''neil', -2.5) EXPIRES AT 300")
	mustExec(t, s, "ADVANCE TO 500")
	if want := "NOTIFY bye: sess ⟨4242, \"o'neil\", -2.5⟩ expired at 300 (fired 300)\n"; out.String() != want {
		t.Fatalf("trigger output = %q, want %q", out.String(), want)
	}
}

func TestSetPolicy(t *testing.T) {
	s := newSession(t)
	for _, p := range []string{"naive", "neutral", "exact"} {
		mustExec(t, s, "SET POLICY "+p)
	}
	if _, err := s.Exec("SET POLICY quantum"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestShow(t *testing.T) {
	s := newSession(t)
	if res := mustExec(t, s, "SHOW TABLES"); !strings.Contains(res.Msg, "pol") {
		t.Fatalf("SHOW TABLES = %q", res.Msg)
	}
	if res := mustExec(t, s, "SHOW TIME"); res.Msg != "0" {
		t.Fatalf("SHOW TIME = %q", res.Msg)
	}
	mustExec(t, s, "CREATE VIEW v1 AS SELECT * FROM pol")
	if res := mustExec(t, s, "SHOW VIEWS"); !strings.Contains(res.Msg, "v1") {
		t.Fatalf("SHOW VIEWS = %q", res.Msg)
	}
	if res := mustExec(t, s, "SHOW STATS"); !strings.Contains(res.Msg, "inserts=6") {
		t.Fatalf("SHOW STATS = %q", res.Msg)
	}
}

func TestExplain(t *testing.T) {
	s := newSession(t)
	res := mustExec(t, s, "EXPLAIN SELECT uid FROM pol EXCEPT SELECT uid FROM el")
	for _, want := range []string{"monotonic: false", "texp(e):   3", "validity:"} {
		if !strings.Contains(res.Msg, want) {
			t.Fatalf("EXPLAIN missing %q:\n%s", want, res.Msg)
		}
	}
	res = mustExec(t, s, "EXPLAIN SELECT uid FROM pol WHERE deg = 25")
	if !strings.Contains(res.Msg, "monotonic: true") || !strings.Contains(res.Msg, "texp(e):   inf") {
		t.Fatalf("EXPLAIN:\n%s", res.Msg)
	}
}

func TestParserErrors(t *testing.T) {
	s := newSession(t)
	bad := []string{
		"SELEC * FROM pol",
		"SELECT FROM pol",
		"SELECT * FROM",
		"INSERT INTO pol VALUES (1, 2) EXPIRES SOON",
		"CREATE TABLE pol (uid INT)", // duplicate
		"SELECT * FROM nosuch",
		"SELECT nosuchcol FROM pol",
		"INSERT INTO pol VALUES (1)", // arity
		"SELECT * FROM pol WHERE deg ~ 3",
		"SELECT MIN(*) FROM pol",
		"SELECT uid FROM pol UNION SELECT uid, deg FROM el", // incompatible
		"SHOW NONSENSE",
		"SELECT * FROM pol; garbage",
	}
	for _, q := range bad {
		if _, err := s.Exec(q); err == nil {
			t.Errorf("accepted: %q", q)
		}
	}
}

func TestLexerFeatures(t *testing.T) {
	s := NewSession(engine.New(), nil)
	mustExec(t, s, "CREATE TABLE t (name STRING, ok BOOL, score FLOAT)")
	mustExec(t, s, `INSERT INTO t VALUES ('it''s', TRUE, 2.5) -- trailing comment`)
	res := mustExec(t, s, "SELECT name FROM t WHERE ok = TRUE AND score >= 2.5")
	if res.Rel.CountAt(0) != 1 {
		t.Fatalf("rows = %d, want 1", res.Rel.CountAt(0))
	}
	// Negative literals.
	mustExec(t, s, "CREATE TABLE n (v INT)")
	mustExec(t, s, "INSERT INTO n VALUES (-5)")
	res = mustExec(t, s, "SELECT v FROM n WHERE v <= -5")
	if res.Rel.CountAt(0) != 1 {
		t.Fatal("negative literal handling broken")
	}
}

func TestEndToEndPaperScenario(t *testing.T) {
	// The full §2.1 news-service walk-through: profiles expire, views stay
	// current. The histogram's count changes at time 10, and the view shows
	// the new count without recomputing: it stored ⟨25, 1⟩ when it was made.
	s := newSession(t)
	mustExec(t, s, "CREATE MATERIALIZED VIEW hist AS SELECT deg, COUNT(*) FROM pol GROUP BY deg")
	v, err := s.eng.Catalog().View("hist")
	if err != nil {
		t.Fatal(err)
	}
	if v.Texp() != xtime.Infinity || v.PendingPatches() != 1 {
		t.Fatalf("texp(hist) = %v with %d pending births, want inf and 1", v.Texp(), v.PendingPatches())
	}
	if res := mustExec(t, s, "SELECT * FROM hist"); res.Validity.ValidUntil != 10 {
		t.Fatalf("hist at 0 is stamped %v, want until 10", res.Validity)
	}
	mustExec(t, s, "ADVANCE TO 10")
	res := mustExec(t, s, "SELECT * FROM hist") // applies the birth
	if !res.Rel.Contains(tuple.Ints(25, 1), 10) || res.Rel.CountAt(10) != 1 {
		t.Fatalf("hist at 10 wrong:\n%s", res.Rel.Render(10))
	}
	if st := v.Stats(); st.Recomputations != 0 || st.PatchesApplied != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Spelled out, the bare §2 materialisation: it invalidates exactly at
	// time 10 and the read recomputes it.
	s = newSession(t)
	mustExec(t, s, "CREATE MATERIALIZED VIEW hist WITH (mode=texp) AS SELECT deg, COUNT(*) FROM pol GROUP BY deg")
	if v, err = s.eng.Catalog().View("hist"); err != nil || v.Texp() != 10 {
		t.Fatalf("texp(hist) = %v (%v), want 10", v.Texp(), err)
	}
	mustExec(t, s, "ADVANCE TO 10")
	if res = mustExec(t, s, "SELECT * FROM hist"); !res.Rel.Contains(tuple.Ints(25, 1), 10) || v.Stats().Recomputations != 1 {
		t.Fatalf("stats = %+v, hist at 10:\n%s", v.Stats(), res.Rel.Render(10))
	}
}

// TestShowViewsTellsHowStaleAViewIs: a view is maintained under expiration
// only — a base insert reaches it at its next REFRESH, and a view that keeps
// its future has no other recomputation to pick it up by accident — so the
// writes it has not seen are a number the operator can read.
func TestShowViewsTellsHowStaleAViewIs(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE VIEW hist AS SELECT deg, COUNT(*) FROM pol GROUP BY deg")
	stale := func(pending int, writes uint64) {
		t.Helper()
		vm, err := s.eng.ViewMetrics("hist")
		if err != nil || vm.PendingPatches != pending || vm.BaseWritesSince != writes {
			t.Fatalf("hist: %d pending births, %d base writes since (%v); want %d and %d", vm.PendingPatches, vm.BaseWritesSince, err, pending, writes)
		}
		want := fmt.Sprintf("%d pending births, %d base writes since)", pending, writes)
		if show := mustExec(t, s, "SHOW VIEWS").Msg; !strings.Contains(show, want) {
			t.Fatalf("SHOW VIEWS = %q, want %q in it", show, want)
		}
	}
	stale(1, 0)
	mustExec(t, s, "INSERT INTO pol VALUES (9, 25) EXPIRES AT 20")
	mustExec(t, s, "INSERT INTO el VALUES (9, 25) EXPIRES AT 20") // not a base table of hist
	stale(1, 1)
	mustExec(t, s, "ADVANCE TO 12") // the stored future plays out; the insert stays unseen
	if res := mustExec(t, s, "SELECT * FROM hist"); !res.Rel.Contains(tuple.Ints(25, 1), 12) {
		t.Fatalf("hist at 12, not refreshed:\n%s", res.Rel.Render(12))
	}
	stale(0, 1)
	mustExec(t, s, "DELETE FROM pol WHERE uid = 3") // expired at 10: nothing deleted, nothing written
	stale(0, 1)
	mustExec(t, s, "REFRESH VIEW hist")
	if res := mustExec(t, s, "SELECT * FROM hist"); !res.Rel.Contains(tuple.Ints(25, 2), 12) {
		t.Fatalf("hist at 12, refreshed:\n%s", res.Rel.Render(12))
	}
	stale(1, 0) // ⟨25, 2⟩ becomes ⟨25, 1⟩ at 15
}

func TestOrderByAndLimit(t *testing.T) {
	s := newSession(t)
	res := mustExec(t, s, "SELECT uid, deg FROM pol ORDER BY deg DESC, uid ASC")
	rows := res.Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	wantUIDs := []int64{3, 1, 2} // deg 35 first, then deg 25 by uid
	for i, w := range wantUIDs {
		if got := rows[i].Tuple[0].AsInt(); got != w {
			t.Fatalf("row %d uid = %d, want %d (rows %v)", i, got, w, rows)
		}
	}
	res = mustExec(t, s, "SELECT uid FROM pol ORDER BY uid LIMIT 2")
	rows = res.Rows()
	if len(rows) != 2 || rows[0].Tuple[0].AsInt() != 1 || rows[1].Tuple[0].AsInt() != 2 {
		t.Fatalf("limit rows = %v", rows)
	}
	// LIMIT without ORDER BY still truncates (deterministic: tuple order).
	res = mustExec(t, s, "SELECT uid FROM pol LIMIT 1")
	if len(res.Rows()) != 1 {
		t.Fatalf("rows = %d", len(res.Rows()))
	}
	// Plain queries carry no presentation order; Rows falls back to the
	// deterministic set order.
	res = mustExec(t, s, "SELECT uid FROM pol")
	if _, ok := res.Ordered(); ok {
		t.Fatal("Ordered must report false without ORDER BY/LIMIT")
	}
	if len(res.Rows()) != 3 {
		t.Fatalf("fallback rows = %d", len(res.Rows()))
	}
}

func TestOrderByAfterSetOp(t *testing.T) {
	s := newSession(t)
	res := mustExec(t, s, "SELECT uid FROM pol UNION SELECT uid FROM el ORDER BY uid DESC LIMIT 3")
	rows := res.Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	want := []int64{4, 3, 2}
	for i, w := range want {
		if got := rows[i].Tuple[0].AsInt(); got != w {
			t.Fatalf("row %d = %d, want %d", i, got, w)
		}
	}
}

func TestOrderByErrors(t *testing.T) {
	s := newSession(t)
	if _, err := s.Exec("SELECT uid FROM pol ORDER BY nosuch"); err == nil {
		t.Fatal("unknown ORDER BY column accepted")
	}
	if _, err := s.Exec("SELECT uid FROM pol LIMIT -1"); err == nil {
		t.Fatal("negative LIMIT accepted")
	}
}

func TestOrderByRejectedInViews(t *testing.T) {
	s := newSession(t)
	if _, err := s.Exec("CREATE VIEW v AS SELECT uid FROM pol ORDER BY uid"); err == nil {
		t.Fatal("ORDER BY accepted inside a view definition")
	}
	if _, err := s.PlanQuery("SELECT uid FROM pol LIMIT 1"); err == nil {
		t.Fatal("LIMIT accepted in PlanQuery")
	}
}

func TestThreeWayJoin(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE sport (uid INT, deg INT)")
	mustExec(t, s, "INSERT INTO sport VALUES (1, 50) EXPIRES AT 8")
	mustExec(t, s, "INSERT INTO sport VALUES (2, 60) EXPIRES AT 2")
	res := mustExec(t, s, `SELECT pol.uid, el.deg, sport.deg FROM pol
		JOIN el ON pol.uid = el.uid
		JOIN sport ON pol.uid = sport.uid`)
	// UIDs 1 and 2 are in all three tables.
	if res.Rel.CountAt(0) != 2 {
		t.Fatalf("rows = %d, want 2:\n%s", res.Rel.CountAt(0), res.Rel.Render(0))
	}
	// Min rule chains: ⟨1⟩ has texps pol=10, el=5, sport=8 → 5.
	texp, ok := res.Rel.Texp(tuple.Ints(1, 75, 50))
	if !ok || texp != 5 {
		t.Fatalf("texp = %v, %v; want 5", texp, ok)
	}
	// At time 2 the second combination dies with its sport tuple.
	if got := mustExec(t, s, `SELECT pol.uid, el.deg, sport.deg FROM pol
		JOIN el ON pol.uid = el.uid
		JOIN sport ON pol.uid = sport.uid`); got.Rel.CountAt(2) != 1 {
		t.Fatalf("rows at 2 = %d, want 1", got.Rel.CountAt(2))
	}
}
