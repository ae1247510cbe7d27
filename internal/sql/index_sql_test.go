package sql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"expdb/internal/engine"
)

// TestCreateDropIndexSQL exercises the DDL surface: CREATE INDEX both
// kinds, SHOW INDEXES, duplicate and error cases, DROP INDEX.
func TestCreateDropIndexSQL(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE INDEX pol_uid ON pol (uid)")
	mustExec(t, s, "CREATE INDEX pol_deg ON pol (deg) USING ORDERED")

	res := mustExec(t, s, "SHOW INDEXES")
	if !strings.Contains(res.Msg, "pol_uid ON pol (uid) USING HASH") {
		t.Fatalf("SHOW INDEXES missing hash index:\n%s", res.Msg)
	}
	if !strings.Contains(res.Msg, "pol_deg ON pol (deg) USING ORDERED") {
		t.Fatalf("SHOW INDEXES missing ordered index:\n%s", res.Msg)
	}

	if _, err := s.Exec("CREATE INDEX pol_uid ON pol (uid)"); err == nil {
		t.Fatal("duplicate index name accepted")
	}
	if _, err := s.Exec("CREATE INDEX bad ON pol (nosuch)"); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := s.Exec("CREATE INDEX bad ON nosuch (uid)"); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := s.Exec("CREATE INDEX bad ON pol (uid) USING WAT"); err == nil {
		t.Fatal("unknown index kind accepted")
	}

	mustExec(t, s, "DROP INDEX pol_uid")
	res = mustExec(t, s, "SHOW INDEXES")
	if strings.Contains(res.Msg, "pol_uid") {
		t.Fatalf("dropped index still listed:\n%s", res.Msg)
	}
	if _, err := s.Exec("DROP INDEX pol_uid"); err == nil {
		t.Fatal("double drop accepted")
	}
	// Queries still answer after the drop.
	res = mustExec(t, s, "SELECT * FROM pol WHERE uid = 1")
	if res.Rel.CountAt(res.At) != 1 {
		t.Fatalf("rows = %d, want 1", res.Rel.CountAt(res.At))
	}
}

// TestExplainShowsIndexAlternatives checks that EXPLAIN prints the chosen
// physical access path and the costed alternatives it rejected.
func TestExplainShowsIndexAlternatives(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE INDEX pol_uid ON pol (uid)")
	res := mustExec(t, s, "EXPLAIN SELECT * FROM pol WHERE uid = 2")
	for _, want := range []string{"physical:", "ixscan[pol_uid", "access paths:", "rejected:", "scan(pol)"} {
		if !strings.Contains(res.Msg, want) {
			t.Fatalf("EXPLAIN missing %q:\n%s", want, res.Msg)
		}
	}
	// Without a usable index the plan stays a scan.
	res = mustExec(t, s, "EXPLAIN SELECT * FROM pol WHERE deg = 25")
	if strings.Contains(res.Msg, "ixscan[") {
		t.Fatalf("EXPLAIN chose an index no predicate can use:\n%s", res.Msg)
	}
}

// TestExplainAnalyzeIndexed runs EXPLAIN ANALYZE over an indexed plan and
// checks the probe executed (not the scan fallback) and that actuals were
// harvested for the cost model.
func TestExplainAnalyzeIndexed(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE INDEX pol_uid ON pol (uid)")
	res := mustExec(t, s, "EXPLAIN ANALYZE SELECT * FROM pol WHERE uid = 2")
	if !strings.Contains(res.Msg, "ixscan[pol_uid") {
		t.Fatalf("ANALYZE did not run the index probe:\n%s", res.Msg)
	}
	if res.Rel.CountAt(res.At) != 1 {
		t.Fatalf("ANALYZE result rows = %d, want 1", res.Rel.CountAt(res.At))
	}
	if len(s.actuals) == 0 {
		t.Fatal("EXPLAIN ANALYZE harvested no actuals")
	}
	found := false
	for k := range s.actuals {
		if strings.Contains(k, "ixscan[pol_uid") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no ixscan actual harvested: %v", s.actuals)
	}
}

// TestIndexRecovery proves indexes are rebuilt from the WAL: after a
// crash-reopen the index DDL is replayed, backfill repopulates the
// structures from the recovered rows, and an indexed point lookup
// answers exactly like a scan on a fresh engine — including the
// invisibility of tuples that expired before (or at) the recovery tick.
func TestIndexRecovery(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Session, *engine.Engine) {
		eng := engine.New(engine.WithDurability(dir))
		s := NewSession(eng, nil)
		if _, err := eng.OpenDurability(func(def string) error {
			_, err := s.Exec(def)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return s, eng
	}

	s, eng := open()
	script := `
		CREATE TABLE ev (k INT, v INT, c INT);
		CREATE INDEX ev_k ON ev (k);
		CREATE INDEX ev_v ON ev (v) USING ORDERED;
	`
	if _, err := s.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO ev VALUES (%d, %d, %d) EXPIRES AT %d",
			r.Intn(30), r.Intn(100), i, 5+r.Intn(20)))
	}
	mustExec(t, s, "ADVANCE TO 10")
	if err := eng.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	// Crash-reopen: DDL (tables, indexes) and rows replay from the log.
	s2, eng2 := open()
	res := mustExec(t, s2, "SHOW INDEXES")
	if !strings.Contains(res.Msg, "ev_k ON ev (k) USING HASH") ||
		!strings.Contains(res.Msg, "ev_v ON ev (v) USING ORDERED") {
		t.Fatalf("indexes not recovered:\n%s", res.Msg)
	}
	// The recovered plan must actually probe the index.
	ex := mustExec(t, s2, "EXPLAIN SELECT * FROM ev WHERE k = 3")
	if !strings.Contains(ex.Msg, "ixscan[ev_k") {
		t.Fatalf("recovered engine does not use the index:\n%s", ex.Msg)
	}

	// Oracle: a fresh unindexed engine fed the same surviving state would
	// answer the same. Cheaper equivalent: compare probe vs scan on the
	// same recovered engine (DROP INDEX forces the scan path).
	queries := []string{
		"SELECT * FROM ev WHERE k = 3",
		"SELECT * FROM ev WHERE v >= 20 AND v < 40",
		"SELECT * FROM ev WHERE k = 7 AND c > 50",
	}
	indexed := make([]string, len(queries))
	for i, q := range queries {
		res := mustExec(t, s2, q)
		if n, alive := res.Rel.Len(), res.Rel.CountAt(res.At); n != alive {
			t.Fatalf("recovered indexed read returned %d expired rows at %s", n-alive, res.At)
		}
		indexed[i] = res.Rel.Render(res.At) + "|" + res.Validity.String()
	}
	mustExec(t, s2, "DROP INDEX ev_k")
	mustExec(t, s2, "DROP INDEX ev_v")
	eng2.SetResultCache(0) // force re-evaluation through the scan path
	for i, q := range queries {
		res := mustExec(t, s2, q)
		got := res.Rel.Render(res.At) + "|" + res.Validity.String()
		if got != indexed[i] {
			t.Fatalf("%q: probe and scan disagree after recovery\nprobe: %s\nscan:  %s", q, indexed[i], got)
		}
	}
}

// TestIntFloatEqualityIsExact: an INT equals a FLOAT only when the FLOAT is
// that integer — 2⁵³+1 is not 2⁵³.0, which float64 cannot tell apart — so a
// hash join, a hash or ordered probe, a range and a nested loop all select
// the one row holding 2⁵³. Without a result cache every statement runs its
// own plan.
func TestIntFloatEqualityIsExact(t *testing.T) {
	s := NewSession(engine.New(engine.WithResultCache(0)), nil)
	script := `CREATE TABLE a (x INT); CREATE TABLE b (y FLOAT);
		INSERT INTO a VALUES (9007199254740993); INSERT INTO a VALUES (9007199254740992);
		INSERT INTO b VALUES (9007199254740992.0);`
	for i := 0; i < 300; i++ {
		script += fmt.Sprintf("INSERT INTO a VALUES (%d);", i)
	}
	if _, err := s.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	for _, index := range []string{"", "CREATE INDEX ax ON a (x) USING HASH", "CREATE INDEX ax ON a (x) USING ORDERED"} {
		if index != "" {
			mustExec(t, s, index)
		}
		for _, q := range []string{
			"SELECT x FROM a JOIN b ON x = y",
			"SELECT x FROM a JOIN b ON x >= y AND x <= y",
			"SELECT x FROM a JOIN b ON x = y OR x < 0",
			"SELECT x FROM a WHERE x = 9007199254740992.0",
			"SELECT x FROM a WHERE x >= 9007199254740992.0 AND x <= 9007199254740992.0",
		} {
			if rows := mustExec(t, s, q).Rows(); len(rows) != 1 || rows[0].Tuple[0].AsInt() != 1<<53 {
				t.Errorf("%q (%q): %v, want the one row 9007199254740992", index, q, rows)
			}
		}
		if index != "" {
			mustExec(t, s, "DROP INDEX ax")
		}
	}
}
