package sql

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
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

// indexedQueries is the query mix the equivalence tests replay: point
// lookups, ranges, conjunctions with residuals, and a join.
func indexedQueries(r *rand.Rand) []string {
	k := r.Intn(40)
	lo, span := r.Intn(90), 1+r.Intn(20)
	return []string{
		fmt.Sprintf("SELECT * FROM ev WHERE k = %d", k),
		fmt.Sprintf("SELECT * FROM ev WHERE v >= %d AND v < %d", lo, lo+span),
		fmt.Sprintf("SELECT * FROM ev WHERE k = %d AND c > %d", k, r.Intn(50)),
		fmt.Sprintf("SELECT k, c FROM ev WHERE v > %d", lo),
		fmt.Sprintf("SELECT * FROM ev JOIN dim ON ev.k = dim.k WHERE dim.tag = %d", r.Intn(5)),
	}
}

// setupPair builds two engines with identical contents; only one carries
// indexes. Returns (indexed, plain).
func setupPair(t *testing.T) (*Session, *Session) {
	t.Helper()
	ddl := `
		CREATE TABLE ev  (k INT, v INT, c INT);
		CREATE TABLE dim (k INT, tag INT);
	`
	idx := NewSession(engine.New(), nil)
	plain := NewSession(engine.New(), nil)
	for _, s := range []*Session{idx, plain} {
		if _, err := s.ExecScript(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		"CREATE INDEX ev_k ON ev (k)",
		"CREATE INDEX ev_v ON ev (v) USING ORDERED",
		"CREATE INDEX dim_tag ON dim (tag)",
	} {
		mustExec(t, idx, q)
	}
	return idx, plain
}

// TestIndexedEquivalenceProperty replays a seeded random workload of
// interleaved inserts, deletes and clock advances against an indexed and
// an unindexed engine and requires every answer — visible rows AND the
// result's validity stamp — to be identical. This is the cache-
// correctness invariant: IndexScan ≡ σ[pred](Base) down to expiration
// metadata, so both engines share result-cache keys honestly.
func TestIndexedEquivalenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			idx, plain := setupPair(t)
			now := 0
			for step := 0; step < 60; step++ {
				var op string
				switch n := r.Intn(10); {
				case n < 5: // insert, often expiring soon
					texp := now + 1 + r.Intn(15)
					if r.Intn(8) == 0 {
						op = fmt.Sprintf("INSERT INTO ev VALUES (%d, %d, %d)",
							r.Intn(40), r.Intn(110), r.Intn(60))
					} else {
						op = fmt.Sprintf("INSERT INTO ev VALUES (%d, %d, %d) EXPIRES AT %d",
							r.Intn(40), r.Intn(110), r.Intn(60), texp)
					}
				case n < 6:
					op = fmt.Sprintf("INSERT INTO dim VALUES (%d, %d) EXPIRES AT %d",
						r.Intn(40), r.Intn(5), now+1+r.Intn(20))
				case n < 8: // delete a slice
					op = fmt.Sprintf("DELETE FROM ev WHERE k = %d", r.Intn(40))
				default: // advance: expire tuples on both engines
					now += 1 + r.Intn(3)
					op = fmt.Sprintf("ADVANCE TO %d", now)
				}
				if _, err := idx.Exec(op); err != nil {
					t.Fatalf("indexed %q: %v", op, err)
				}
				if _, err := plain.Exec(op); err != nil {
					t.Fatalf("plain %q: %v", op, err)
				}
				for _, q := range indexedQueries(r) {
					ri, err := idx.Exec(q)
					if err != nil {
						t.Fatalf("indexed %q: %v", q, err)
					}
					rp, err := plain.Exec(q)
					if err != nil {
						t.Fatalf("plain %q: %v", q, err)
					}
					gi, gp := ri.Rel.Render(ri.At), rp.Rel.Render(rp.At)
					if gi != gp {
						t.Fatalf("step %d, %q: rows diverge\nindexed:\n%s\nplain:\n%s", step, q, gi, gp)
					}
					if ri.Validity != rp.Validity {
						t.Fatalf("step %d, %q: validity diverges: indexed %v plain %v",
							step, q, ri.Validity, rp.Validity)
					}
					// Expired tuples must be invisible through the index.
					for _, row := range ri.Rel.RowsSorted(ri.At) {
						if row.Texp <= ri.At {
							t.Fatalf("step %d, %q: indexed read returned expired row %s (texp %s, now %s)",
								step, q, row.Tuple, row.Texp, ri.At)
						}
					}
				}
			}
		})
	}
}

// TestIndexedConcurrentReads drives concurrent indexed reads against a
// writer doing inserts, deletes and advances. Run under -race this pins
// the lock discipline of the probe path; every result must be free of
// expired tuples at its own answer instant.
func TestIndexedConcurrentReads(t *testing.T) {
	idx, _ := setupPair(t)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		mustExec(t, idx, fmt.Sprintf("INSERT INTO ev VALUES (%d, %d, %d) EXPIRES AT %d",
			r.Intn(40), r.Intn(110), r.Intn(60), 1+r.Intn(30)))
	}
	eng := idx.eng
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			// Sessions are single-goroutine; each reader gets its own.
			s := NewSession(eng, nil)
			rr := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := fmt.Sprintf("SELECT * FROM ev WHERE k = %d", rr.Intn(40))
				res, err := s.Exec(q)
				if err != nil {
					t.Errorf("%q: %v", q, err)
					return
				}
				for _, row := range res.Rel.RowsSorted(res.At) {
					if row.Texp <= res.At {
						t.Errorf("indexed read returned expired row %s at %s", row.Tuple, res.At)
						return
					}
				}
			}
		}(int64(g + 100))
	}
	for now := 1; now <= 30; now++ {
		mustExec(t, idx, fmt.Sprintf("INSERT INTO ev VALUES (%d, %d, %d) EXPIRES AT %d",
			r.Intn(40), r.Intn(110), r.Intn(60), now+1+r.Intn(10)))
		mustExec(t, idx, fmt.Sprintf("DELETE FROM ev WHERE k = %d", r.Intn(40)))
		mustExec(t, idx, fmt.Sprintf("ADVANCE TO %d", now))
	}
	close(stop)
	wg.Wait()
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
		for _, row := range res.Rel.RowsSorted(res.At) {
			if row.Texp <= res.At {
				t.Fatalf("recovered indexed read returned expired row %s at %s", row.Tuple, res.At)
			}
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
