package sql

import (
	"strings"
	"testing"

	"expdb/internal/algebra"
	"expdb/internal/engine"
	"expdb/internal/xtime"
)

// windowSession holds ISSUE 16's counter-example: pol rows expiring at 5,
// 9 and 7, one el row that uncovers uid 1 at 3, an aggregate view and a
// non-patched difference view over them.
func windowSession(t *testing.T) *Session {
	t.Helper()
	s := NewSession(engine.New(), nil)
	if _, err := s.ExecScript(`
		CREATE TABLE pol (uid INT, deg INT);
		CREATE TABLE el  (uid INT, deg INT);
		INSERT INTO pol VALUES (1, 25) EXPIRES AT 5;
		INSERT INTO pol VALUES (2, 25) EXPIRES AT 9;
		INSERT INTO pol VALUES (3, 35) EXPIRES AT 7;
		INSERT INTO el VALUES (1, 75) EXPIRES AT 3;
		CREATE VIEW hist AS SELECT deg, COUNT(*) FROM pol GROUP BY deg;
		CREATE VIEW onlypol AS SELECT uid FROM pol EXCEPT SELECT uid FROM el;
	`); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestViewReadCarriesTheViewsWindow fails at the parent commit: a SELECT
// over a view was stamped [now, ∞) because the snapshot is a Base leaf.
func TestViewReadCarriesTheViewsWindow(t *testing.T) {
	for _, tc := range []struct {
		view, query, filtered string
		until                 xtime.Time
	}{
		{"hist", "SELECT deg, COUNT(*) FROM pol GROUP BY deg", "SELECT * FROM hist WHERE deg >= 0", 5},
		{"onlypol", "SELECT uid FROM pol EXCEPT SELECT uid FROM el", "SELECT uid FROM onlypol WHERE uid > 0", 3},
	} {
		t.Run(tc.view, func(t *testing.T) {
			s := windowSession(t)
			_, info, err := s.eng.ReadView(tc.view)
			if err != nil {
				t.Fatal(err)
			}
			if info.Validity.At != 0 || info.Validity.ValidUntil != tc.until {
				t.Fatalf("ReadView stamps %v, want [0, %v)", info.Validity, tc.until)
			}
			bare := mustExec(t, s, "SELECT * FROM "+tc.view)
			if bare.Validity != info.Validity || bare.At != info.At {
				t.Fatalf("SELECT * stamps %v at %v, ReadView %v at %v", bare.Validity, bare.At, info.Validity, info.At)
			}
			if direct := mustExec(t, s, tc.query); direct.Validity.ValidUntil != tc.until {
				t.Fatalf("direct query valid until %v, want %v", direct.Validity.ValidUntil, tc.until)
			}
			// Any other query over the view: min(texp(e), the view's window).
			if f := mustExec(t, s, tc.filtered); f.Validity.ValidUntil != tc.until {
				t.Fatalf("filtered view read valid until %v, want %v", f.Validity.ValidUntil, tc.until)
			}
			// The stamp is true up to its last instant…
			mustExec(t, s, "ADVANCE TO "+(tc.until-1).String())
			last, fresh := mustExec(t, s, "SELECT * FROM "+tc.view), mustExec(t, s, tc.query)
			if !last.Rel.SameTuplesAt(fresh.Rel, last.At) {
				t.Fatalf("at Until-1 the view reads\n%swant\n%s", last.Rel.Render(last.At), fresh.Rel.Render(fresh.At))
			}
			if last.Validity != info.Validity {
				t.Fatalf("window moved without a recompute: %v", last.Validity)
			}
			// …and at Until the view recomputes and a new window opens there.
			mustExec(t, s, "ADVANCE TO "+tc.until.String())
			next, fresh := mustExec(t, s, "SELECT * FROM "+tc.view), mustExec(t, s, tc.query)
			if next.Validity.At != tc.until || next.Validity.ValidUntil != fresh.Validity.ValidUntil {
				t.Fatalf("at Until: stamped %v, fresh evaluation %v", next.Validity, fresh.Validity)
			}
			if !next.Rel.EqualAt(fresh.Rel, next.At) {
				t.Fatalf("at Until the view reads\n%swant\n%s", next.Rel.Render(next.At), fresh.Rel.Render(fresh.At))
			}
		})
	}
}

// TestMovedViewReadAnswersAtTheMovedInstant: for recovery=backward|forward
// views the SQL read reports the instant ReadView reports, and Rows() are
// the rows alive then.
func TestMovedViewReadAnswersAtTheMovedInstant(t *testing.T) {
	for _, recovery := range []string{"backward", "forward"} {
		t.Run(recovery, func(t *testing.T) {
			s := newSession(t) // Figure 1: the difference is invalid on [3, 15)
			mustExec(t, s, "CREATE VIEW vi WITH (mode=interval, recovery="+recovery+
				") AS SELECT uid FROM pol EXCEPT SELECT uid FROM el")
			mustExec(t, s, "ADVANCE TO 4")
			res := mustExec(t, s, "SELECT * FROM vi")
			_, info, err := s.eng.ReadView("vi")
			if err != nil {
				t.Fatal(err)
			}
			if info.At == 4 {
				t.Fatalf("the read at 4 was not moved: %+v", info)
			}
			if res.At != info.At {
				t.Fatalf("Result.At = %v, ReadView moved the read to %v", res.At, info.At)
			}
			if got, want := len(res.Rows()), res.Rel.CountAt(info.At); got != want {
				t.Fatalf("%d rows, %d alive at the moved instant", got, want)
			}
		})
	}
}

// TestComputedReadOverAnIntervalView: a query that computes over a moved
// view is refused — its rows would be the moved instant's under the current
// tick's stamp — and one over a view answering from a later stretch of its
// validity set is stamped with that stretch. No window is ever inverted.
func TestComputedReadOverAnIntervalView(t *testing.T) {
	for _, recovery := range []string{"backward", "forward"} {
		s := newSession(t) // Figure 1: the difference is invalid on [3, 15)
		mustExec(t, s, "CREATE VIEW vi WITH (mode=interval, recovery="+recovery+
			") AS SELECT uid FROM pol EXCEPT SELECT uid FROM el")
		const filtered = "SELECT uid FROM vi WHERE uid > 0"
		for tick := xtime.Time(0); tick < 18; tick++ {
			mustExec(t, s, "ADVANCE TO "+tick.String())
			bare := mustExec(t, s, "SELECT * FROM vi")
			if !bare.Validity.Contains(bare.At) {
				t.Fatalf("%s, tick %v: bare read at %v stamped %v", recovery, tick, bare.At, bare.Validity)
			}
			res, err := s.Exec(filtered)
			if bare.At != tick {
				if err == nil {
					t.Fatalf("%s, tick %v: computed over a view moved to %v: at %v, %v", recovery, tick, bare.At, res.At, res.Validity)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			fresh := mustExec(t, s, "SELECT uid FROM pol WHERE uid > 0 EXCEPT SELECT uid FROM el")
			if res.At != tick || !res.Validity.Contains(tick) || res.Validity.ValidUntil != bare.Validity.ValidUntil ||
				!res.Rel.EqualAt(fresh.Rel, tick) {
				t.Fatalf("%s, tick %v: at %v, %v (view %v)\n%swant\n%s", recovery, tick, res.At, res.Validity,
					bare.Validity, res.Rel.Render(tick), fresh.Rel.Render(tick))
			}
			if ex := mustExec(t, s, "EXPLAIN "+filtered).Msg; !strings.Contains(ex, "validity:  {"+res.Validity.String()+"}") {
				t.Fatalf("%s, tick %v: Exec stamps %v, EXPLAIN prints\n%s", recovery, tick, res.Validity, ex)
			}
		}
	}
}

// TestViewStoresThePhysicalPlan: a view over an indexed table recomputes
// through the index, keeps answering right once the index is dropped (the
// probe degrades to the scan it replaced), and WITH (patching) still tells
// a root difference from everything else when the children are physical.
func TestViewStoresThePhysicalPlan(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE INDEX pol_deg ON pol (deg)")
	mustExec(t, s, "CREATE INDEX el_uid ON el (uid)")
	const def = "SELECT uid FROM pol WHERE deg = 25 EXCEPT SELECT uid FROM el WHERE uid = 2"
	mustExec(t, s, "CREATE VIEW d WITH (patching) AS "+def)
	mustExec(t, s, "CREATE VIEW r AS "+def)
	for _, name := range []string{"d", "r"} {
		v, err := s.eng.Catalog().View(name)
		if err != nil {
			t.Fatal(err)
		}
		plan := v.Expr().String()
		if !strings.Contains(plan, "ixscan[pol_deg") || !strings.Contains(plan, "ixscan[el_uid") {
			t.Fatalf("view %s does not recompute through the indexes: %s", name, plan)
		}
		if _, ok := v.Expr().(*algebra.Diff); !ok {
			t.Fatalf("the optimiser turned a root difference into %T", v.Expr())
		}
	}
	if show := mustExec(t, s, "SHOW VIEWS").Msg; !strings.Contains(show, "ixscan[pol_deg") {
		t.Fatalf("SHOW VIEWS hides the stored plan:\n%s", show)
	}
	if _, err := s.Exec("CREATE VIEW bad WITH (patching) AS SELECT uid FROM pol WHERE deg = 25"); err == nil {
		t.Fatal("patching accepted for an index probe at the root")
	}
	if _, err := s.Exec("CREATE VIEW bad WITH (patching) AS SELECT uid FROM pol WHERE deg = 25 UNION SELECT uid FROM el"); err == nil {
		t.Fatal("patching accepted for a union at the root")
	}

	check := func(when string) {
		t.Helper()
		fresh := mustExec(t, s, def)
		for _, name := range []string{"d", "r"} {
			got := mustExec(t, s, "SELECT * FROM "+name)
			if !got.Rel.EqualAt(fresh.Rel, got.At) {
				t.Fatalf("%s: view %s reads\n%swant\n%s", when, name, got.Rel.Render(got.At), fresh.Rel.Render(fresh.At))
			}
		}
	}
	check("indexed")
	mustExec(t, s, "ADVANCE TO 3") // uid 2 leaves el: r invalidates, d is patched
	check("indexed, after the critical tuple")
	mustExec(t, s, "DROP INDEX pol_deg")
	mustExec(t, s, "DROP INDEX el_uid")
	mustExec(t, s, "INSERT INTO el VALUES (2, 1) EXPIRES AT 6")
	mustExec(t, s, "REFRESH VIEW d")
	mustExec(t, s, "REFRESH VIEW r")
	check("indexes dropped, refreshed")
	mustExec(t, s, "ADVANCE TO 6") // uid 2 reappears: recompute r through the degraded plan
	check("indexes dropped, recomputed")
	v, _ := s.eng.Catalog().View("r")
	if v.Stats().Recomputations == 0 {
		t.Fatal("view r never recomputed: the stored plan was not exercised")
	}
	// The names come back over another column, then as another kind: the
	// stored probes must not run against either.
	for _, ddl := range []string{
		"CREATE INDEX pol_deg ON pol (uid); CREATE INDEX el_uid ON el (deg)",
		"DROP INDEX pol_deg; DROP INDEX el_uid; CREATE INDEX pol_deg ON pol (deg) USING ORDERED; CREATE INDEX el_uid ON el (uid) USING ORDERED",
	} {
		if _, err := s.ExecScript(ddl); err != nil {
			t.Fatal(err)
		}
		mustExec(t, s, "INSERT INTO pol VALUES (25, 1)")
		mustExec(t, s, "REFRESH VIEW d")
		mustExec(t, s, "REFRESH VIEW r")
		check("index names reused: " + ddl)
	}
}

// TestPlanIsWhatEveryStatementRuns pins the pipeline's outputs on one
// statement: the logical tree is as written, the key is its canonical
// form and names no index, the physical tree probes one.
func TestPlanIsWhatEveryStatementRuns(t *testing.T) {
	s := newSession(t)
	stmt, err := Parse("SELECT uid FROM pol WHERE uid = 2 ORDER BY uid")
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "CREATE INDEX pol_uid ON pol (uid)")
	after, err := s.Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if before.Key != after.Key || after.Key != algebra.PushDownSelections(after.Logical).String() {
		t.Fatalf("key %q without the index, %q with it", before.Key, after.Key)
	}
	if strings.Contains(after.Key, "ixscan") || !strings.Contains(after.Physical.String(), "ixscan[pol_uid") {
		t.Fatalf("key %q, physical %s", after.Key, after.Physical)
	}
	if len(after.Choices) == 0 || after.Until != xtime.Infinity {
		t.Fatalf("choices %v, until %v", after.Choices, after.Until)
	}
	if _, err := s.Plan(&Show{What: "TABLES"}); err == nil {
		t.Fatal("planned a statement that is neither SELECT nor DELETE")
	}
}
