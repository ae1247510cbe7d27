package sql

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"expdb/internal/algebra"
	"expdb/internal/engine"
	"expdb/internal/interval"
	"expdb/internal/relation"
	"expdb/internal/relation/reltest"
	"expdb/internal/view"
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

// TestViewReadCarriesTheViewsWindow: a SELECT over a view carries the view's
// window, not the [now, ∞) of the Base leaf its snapshot is — and the window
// of a view that keeps its future ends at its next birth, where the next
// begins.
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
			if !reltest.SameTuplesAt(last.Rel, fresh.Rel, last.At) {
				t.Fatalf("at Until-1 the view reads\n%swant\n%s", last.Rel.Render(last.At), fresh.Rel.Render(fresh.At))
			}
			if last.Validity != info.Validity {
				t.Fatalf("window moved without a recompute: %v", last.Validity)
			}
			// …and at Until the view shows the row it kept for that instant —
			// no recomputation — and a new window opens there.
			mustExec(t, s, "ADVANCE TO "+tc.until.String())
			next, fresh := mustExec(t, s, "SELECT * FROM "+tc.view), mustExec(t, s, tc.query)
			if next.Validity.At != tc.until || next.Validity.ValidUntil != fresh.Validity.ValidUntil {
				t.Fatalf("at Until: stamped %v, fresh evaluation %v", next.Validity, fresh.Validity)
			}
			if !reltest.EqualAt(next.Rel, fresh.Rel, next.At) {
				t.Fatalf("at Until the view reads\n%swant\n%s", next.Rel.Render(next.At), fresh.Rel.Render(fresh.At))
			}
			if v, _ := s.eng.Catalog().View(tc.view); v.Stats().Recomputations != 0 || v.Stats().PatchesApplied != 1 {
				t.Fatalf("the view did not get there by its stored future: %+v", v.Stats())
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
				!reltest.EqualAt(res.Rel, fresh.Rel, tick) {
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
// a root that has a future from everything else when the children are
// physical. r spells out the bare materialisation: without a WITH clause it
// would keep its future like d and never exercise the stored plan again.
func TestViewStoresThePhysicalPlan(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE INDEX pol_deg ON pol (deg)")
	mustExec(t, s, "CREATE INDEX el_uid ON el (uid)")
	const def = "SELECT uid FROM pol WHERE deg = 25 EXCEPT SELECT uid FROM el WHERE uid = 2"
	mustExec(t, s, "CREATE VIEW d WITH (patching) AS "+def)
	mustExec(t, s, "CREATE VIEW r WITH (mode=texp) AS "+def)
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
			if !reltest.EqualAt(got.Rel, fresh.Rel, got.At) {
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

// TestOrderBySortsItsOwnCopy: a view and a cached result remember their
// tuple order and every reader of either filters the same sorted slice.
// ORDER BY sorts in place — it must be sorting a copy, or the next plain
// read would come back in the previous statement's order.
func TestOrderBySortsItsOwnCopy(t *testing.T) {
	s := NewSession(engine.New(), nil)
	mustExec(t, s, "CREATE TABLE pol (uid INT, deg INT)")
	for uid := 0; uid < 50; uid++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO pol VALUES (%d, %d) EXPIRES AT %d", (uid*37)%50, uid%7, 20+uid%9))
	}
	mustExec(t, s, "CREATE VIEW v AS SELECT uid, deg FROM pol")
	uids := func(rows []relation.Row) []int64 {
		out := make([]int64, len(rows))
		for i, row := range rows {
			out[i] = row.Tuple[0].AsInt()
		}
		return out
	}
	for _, from := range []string{"v", "pol"} { // a view's snapshot; a cached result
		plain := "SELECT * FROM " + from
		warm := mustExec(t, s, plain) // fills the cache for pol
		want := uids(warm.Rows())
		if len(want) != 50 || !slices.IsSorted(want) {
			t.Fatalf("%s: plain read is not in tuple order: %v", from, want)
		}
		desc := mustExec(t, s, plain+" ORDER BY uid DESC")
		if from == "pol" && !desc.Cached {
			t.Fatal("the ORDER BY statement did not reuse the cached result")
		}
		got := uids(desc.Rows())
		slices.Reverse(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: ORDER BY uid DESC returned %v", from, uids(desc.Rows()))
		}
		after := mustExec(t, s, plain)
		mustExec(t, s, plain+" ORDER BY deg DESC LIMIT 5") // scribbles once more
		for _, res := range []*Result{after, warm, mustExec(t, s, plain)} {
			if got := uids(res.Rows()); !slices.Equal(got, want) {
				t.Fatalf("%s: plain read after an ORDER BY returned %v", from, got)
			}
		}
	}
}

// TestPlanOutlivedByItsView: a plan over a view holds the snapshot one read
// of the view returned, good until Plan.Until. When an ADVANCE lands
// between Plan and Query, the parent commit evaluated the stale snapshot at
// the new tick and stamped it [t, t[. Query now reports the plan expired;
// planning again reads the view's new answer. The view's own leaf still
// answers for the instant it was read at.
func TestPlanOutlivedByItsView(t *testing.T) {
	s := windowSession(t)
	computed, err := Parse("SELECT deg FROM hist WHERE deg >= 0")
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Plan(computed)
	if err != nil || p.Until != 5 {
		t.Fatalf("plan until %v, err %v; want 5", p.Until, err)
	}
	if err := s.eng.Advance(5); err != nil {
		t.Fatal(err)
	}
	if qr, err := s.Query(&p); !errors.Is(err, view.ErrInvalid) || !strings.Contains(err.Error(), "plan expired") {
		t.Fatalf("a plan valid until 5 ran at 5: result %+v, err %v", qr, err)
	}
	for _, explain := range []func(*Plan) (*Result, error){s.explain, s.execExplainAnalyze} {
		if res, err := explain(&p); !errors.Is(err, view.ErrInvalid) {
			t.Fatalf("EXPLAIN of an expired plan: %v, err %v", res, err)
		}
	}
	p, err = s.Plan(computed)
	if err != nil {
		t.Fatal(err)
	}
	qr, err := s.Query(&p)
	if err != nil {
		t.Fatal(err)
	}
	// Two groups of one row each are left: the counts no longer change.
	if want := (interval.Validity{At: 5, ValidUntil: xtime.Infinity}); qr.At != 5 || qr.Validity != want || qr.Rel.CountAt(qr.At) != 2 {
		t.Fatalf("re-planned: %d rows at %v, valid %v; want 2 rows at 5, valid %v", qr.Rel.CountAt(qr.At), qr.At, qr.Validity, want)
	}

	bare, err := Parse("SELECT * FROM hist")
	if err != nil {
		t.Fatal(err)
	}
	if p, err = s.Plan(bare); err != nil {
		t.Fatal(err)
	}
	if err := s.eng.Advance(7); err != nil {
		t.Fatal(err)
	}
	if qr, err = s.Query(&p); err != nil || qr.At != 5 || !qr.Validity.Contains(qr.At) {
		t.Fatalf("the view's own leaf: at %v, valid %v, err %v; want the read at 5 under its own window", qr.At, qr.Validity, err)
	}
}

// TestExpiredPlansAreMadeAgain drives the loop Exec and EXPLAIN run their
// plans through, with the concurrent ADVANCE played by the callback: one
// expiry costs one more plan, and a clock that outruns every plan is
// reported after three.
func TestExpiredPlansAreMadeAgain(t *testing.T) {
	// Eight rows in one group, one expiring per tick: the count changes at
	// every tick, so the view's windows are [0,1[, [1,2[, … [6,7[, [7,∞[.
	s := NewSession(engine.New(), nil)
	mustExec(t, s, "CREATE TABLE pol (uid INT, deg INT)")
	for uid := 1; uid <= 8; uid++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO pol VALUES (%d, 25) EXPIRES AT %d", uid, uid))
	}
	mustExec(t, s, "CREATE VIEW hist AS SELECT deg, COUNT(*) FROM pol GROUP BY deg")
	stmt, err := Parse("SELECT deg FROM hist WHERE deg >= 0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		plans int
		qr    engine.QueryResult
	)
	outrun := func(times int) error {
		plans = 0
		return s.PlanAndRun(stmt, func(p Plan) (err error) {
			if plans++; plans <= times {
				if err := s.eng.Advance(p.Until); err != nil {
					t.Fatal(err)
				}
			}
			qr, err = s.Query(&p)
			return err
		})
	}
	if err := outrun(1); err != nil || plans != 2 || qr.At != 1 || qr.Validity.ValidUntil != 2 {
		t.Fatalf("one expiry: %d plans, at %v valid %v, err %v; want 2 plans, at 1 until 2", plans, qr.At, qr.Validity, err)
	}
	if err := outrun(2); err != nil || plans != 3 || qr.At != 3 || qr.Validity.ValidUntil != 4 {
		t.Fatalf("two expiries: %d plans, at %v valid %v, err %v; want 3 plans, at 3 until 4", plans, qr.At, qr.Validity, err)
	}
	if err := outrun(planAttempts); !errors.Is(err, view.ErrInvalid) || plans != planAttempts {
		t.Fatalf("a clock that outruns every plan: %d plans, err %v", plans, err)
	}
	if res := mustExec(t, s, "SELECT deg FROM hist WHERE deg >= 0"); res.At != 6 || res.Validity.ValidUntil != 7 {
		t.Fatalf("the statement after: at %v valid %v, want at 6 until 7", res.At, res.Validity)
	}
}

// TestNoReadOverAViewIsStampedEmpty: sessions read through a view whose
// window ends at every tick while the clock advances under them. Whatever
// the interleaving, no answer may be stamped with a window that does not
// hold its own instant. Run under -race.
func TestNoReadOverAViewIsStampedEmpty(t *testing.T) {
	eng := engine.New()
	s := NewSession(eng, nil)
	mustExec(t, s, "CREATE TABLE pol (uid INT, deg INT)")
	const ticks = 120
	for uid := 0; uid < 2*ticks; uid++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO pol VALUES (%d, %d) EXPIRES AT %d", uid, uid%4, 1+uid%ticks))
	}
	mustExec(t, s, "CREATE VIEW hist AS SELECT deg, COUNT(*) FROM pol GROUP BY deg")

	var (
		reads atomic.Int64
		done  atomic.Bool
		wg    sync.WaitGroup
	)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := NewSession(eng, nil)
			for i := 0; !done.Load(); i++ {
				q := "SELECT deg FROM hist WHERE deg >= 0"
				if (i+r)%4 == 0 {
					q = "EXPLAIN ANALYZE " + q
				}
				res, err := sess.Exec(q)
				reads.Add(1)
				switch {
				case errors.Is(err, view.ErrInvalid): // outrun three times in a row: reported, not mis-stamped
				case err != nil:
					t.Errorf("%s: %v", q, err)
					return
				case res.Validity != (interval.Validity{}) && !res.Validity.Contains(res.At):
					t.Errorf("%s: answer at %v stamped %v", q, res.At, res.Validity)
					return
				}
			}
		}()
	}
	for tick := xtime.Time(1); tick <= ticks; tick++ {
		if err := eng.Advance(tick); err != nil {
			t.Error(err)
			break
		}
		for target := reads.Load() + 4; reads.Load() < target && !t.Failed(); {
			runtime.Gosched()
		}
	}
	done.Store(true)
	wg.Wait()
}
