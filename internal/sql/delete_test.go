package sql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"expdb/internal/algebra"
	"expdb/internal/engine"
	"expdb/internal/relation"
	"expdb/internal/xtime"
)

// deleteMatrix builds one engine per cell of {no index, hash, ordered} ×
// {eager, lazy}. The lazy period is far beyond the test's horizon, so
// every expired row stays in the table as an unswept corpse.
func deleteMatrix(t *testing.T) (names []string, cells []*Session) {
	t.Helper()
	indexes := map[string][]string{
		"scan":    nil,
		"hash":    {"CREATE INDEX ev_k ON ev (k)"},
		"ordered": {"CREATE INDEX ev_k ON ev (k) USING ORDERED", "CREATE INDEX ev_v ON ev (v) USING ORDERED"},
	}
	for _, ix := range []string{"scan", "hash", "ordered"} {
		for _, sweep := range []string{"eager", "lazy"} {
			var opts []engine.Option
			if sweep == "lazy" {
				opts = append(opts, engine.WithSweep(engine.SweepLazy, 1<<20))
			}
			s := NewSession(engine.New(opts...), nil)
			mustExec(t, s, "CREATE TABLE ev (k INT, v INT, c INT)")
			for _, ddl := range indexes[ix] {
				mustExec(t, s, ddl)
			}
			names = append(names, ix+"/"+sweep)
			cells = append(cells, s)
		}
	}
	return names, cells
}

// TestDeleteEquivalenceProperty replays one seeded stream of inserts,
// DELETEs and clock advances against every cell of the matrix. Whatever
// access path the planner picks and whether or not expired corpses are
// lying around, DELETE … WHERE must remove the same victims: the same
// count printed, byte-identical visible rows and expiration times
// afterwards, the same result-cache entries invalidated — and a row with
// texp ≤ now is never counted, so the deletes counters agree and every
// corpse still fires its trigger when finally swept.
func TestDeleteEquivalenceProperty(t *testing.T) {
	watched := []string{
		"SELECT * FROM ev WHERE k = 3",
		"SELECT * FROM ev WHERE v >= 20 AND v < 60",
		"SELECT k, c FROM ev WHERE c > 60",
	}
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			names, cells := deleteMatrix(t)
			now, probed := 0, 0
			for step := 0; step < 120; step++ {
				var op string
				switch n := r.Intn(10); {
				case n < 5:
					// c = step keeps tuples distinct: re-inserting an unswept
					// corpse would revive it under lazy sweeping only.
					op = fmt.Sprintf("INSERT INTO ev VALUES (%d, %d, %d) EXPIRES AT %d",
						r.Intn(12), r.Intn(100), step, now+1+r.Intn(12))
				case n < 6:
					op = fmt.Sprintf("INSERT INTO ev VALUES (%d, %d, %d)", r.Intn(12), r.Intn(100), step)
				case n < 8:
					now += 1 + r.Intn(3)
					op = fmt.Sprintf("ADVANCE TO %d", now)
				default:
					lo := r.Intn(90)
					op = []string{
						fmt.Sprintf("DELETE FROM ev WHERE k = %d", r.Intn(12)),
						fmt.Sprintf("DELETE FROM ev WHERE v >= %d AND v < %d", lo, lo+1+r.Intn(25)),
						fmt.Sprintf("DELETE FROM ev WHERE k = %d AND c > %d", r.Intn(12), r.Intn(step+1)),
						fmt.Sprintf("DELETE FROM ev WHERE c <> %d", r.Intn(step+1)),
						"DELETE FROM ev",
					}[r.Intn(9)%5]
				}
				isDelete := strings.HasPrefix(op, "DELETE")
				var ref string
				for i, s := range cells {
					if isDelete {
						// Warm the cache so the DELETE has entries to invalidate.
						for _, q := range watched {
							mustExec(t, s, q)
						}
						stmt, err := Parse(op)
						if err != nil {
							t.Fatal(err)
						}
						plan, err := s.Plan(stmt)
						if err != nil {
							t.Fatal(err)
						}
						if _, ok := plan.Physical.(*algebra.IndexScan); ok {
							probed++
						}
					}
					got := mustExec(t, s, op).Msg
					if isDelete {
						for _, q := range watched {
							got += fmt.Sprintf("|cached=%v", mustExec(t, s, q).Cached)
						}
					}
					all := mustExec(t, s, "SELECT * FROM ev")
					for _, row := range all.Rel.RowsSorted(all.At) {
						if row.Texp <= all.At {
							t.Fatalf("step %d %s: expired row %s visible at %s", step, names[i], row.Tuple, all.At)
						}
					}
					got += "\n" + all.Rel.Render(all.At)
					got += fmt.Sprintf("deletes=%d", s.eng.Metrics().Deletes)
					if i == 0 {
						ref = got
					} else if got != ref {
						t.Fatalf("step %d, %q: %s diverges from %s\n%s\n--- want ---\n%s", step, op, names[i], names[0], got, ref)
					}
				}
			}
			if probed == 0 {
				t.Fatal("no DELETE was planned as an index probe")
			}
			// Every finite row that was not deleted expires exactly once,
			// corpses included.
			var expired int64
			for i, s := range cells {
				mustExec(t, s, fmt.Sprintf("ADVANCE TO %d", 1<<21))
				if got := s.eng.Metrics().TuplesExpired; i == 0 {
					expired = got
				} else if got != expired {
					t.Fatalf("%s expired %d tuples in all, %s %d", names[i], got, names[0], expired)
				}
			}
		})
	}
}

// TestDeleteSlowQuerySpans: DELETE carries the same plan/execute child
// spans SELECT does, so the slow-query log attributes its time.
func TestDeleteSlowQuerySpans(t *testing.T) {
	s := newSession(t)
	s.eng.SetSlowQueryThreshold(time.Nanosecond)
	del := mustExec(t, s, "DELETE FROM pol WHERE deg = 25")
	if del.Msg != "2 tuple(s) deleted from pol" {
		t.Fatalf("DELETE: %s", del.Msg)
	}
	res := mustExec(t, s, "SHOW TRACES")
	for _, want := range []string{"trace " + del.TraceID.String(), "DELETE FROM pol WHERE deg = 25", "delete", "plan", "execute"} {
		if !strings.Contains(res.Msg, want) {
			t.Fatalf("SHOW TRACES missing %q:\n%s", want, res.Msg)
		}
	}
}

// TestDeleteFromExpireTrigger: triggers run outside every engine lock, so
// an ON EXPIRE handler may issue DELETEs — against another table and
// against the one that is expiring.
func TestDeleteFromExpireTrigger(t *testing.T) {
	s := newSession(t)
	handler := NewSession(s.eng, nil)
	var errs []error
	if err := s.eng.OnExpire("el", func(_ string, row relation.Row, _ xtime.Time) {
		// When a user's el row expires, drop their pol row and every other
		// el row.
		for _, q := range []string{
			fmt.Sprintf("DELETE FROM pol WHERE uid = %d", row.Tuple[0].AsInt()),
			"DELETE FROM el",
		} {
			if _, err := handler.Exec(q); err != nil {
				errs = append(errs, err)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "ADVANCE TO 3") // el (4, 90) and el (2, 85) expire in one batch
	if len(errs) > 0 {
		t.Fatalf("DELETE inside a trigger: %v", errs)
	}
	if n := mustExec(t, s, "SELECT * FROM el").Rel.CountAt(3); n != 0 {
		t.Fatalf("el keeps %d rows after the trigger's DELETE", n)
	}
	if got := mustExec(t, s, "SELECT uid FROM pol").Rel.Render(3); strings.Contains(got, " 2\n") || !strings.Contains(got, " 1\n") {
		t.Fatalf("pol after the trigger's DELETE of uid 2:\n%s", got)
	}
	mustExec(t, s, "ADVANCE TO 6") // el (1, 75) was deleted: nothing left to expire
	if got := s.eng.Metrics().TriggersFired; got != 2 {
		t.Fatalf("triggers fired = %d, want 2", got)
	}
}
