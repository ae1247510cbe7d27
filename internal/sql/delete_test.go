package sql

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"expdb/internal/relation"
	"expdb/internal/xtime"
)

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
