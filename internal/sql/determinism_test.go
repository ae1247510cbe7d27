package sql

import (
	"fmt"
	"math"
	"testing"

	"expdb/internal/engine"
)

// TestFloatSumIsAFunctionOfTheData: a float SUM / AVG adds its partition up
// in one canonical order, not in the iteration order of the table's row map,
// so the same statement at the same tick with no writes in between returns
// the same bits every time — what a validity window promises — and a view
// equals its own recomputation. The six values sum to anything from 0.0 to
// 2.1 depending on where the ±1e16 pair falls among the additions.
func TestFloatSumIsAFunctionOfTheData(t *testing.T) {
	s := NewSession(engine.New(engine.WithResultCache(0)), nil)
	mustExec(t, s, "CREATE TABLE m (k INT, x FLOAT)")
	for i, x := range []string{"0.1", "0.2", "0.3", "0.7", "10000000000000000.0", "-10000000000000000.0"} {
		mustExec(t, s, fmt.Sprintf("INSERT INTO m VALUES (%d, %s)", i, x))
	}
	bits := func(q string, col int) uint64 {
		t.Helper()
		rows := mustExec(t, s, q).Rows()
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows", q, len(rows))
		}
		return math.Float64bits(rows[0].Tuple[col].AsFloat())
	}
	mustExec(t, s, "CREATE MATERIALIZED VIEW v AS SELECT SUM(x), AVG(x) FROM m")
	for col, q := range []string{"SELECT SUM(x) FROM m", "SELECT AVG(x) FROM m"} {
		want := bits(q, 0)
		for i := 0; i < 200; i++ {
			if got := bits(q, 0); got != want {
				t.Fatalf("%s: evaluation %d returned %v, the first one %v",
					q, i, math.Float64frombits(got), math.Float64frombits(want))
			}
		}
		if got := bits("SELECT * FROM v", col); got != want {
			t.Fatalf("%s: the view holds %v, the statement returns %v",
				q, math.Float64frombits(got), math.Float64frombits(want))
		}
		mustExec(t, s, "REFRESH VIEW v")
		if got := bits("SELECT * FROM v", col); got != want {
			t.Fatalf("%s: the recomputed view holds %v, the statement returns %v",
				q, math.Float64frombits(got), math.Float64frombits(want))
		}
	}
}
