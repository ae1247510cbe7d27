package sql

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"expdb/internal/engine"
	"expdb/internal/trace"
	"expdb/internal/xtime"
)

func TestExplainAnalyzeActuals(t *testing.T) {
	s := newSession(t)
	res := mustExec(t, s, "EXPLAIN ANALYZE SELECT uid FROM pol EXCEPT SELECT uid FROM el")
	for _, want := range []string{
		"plan:",
		"as-of:     t=0 (execution snapshot",
		"texp(e):   3 (plan = actual)",
		"actual:    1 row(s), wall ",
		"(actual: rows in=3 out=3, expired-filtered=0, wall=",
		"−  [non-monotonic, texp(e)=3] (actual: rows in=6 out=1",
		"base(pol)",
		"base(el)",
	} {
		if !strings.Contains(res.Msg, want) {
			t.Fatalf("EXPLAIN ANALYZE missing %q:\n%s", want, res.Msg)
		}
	}
	if res.TraceID == 0 {
		t.Fatal("EXPLAIN ANALYZE result carries no trace ID")
	}
	if !strings.Contains(res.Msg, "trace "+res.TraceID.String()) {
		t.Fatalf("rendered trace ID does not match Result.TraceID %s:\n%s", res.TraceID, res.Msg)
	}
	// The relation is the real answer, not just a rendering.
	if res.Rel == nil || res.Rel.CountAt(res.At) != 1 {
		t.Fatalf("EXPLAIN ANALYZE should return the executed result (1 row)")
	}
}

// TestExplainAnalyzeCounts: ANALYZE runs the algorithm a SELECT runs — a
// GROUP BY aggregation streams one row per partition into its projection —
// and every node counts the deduplicated rows it produced, not the rows it
// emitted.
func TestExplainAnalyzeCounts(t *testing.T) {
	s := newSession(t)
	for q, want := range map[string][]string{
		"SELECT deg, COUNT(*) FROM pol GROUP BY deg": {
			"\nπ[2,3]  [non-monotonic, texp(e)=10] (actual: rows in=2 out=2, expired-filtered=0, wall=",
			"\n└─ agg[{2};count(*)]  [non-monotonic, texp(e)=10, policy=exact] (actual: rows in=3 out=2, expired-filtered=0, wall=",
			"\n   └─ base(pol)  [monotonic, texp(e)=inf] (actual: rows in=3 out=3, expired-filtered=0, wall=",
		},
		"SELECT deg FROM pol": {"\nπ[2]  [monotonic, texp(e)=inf] (actual: rows in=3 out=2, expired-filtered=0, wall="},
		"SELECT uid FROM pol UNION SELECT uid FROM el": {
			"\n∪  [monotonic, texp(e)=inf] (actual: rows in=6 out=4, expired-filtered=0, wall=",
		},
	} {
		res := mustExec(t, s, "EXPLAIN ANALYZE "+q)
		for _, line := range want {
			if !strings.Contains(res.Msg, line) {
				t.Errorf("EXPLAIN ANALYZE %s missing %q:\n%s", q, line, res.Msg)
			}
		}
	}
}

// TestExplainAnalyzeExpiredFiltered: under lazy sweeping, dead tuples
// linger physically; EXPLAIN ANALYZE must report them as
// expired-filtered at the base scan while keeping them invisible to the
// answer (the paper's transparency property).
func TestExplainAnalyzeExpiredFiltered(t *testing.T) {
	s := NewSession(engine.New(engine.WithSweep(engine.SweepLazy, 100)), nil)
	if _, err := s.ExecScript(`
		CREATE TABLE pol (uid INT, deg INT);
		INSERT INTO pol VALUES (1, 25) EXPIRES AT 2;
		INSERT INTO pol VALUES (2, 25) EXPIRES AT 3;
		INSERT INTO pol VALUES (3, 35) EXPIRES AT 90;
		ADVANCE TO 5;
	`); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, s, "EXPLAIN ANALYZE SELECT uid FROM pol")
	if !strings.Contains(res.Msg, "rows in=3 out=1, expired-filtered=2") {
		t.Fatalf("lazy corpses not reported at the base scan:\n%s", res.Msg)
	}
	if res.Rel.CountAt(res.At) != 1 {
		t.Fatalf("expired tuples leaked into the answer:\n%s", res.Rel.Render(res.At))
	}
}

// TestExplainAsOfLabel: plain EXPLAIN pins every derivation to one
// labelled snapshot (the fix for the stale-now drift between header and
// tree).
func TestExplainAsOfLabel(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "ADVANCE TO 4")
	res := mustExec(t, s, "EXPLAIN SELECT uid FROM pol")
	if !strings.Contains(res.Msg, "as-of:     t=4 (single snapshot; every derivation below uses this instant)") {
		t.Fatalf("EXPLAIN missing the as-of snapshot label:\n%s", res.Msg)
	}
}

func TestShowEvents(t *testing.T) {
	s := newSession(t)
	adv := mustExec(t, s, "ADVANCE TO 4")
	if adv.TraceID == 0 {
		t.Fatal("ADVANCE result carries no trace ID")
	}
	res := mustExec(t, s, "SHOW EVENTS")
	for _, want := range []string{"expiry", "el", "trace=" + adv.TraceID.String(), "count=2"} {
		if !strings.Contains(res.Msg, want) {
			t.Fatalf("SHOW EVENTS missing %q:\n%s", want, res.Msg)
		}
	}

	// LIMIT keeps only the newest n events.
	mustExec(t, s, "ADVANCE TO 11") // more expiries
	all := strings.Split(mustExec(t, s, "SHOW EVENTS").Msg, "\n")
	res = mustExec(t, s, "SHOW EVENTS LIMIT 1")
	lines := strings.Split(res.Msg, "\n")
	if len(lines) != 1 {
		t.Fatalf("SHOW EVENTS LIMIT 1 returned %d lines:\n%s", len(lines), res.Msg)
	}
	if lines[0] != all[len(all)-1] {
		t.Fatalf("LIMIT 1 should keep the newest event:\ngot  %s\nwant %s", lines[0], all[len(all)-1])
	}
}

func TestShowEventsEmpty(t *testing.T) {
	s := newSession(t)
	res := mustExec(t, s, "SHOW EVENTS")
	if !strings.Contains(res.Msg, "no lifecycle events recorded") {
		t.Fatalf("empty SHOW EVENTS message:\n%s", res.Msg)
	}
}

func TestShowTracesSlowQueryLog(t *testing.T) {
	s := newSession(t)
	// Off by default.
	res := mustExec(t, s, "SHOW TRACES")
	if !strings.Contains(res.Msg, "no slow-query traces recorded") {
		t.Fatalf("SHOW TRACES with log off:\n%s", res.Msg)
	}
	// A 1ns threshold traces everything.
	s.eng.SetSlowQueryThreshold(time.Nanosecond)
	sel := mustExec(t, s, "SELECT uid FROM pol EXCEPT SELECT uid FROM el")
	res = mustExec(t, s, "SHOW TRACES")
	for _, want := range []string{
		"trace " + sel.TraceID.String(),
		"SELECT uid FROM pol EXCEPT SELECT uid FROM el",
		"select",
		"plan",
		"execute",
	} {
		if !strings.Contains(res.Msg, want) {
			t.Fatalf("SHOW TRACES missing %q:\n%s", want, res.Msg)
		}
	}
	// Turning the log back off stops recording.
	s.eng.SetSlowQueryThreshold(0)
	before := s.eng.Traces().Stats().Total
	mustExec(t, s, "SELECT * FROM pol")
	if got := s.eng.Traces().Stats().Total; got != before {
		t.Fatalf("traces recorded with log off: %d -> %d", before, got)
	}
}

// slowTrace is the slow-query trace of the statement id; s's engine logs
// every statement.
func slowTrace(t *testing.T, s *Session, id trace.ID) *trace.Span {
	t.Helper()
	for _, tr := range s.eng.Traces().Snapshot(0) {
		if tr.ID == id {
			return tr.Root
		}
	}
	t.Fatalf("no slow-query trace %s", id)
	return nil
}

// spanNamed is the first span called name in the tree under sp, nil if none.
func spanNamed(sp *trace.Span, name string) *trace.Span {
	if sp.Name == name {
		return sp
	}
	for _, c := range sp.Children {
		if found := spanNamed(c, name); found != nil {
			return found
		}
	}
	return nil
}

// TestTraceOptimizeSpanOnMiss: a read the result cache cannot answer makes
// its physical plan only when the engine is about to evaluate it, and the
// slow-query trace shows that step as its own span under execute.
func TestTraceOptimizeSpanOnMiss(t *testing.T) {
	s := newSession(t)
	s.eng.SetSlowQueryThreshold(time.Nanosecond)
	res := mustExec(t, s, "SELECT uid FROM pol WHERE deg = 25")
	if res.Cached {
		t.Fatal("the first read was served from the cache")
	}
	root := slowTrace(t, s, res.TraceID)
	exec := spanNamed(root, "execute")
	if exec == nil || len(exec.Children) != 1 || exec.Children[0].Name != "optimize" {
		t.Fatalf("no optimize span under execute:\n%s", root)
	}
	if opt := spanNamed(root, "optimize"); opt != exec.Children[0] {
		t.Fatalf("an optimize span outside execute:\n%s", root)
	}
}

// TestTraceNoOptimizeSpanOnHit: a read the result cache answers runs no
// optimiser, so its trace has no optimize span.
func TestTraceNoOptimizeSpanOnHit(t *testing.T) {
	s := newSession(t)
	s.eng.SetSlowQueryThreshold(time.Nanosecond)
	q := "SELECT uid FROM pol WHERE deg = 25"
	mustExec(t, s, q)
	res := mustExec(t, s, q)
	if !res.Cached {
		t.Fatal("the second read was not served from the cache")
	}
	root := slowTrace(t, s, res.TraceID)
	if spanNamed(root, "execute") == nil || spanNamed(root, "optimize") != nil {
		t.Fatalf("a cache hit's trace:\n%s", root)
	}
}

// TestViewReadEventAgreement: one authoritative ReadInfo feeds both the
// SELECT's trace ID and the lifecycle events, so SHOW EVENTS and the
// statement agree on source, patch count and trace.
func TestViewReadEventAgreement(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE VIEW onlypol WITH (patching) AS SELECT uid FROM pol EXCEPT SELECT uid FROM el")
	mustExec(t, s, "ADVANCE TO 6") // el fully expired: patches pending
	sel := mustExec(t, s, "SELECT * FROM onlypol")
	res := mustExec(t, s, "SHOW EVENTS")
	patchLine := ""
	for _, line := range strings.Split(res.Msg, "\n") {
		if strings.Contains(line, "view-patch") {
			patchLine = line
		}
	}
	if patchLine == "" {
		t.Fatalf("no view-patch event after reading a patched view:\n%s", res.Msg)
	}
	if !strings.Contains(patchLine, "trace="+sel.TraceID.String()) {
		t.Fatalf("patch event not tagged with the SELECT's trace %s:\n%s", sel.TraceID, patchLine)
	}
	if !strings.Contains(patchLine, "view-patch onlypol") {
		t.Fatalf("patch event names the wrong view:\n%s", patchLine)
	}
}

// TestConcurrentExplainAnalyzeAndAdvance is the race-detector stress:
// readers, EXPLAIN ANALYZE and clock advances on one shared engine from
// separate sessions (a Session itself is single-goroutine).
func TestConcurrentExplainAnalyzeAndAdvance(t *testing.T) {
	eng := engine.New()
	setup := NewSession(eng, nil)
	if _, err := setup.ExecScript(`
		CREATE TABLE pol (uid INT, deg INT);
		CREATE TABLE el  (uid INT, deg INT);
	`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := setup.Exec(fmt.Sprintf(
			"INSERT INTO pol VALUES (%d, %d) EXPIRES AT %d", i, i%7, 10+i)); err != nil {
			t.Fatal(err)
		}
		if _, err := setup.Exec(fmt.Sprintf(
			"INSERT INTO el VALUES (%d, %d) EXPIRES AT %d", i, i%5, 5+i)); err != nil {
			t.Fatal(err)
		}
	}
	eng.SetSlowQueryThreshold(time.Nanosecond) // exercise the slow-query log too

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewSession(eng, nil)
			for i := 0; i < 20; i++ {
				if _, err := s.Exec("EXPLAIN ANALYZE SELECT uid FROM pol EXCEPT SELECT uid FROM el"); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Exec("SELECT * FROM pol WHERE deg > 2"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for to := xtime.Time(1); to <= 40; to++ {
			if err := eng.AdvanceTraced(to, trace.NextID()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	// The log survived the stampede with monotonically increasing seqs.
	events := eng.Events().Snapshot(0)
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("event seqs not contiguous: %d then %d", events[i-1].Seq, events[i].Seq)
		}
	}
}
