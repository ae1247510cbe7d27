package sql

import (
	"strings"
	"testing"

	"expdb/internal/engine"
	"expdb/internal/monitor"
)

func TestParseShowHistoryHealth(t *testing.T) {
	for _, tc := range []struct {
		q      string
		what   string
		metric string
		limit  int
	}{
		{"SHOW HISTORY", "HISTORY", "", 0},
		{"SHOW HISTORY expdb_inserts_total", "HISTORY", "expdb_inserts_total", 0},
		{`SHOW HISTORY 'expdb_ring_entries_total{ring="events"}' LIMIT 5`, "HISTORY", `expdb_ring_entries_total{ring="events"}`, 5},
		{"SHOW HISTORY LIMIT 3", "HISTORY", "", 3},
		{"SHOW HEALTH", "HEALTH", "", 0},
	} {
		stmt, err := Parse(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		show, ok := stmt.(*Show)
		if !ok {
			t.Fatalf("%s parsed to %T", tc.q, stmt)
		}
		if show.What != tc.what || show.Metric != tc.metric || show.Limit != tc.limit {
			t.Fatalf("%s parsed to %+v", tc.q, show)
		}
	}
	if _, err := Parse("SHOW HISTORY LIMIT 0"); err == nil {
		t.Fatal("LIMIT 0 should be rejected")
	}
}

func TestShowHistoryAndHealth(t *testing.T) {
	eng := engine.New(engine.WithMonitor(monitor.Options{HistoryCapacity: 8}))
	s := NewSession(eng, nil)
	if _, err := s.ExecScript(`
		CREATE TABLE pol (uid INT);
		INSERT INTO pol VALUES (1) EXPIRES AT 10;
		INSERT INTO pol VALUES (2) EXPIRES AT 20;
	`); err != nil {
		t.Fatal(err)
	}
	eng.Monitor().Tick()

	res := mustExec(t, s, "SHOW HISTORY expdb_inserts_total")
	for _, want := range []string{`"expdb_inserts_total"`, `"value": 2`, `"kind": "counter"`} {
		if !strings.Contains(res.Msg, want) {
			t.Fatalf("SHOW HISTORY missing %q:\n%s", want, res.Msg)
		}
	}
	// Unfiltered covers every registered series.
	all := mustExec(t, s, "SHOW HISTORY LIMIT 1")
	for _, want := range []string{`"expdb_scheduler_pending"`, `"expdb_slo_p99_lag_ticks"`} {
		if !strings.Contains(all.Msg, want) {
			t.Fatalf("SHOW HISTORY missing series %q:\n%s", want, all.Msg)
		}
	}
	mustExec(t, s, `SHOW HISTORY 'expdb_ring_entries_total{ring="events"}'`)
	if _, err := s.Exec("SHOW HISTORY nonsense"); err == nil || !strings.Contains(err.Error(), "unknown metric") {
		t.Fatalf("unknown metric error = %v", err)
	}

	health := mustExec(t, s, "SHOW HEALTH")
	for _, want := range []string{`"state": "ready"`, `"live": true`, `"slo"`, `"dispatch_lag_ticks"`} {
		if !strings.Contains(health.Msg, want) {
			t.Fatalf("SHOW HEALTH missing %q:\n%s", want, health.Msg)
		}
	}
}

func TestShowHistoryMonitoringDisabled(t *testing.T) {
	s := newSession(t)
	for _, q := range []string{"SHOW HISTORY", "SHOW HEALTH"} {
		if _, err := s.Exec(q); err == nil || !strings.Contains(err.Error(), "monitoring disabled") {
			t.Fatalf("%s on unmonitored engine: err = %v", q, err)
		}
	}
}
