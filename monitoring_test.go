package expdb_test

import (
	"bytes"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"expdb"
	"expdb/internal/monitor/promtest"
)

// monitoredDB opens a durable, monitored database with some traffic in
// every layer the Prometheus exposition covers.
func monitoredDB(t *testing.T, dir string) *expdb.DB {
	t.Helper()
	db, err := expdb.OpenDurable(dir, expdb.WithMonitor(expdb.MonitorOptions{LagThresholdTicks: 2}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.MustExec(`CREATE TABLE pol (uid INT, deg INT)`)
	db.MustExec(`INSERT INTO pol VALUES (1, 25) EXPIRES AT 10`)
	db.MustExec(`INSERT INTO pol VALUES (2, 35) EXPIRES AT 20`)
	db.MustExec(`CREATE MATERIALIZED VIEW hist AS SELECT deg, COUNT(*) FROM pol GROUP BY deg`)
	db.MustExec(`SELECT * FROM hist`)
	db.MustExec(`ADVANCE TO 10`)
	db.NewWireServer() // counters exist even without Listen
	return db
}

// TestWritePrometheusLint is the facade-level grammar gate and the
// metric table's drift guard: the real exposition, with every layer
// contributing, satisfies the format linter and carries every declared
// family, and its fixed-label counter and gauge samples (a histogram's by
// its _count) are exactly the history's series, name for name.
func TestWritePrometheusLint(t *testing.T) {
	db := monitoredDB(t, t.TempDir())
	db.Monitor().Tick()

	var buf bytes.Buffer
	if err := db.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := promtest.Lint(buf.Bytes()); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, out)
	}
	scrape := map[string]bool{}
	for _, f := range expdb.MetricFamilies(db) {
		typ := f.Kind.String()
		if f.Hist != nil {
			typ = "histogram"
		}
		if !strings.Contains(out, "# TYPE "+f.Name+" "+typ+"\n") {
			t.Errorf("exposition lacks family %s %s", f.Name, typ)
		}
		scrape[f.Name] = f.Scrape != nil
	}
	series := map[string]bool{}
	for _, name := range db.Monitor().History.SeriesNames() {
		series[name] = true
	}
	var fam, typ string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		name := line[:strings.LastIndexByte(line, ' ')]
		if strings.HasPrefix(line, "# TYPE ") {
			fam, typ, _ = strings.Cut(line[len("# TYPE "):], " ")
		} else if line[0] != '#' && !scrape[fam] && (typ != "histogram" || strings.HasPrefix(name, fam+"_count")) {
			if !series[name] {
				t.Errorf("sample %s has no history series", name)
			}
			delete(series, name)
		}
	}
	if len(series) > 0 {
		t.Errorf("history series without an exposition sample: %v", series)
	}
}

// TestSamplerRacesWireServersAndScrapes: the wire families read
// db.wireServers from the sampler goroutine while NewWireServer appends
// to it and a scrape sums it.
func TestSamplerRacesWireServersAndScrapes(t *testing.T) {
	db := expdb.Open(expdb.WithMonitor(expdb.MonitorOptions{SampleInterval: time.Millisecond}))
	defer db.Close()
	h := db.Monitor().History
	for start := h.Samples(); h.Samples() < start+3; {
		db.NewWireServer()
		if err := db.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMetricsHandlerFormats(t *testing.T) {
	db := monitoredDB(t, t.TempDir())
	db.Monitor().Tick()

	rec := httptest.NewRecorder()
	db.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prometheus content type = %q", ct)
	}
	if err := promtest.Lint(rec.Body.Bytes()); err != nil {
		t.Fatalf("handler exposition fails lint: %v", err)
	}

	rec = httptest.NewRecorder()
	db.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `"engine"`) {
		t.Fatalf("JSON body missing engine block:\n%s", rec.Body.String())
	}
}

// TestReadyzDuringRecovery: a reopen that recovered real state answers
// /readyz 503 until the catch-up advance dispatches the missed
// expirations, and 200 after; /healthz stays 200 throughout.
func TestReadyzDuringRecovery(t *testing.T) {
	dir := t.TempDir()
	db := monitoredDB(t, dir)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := expdb.OpenDurable(dir, expdb.WithMonitor(expdb.MonitorOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()

	rec := httptest.NewRecorder()
	db2.ReadyzHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 {
		t.Fatalf("/readyz before catch-up = %d, want 503\n%s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "catch-up") {
		t.Fatalf("/readyz body names no failing check:\n%s", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	db2.HealthzHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("/healthz during catch-up = %d, want 200", rec.Code)
	}

	if err := db2.Advance(100); err != nil {
		t.Fatal(err)
	}
	db2.Monitor().Tick()
	rec = httptest.NewRecorder()
	db2.ReadyzHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 {
		t.Fatalf("/readyz after catch-up = %d, want 200\n%s", rec.Code, rec.Body.String())
	}
	if !db2.Health().Ready {
		t.Fatalf("Health() = %+v, want ready", db2.Health())
	}
}

func TestHistoryAndSLOAccessors(t *testing.T) {
	db := monitoredDB(t, t.TempDir())
	db.Monitor().Tick()

	hist := db.History("expdb_inserts_total", 0)
	if len(hist.Series) != 1 || len(hist.Series[0].Points) == 0 {
		t.Fatalf("History(expdb_inserts_total) = %+v", hist)
	}
	if n := testing.AllocsPerRun(100, db.Monitor().Tick); n != 0 {
		t.Fatalf("a tick over every layer's series allocates %v times, want 0", n)
	}
	if db.SLO().DispatchLag.Count == 0 {
		t.Fatalf("SLO() = %+v, want dispatch observations", db.SLO())
	}
}

// TestUnmonitoredDB: without WithMonitor every monitoring surface
// degrades gracefully — health reads ready, handlers answer 200, the
// history is empty, and Prometheus still serves the non-monitor layers.
func TestUnmonitoredDB(t *testing.T) {
	db := expdb.Open()
	db.MustExec(`CREATE TABLE pol (uid INT)`)

	if db.Monitor() != nil {
		t.Fatal("unmonitored DB has a monitor")
	}
	if h := db.Health(); !h.Live || !h.Ready {
		t.Fatalf("unmonitored Health() = %+v", h)
	}
	rec := httptest.NewRecorder()
	db.HealthzHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("/healthz = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	db.ReadyzHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 {
		t.Fatalf("/readyz = %d", rec.Code)
	}
	if h := db.History("", 0); len(h.Series) != 0 {
		t.Fatalf("unmonitored History() = %+v", h)
	}
	var buf bytes.Buffer
	if err := db.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := promtest.Lint(buf.Bytes()); err != nil {
		t.Fatalf("unmonitored exposition fails lint: %v\n%s", err, buf.Bytes())
	}
	for _, absent := range []string{"expdb_health_state", "expdb_wal_appends_total", "expdb_wire_"} {
		if bytes.Contains(buf.Bytes(), []byte(absent)) {
			t.Fatalf("unmonitored memory-only exposition claims %s", absent)
		}
	}
}
