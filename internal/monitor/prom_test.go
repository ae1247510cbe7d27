package monitor

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"expdb/internal/metrics"
	"expdb/internal/monitor/promtest"
)

func constant(v int64) func() int64 { return func() int64 { return v } }

func TestPromWriterRoundTrip(t *testing.T) {
	var h metrics.Histogram
	for _, v := range []int64{1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, append([]Family{
		Counter("expdb_inserts_total", "Tuples inserted.", constant(42)),
		{Name: "expdb_expirations_total", Help: "Tuples expired.",
			Labels: [][]Label{{{Key: "mode", Value: "eager"}}, {{Key: "mode", Value: "lazy"}}},
			Value:  func(i int) int64 { return []int64{10, 3}[i] }},
		Gauge("expdb_scheduler_depth", "Pending expiry events.", constant(7)),
		Histogram("expdb_dispatch_lag_ticks", "Expiry dispatch lag.", &h),
	}, When(func() bool { return false }, Counter("expdb_absent_total", "Not present.", constant(1)))...)); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if err := promtest.Lint(out); err != nil {
		t.Fatalf("own output fails lint: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{
		"# TYPE expdb_inserts_total counter",
		"expdb_inserts_total 42",
		`expdb_expirations_total{mode="eager"} 10`,
		"# TYPE expdb_scheduler_depth gauge",
		"# TYPE expdb_dispatch_lag_ticks histogram",
		`expdb_dispatch_lag_ticks_bucket{le="+Inf"} 5`,
		"expdb_dispatch_lag_ticks_sum 1106",
		"expdb_dispatch_lag_ticks_count 5",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "expdb_absent_total") {
		t.Fatalf("absent family written:\n%s", text)
	}
}

func TestPromWriterLabeledHistogram(t *testing.T) {
	var steady, catchup metrics.Histogram
	steady.Observe(0)
	catchup.Observe(500)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, []Family{{Name: "expdb_lag_ticks", Help: "Lag.",
		Labels: [][]Label{{{Key: "phase", Value: "steady"}}, {{Key: "phase", Value: "catchup"}}},
		Hist:   func(i int) *metrics.Histogram { return []*metrics.Histogram{&steady, &catchup}[i] }}}); err != nil {
		t.Fatal(err)
	}
	if err := promtest.Lint(buf.Bytes()); err != nil {
		t.Fatalf("labelled histogram fails lint: %v\n%s", err, buf.String())
	}
	if got := strings.Count(buf.String(), "# TYPE expdb_lag_ticks histogram"); got != 1 {
		t.Fatalf("TYPE emitted %d times, want once", got)
	}
}

// TestPromWriterErrors: the writer trusts its table, so a table mistake —
// a family declared twice, a malformed metric or label name — must write
// an exposition the linter rejects; and a failing writer's error is
// returned.
func TestPromWriterErrors(t *testing.T) {
	one := constant(1)
	for name, fams := range map[string][]Family{
		"family declared twice": {Counter("a_total", "", one), Gauge("b", "", one), Counter("a_total", "", one)},
		"type conflict":         {Counter("x", "", one), Gauge("x", "", one)},
		"bad metric name":       {Counter("9bad", "", one)},
		"bad label name":        {{Name: "ok", Labels: [][]Label{{{Key: "bad-key", Value: "v"}}}, Value: func(int) int64 { return 1 }}},
	} {
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, fams); err != nil || promtest.Lint(buf.Bytes()) == nil {
			t.Errorf("%s: write error %v, or lint accepted\n%s", name, err, buf.String())
		}
	}
	r, w := io.Pipe()
	r.Close()
	if err := WritePrometheus(w, []Family{Counter("a_total", "", one)}); err == nil {
		t.Fatal("writer error not returned")
	}
}

func TestPromWriterEscaping(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, []Family{{Name: "esc_total", Help: "help with \\ and\nnewline",
		Labels: [][]Label{{{Key: "v", Value: "a\"b\\c\nd"}}}, Value: func(int) int64 { return 1 }}}); err != nil {
		t.Fatal(err)
	}
	if err := promtest.Lint(buf.Bytes()); err != nil {
		t.Fatalf("escaped output fails lint: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), `v="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped:\n%s", buf.String())
	}
}
