package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestAllExperimentsRun executes every experiment end to end and spot-
// checks the reproduced paper artifacts in their reports.
func TestAllExperimentsRun(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	checks := []string{
		"=== E1",
		"Figure 1(a)",
		"sweep 0..20: materialise-at-0 == recompute at every tick ✓",
		"=== E3",
		"texp(histogram) = 10",
		"texp(difference) = 3",
		"=== E4",
		"count", // policy table mentions count
		"=== E5",
		"=== E6",
		"patched (Theorem 3)",
		"=== E7",
		"lazy/period=16",
		"=== E8",
		"interval/backward",
		"=== E9",
		"=== E10",
		"unlimited (Theorem 3)",
		"=== E11",
		"per-operator",
		"=== E12",
		"durable (snapshot)",
		"=== E13",
		"cache on",
		"=== E14",
		"degraded (read-only)",
	}
	for _, want := range checks {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestRunSubset(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, "e1", "E3"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "=== E1") || !strings.Contains(out, "=== E3") {
		t.Fatalf("subset missing experiments:\n%s", out)
	}
	if strings.Contains(out, "=== E2") {
		t.Fatal("unselected experiment ran")
	}
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, "E42"); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

func TestTableFormatting(t *testing.T) {
	var buf bytes.Buffer
	tb := newTable("a", "long-header")
	tb.add("xxxxxx", 1)
	tb.write(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("header and separator misaligned:\n%s", buf.String())
	}
}
