// Package bench reproduces every table and figure of the paper, plus the
// recomputation analyses of §3 and the feature checks E12–E15, as
// deterministic experiments (DESIGN.md §3 indexes them). The package is
// test-only: TestExperimentsGolden runs E1–E15 and compares the report
// byte for byte with testdata/experiments.golden, and every `golden`
// block EXPERIMENTS.md quotes must be a verbatim piece of that file.
// After an intended change to a reproduction, rewrite the file with
//
//	go test ./internal/bench -update
//
// and re-quote the blocks that moved. No cell is a wall clock: timing
// belongs to the load benchmark (benchmark/) and the root package's
// BenchmarkE* functions.
package bench

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"unicode/utf8"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden from this run")

const goldenPath = "testdata/experiments.golden"

// experiments lists the reproductions in index order.
var experiments = []struct {
	id, title string
	run       func(w io.Writer) error
}{
	{"E1", "Figures 1–2: monotonic maintenance equals recomputation", runE1},
	{"E2", "Theorem 1: maintenance vs recomputation cost", runE2},
	{"E3", "Figure 3: non-monotonic invalidation", runE3},
	{"E4", "Table 1: aggregate expiration policies", runE4},
	{"E5", "Table 2 / formula (11): difference lifetimes", runE5},
	{"E6", "Theorem 3: patching vs recomputation over the wire", runE6},
	{"E7", "§3.2: eager vs lazy removal", runE7},
	{"E8", "§3.3–3.4: Schrödinger interval semantics", runE8},
	{"E9", "§3.1: rewrite ablation", runE9},
	{"E10", "§3.4.2: patch-budget trade-off", runE10},
	{"E11", "§3.1: per-operator recomputation ablation", runE11},
	{"E12", "durability: log-replay vs snapshot recovery", runE12},
	{"E13", "result cache: zipfian read-heavy dashboard, cache on vs off", runE13},
	{"E14", "storage faults: a dead disk refuses writes, not reads", runE14},
	{"E15", "secondary indexes: point/range workloads, index on vs off, answers verified", runE15},
}

func TestExperimentsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, e := range experiments {
		fmt.Fprintf(&buf, "=== %s: %s ===\n", e.id, e.title)
		if err := e.run(&buf); err != nil {
			t.Fatalf("%s: %v\n%s", e.id, err, buf.String())
		}
		buf.WriteByte('\n')
	}
	if *update {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		line := func(lines []string) string {
			if i < len(lines) {
				return lines[i]
			}
			return "<end of report>"
		}
		t.Errorf("report differs from %s at line %d:\n got: %s\nwant: %s\n(after an intended change: go test ./internal/bench -update)",
			goldenPath, i+1, line(g), line(w))
	}

	// EXPERIMENTS.md quotes each experiment's block instead of copying
	// numbers by hand, so a quote that drifts from the golden fails here.
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	quotes := strings.Split(string(doc), "```golden\n")[1:]
	if len(quotes) < len(experiments) {
		t.Errorf("EXPERIMENTS.md quotes %d golden blocks, want one per experiment (%d)", len(quotes), len(experiments))
	}
	for _, q := range quotes {
		q, _, _ = strings.Cut(q, "```")
		if !strings.Contains(string(want), q) {
			t.Errorf("EXPERIMENTS.md quotes a block %s does not contain:\n%s", goldenPath, q)
		}
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

// table is a tiny column-aligned printer for experiment reports.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.rows = append(t.rows, row)
}

// write pads every column to its widest cell and trims each line's
// trailing blanks, so a quoted block survives editors that strip them.
func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for _, r := range append([][]string{t.header}, t.rows...) {
		for i, c := range r {
			widths[i] = max(widths[i], utf8.RuneCountInString(c))
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			b.WriteString("  " + c + strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// kB prints a byte count in kilobytes to three significant figures. Wire
// messages carry a process-wide trace ID whose encoded width grows with
// the IDs minted before, so the exact count depends on what ran earlier
// in the process; three figures do not.
func kB(n int64) string {
	x := float64(n) / 1000
	digits := 0
	if x > 0 {
		digits = max(0, 2-int(math.Floor(math.Log10(x))))
	}
	return fmt.Sprintf("%.*f kB", digits, x)
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimSuffix(s, "\n"), "\n", "\n  ") + "\n"
}
