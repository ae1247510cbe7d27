package main

import (
	"regexp"
	"sort"
	"testing"
)

func testConfig(t *testing.T, seed int64, trace bool) config {
	return config{seed: seed, seconds: 1, trace: trace, scale: scaleTiny, dataRoot: t.TempDir()}
}

func sortedNames(ms []declaredMetric) []string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

func emitted(rec *record) []string {
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d names emitted, %d declared\n got  %v\n want %v", what, len(got), len(want), got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: emitted %q where BENCHMARK.json declares %q", what, got[i], want[i])
		}
	}
}

// TestSmoke runs every workload at tiny scale in both modes and holds the
// program to BENCHMARK.json: same workloads, same metric names and units,
// no failed operation.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(findSpec(""))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	units := map[string]string{}
	for _, m := range append(append([]declaredMetric{}, spec.EndToEnd...), spec.PerLayer...) {
		units[m.Name] = m.Unit
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || !name.MatchString(w.name) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
		if spec.Workloads[i].Why != w.why {
			t.Errorf("%s: BENCHMARK.json says why %q, the program %q", w.name, spec.Workloads[i].Why, w.why)
		}
		for _, trace := range []bool{false, true} {
			rec, err := runWorkload(w, testConfig(t, 7, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if rec.Failed != 0 || !rec.Correct || rec.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.name, trace, rec.Failed, rec.Attempted)
			}
			want := sortedNames(spec.EndToEnd)
			if trace {
				want = sortedNames(spec.PerLayer)
			}
			sameNames(t, w.name, emitted(rec), want)
			for n, m := range rec.Metrics {
				if m.Unit != units[n] {
					t.Errorf("%s: %s has unit %q, declared %q", w.name, n, m.Unit, units[n])
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w.name, n, m.Value)
				}
			}
		}
	}
}

// TestDeterminism: the seed alone decides the statement stream and every
// count the program makes.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, err := runTraced(w, testConfig(t, 11, true))
		if err != nil {
			t.Fatal(err)
		}
		b, err := runTraced(w, testConfig(t, 11, true))
		if err != nil {
			t.Fatal(err)
		}
		c, err := runTraced(w, testConfig(t, 12, true))
		if err != nil {
			t.Fatal(err)
		}
		if a.StreamDigest != b.StreamDigest {
			t.Errorf("%s: same seed, stream digests %s and %s", w.name, a.StreamDigest, b.StreamDigest)
		}
		if a.StreamDigest == c.StreamDigest {
			t.Errorf("%s: seeds 11 and 12 generate the same stream %s", w.name, a.StreamDigest)
		}
		for _, n := range exactCounts {
			if a.Metrics[n].Value != b.Metrics[n].Value {
				t.Errorf("%s: %s is %v and then %v for the same seed", w.name, n, a.Metrics[n].Value, b.Metrics[n].Value)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}
