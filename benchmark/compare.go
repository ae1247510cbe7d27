package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is BENCHMARK.json: the declared metrics and their bounds.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findSpec locates BENCHMARK.json: the given path, else the working
// directory, else its parent (the benchmark's own directory is one below
// the repository root).
func findSpec(path string) string {
	if path != "" {
		return path
	}
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return "BENCHMARK.json"
}

func loadSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// loadRecords reads an -out file: the end-to-end records, by workload.
func loadRecords(path string) (map[string][]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byWorkload := map[string][]*record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		rec := &record{}
		if err := json.Unmarshal(sc.Bytes(), rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace == 0 {
			byWorkload[rec.Workload] = append(byWorkload[rec.Workload], rec)
		}
	}
	return byWorkload, sc.Err()
}

// compareFiles prints, per workload and end-to-end metric, both files'
// medians and spreads, the ratio with its base, and a verdict by the
// bounds in the spec. It reports whether any pairing was worse.
//
// A file that holds several runs of a workload (-runs N) gives the median
// and the inter-quartile spread across those runs; a file with a single
// run falls back to the spread across repetitions inside that run.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (worse bool, err error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRecords(pathB)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(a))
	for name := range a {
		if len(b[name]) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("%s and %s share no workload", pathA, pathB)
	}
	summarise := func(recs []*record, metric string) (med, spr float64, n int) {
		var vs []float64
		for _, rec := range recs {
			if m, ok := rec.Metrics[metric]; ok {
				vs = append(vs, m.Value)
				spr = m.Spread
			}
		}
		if len(vs) > 1 {
			spr = spread(vs)
		}
		return median(vs), spr, len(vs)
	}
	counts := map[string]int{}
	fmt.Fprintf(w, "%-17s %-18s %14s %7s %14s %7s %9s %6s  %s\n", "workload", "metric", "a median", "a iqr", "b median", "b iqr", "b/a", "bound", "verdict")
	for _, name := range names {
		for _, m := range spec.EndToEnd {
			medA, sprA, nA := summarise(a[name], m.Name)
			medB, sprB, nB := summarise(b[name], m.Name)
			if nA == 0 || nB == 0 || medA == 0 {
				continue
			}
			worsening := (medB - medA) / medA
			if m.Better == "higher" {
				worsening = -worsening
			}
			verdict := "within bound"
			switch {
			case sprA > m.Bound || sprB > m.Bound:
				verdict = "unresolved (spread wider than the bound)"
			case worsening > m.Bound:
				verdict, worse = "WORSE", true
			case worsening < -m.Bound:
				verdict = "better"
			}
			counts[verdict]++
			fmt.Fprintf(w, "%-17s %-18s %14.4f %6.1f%% %14.4f %6.1f%% %9.4f %5.0f%%  %s\n",
				name, m.Name, medA, 100*sprA, medB, 100*sprB, medB/medA, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(w, "base: %s (a); ratio is b/a of the medians; a: %d run(s) per workload, b: %d\n", pathA, len(a[names[0]]), len(b[names[0]]))
	verdicts := make([]string, 0, len(counts))
	for v := range counts {
		verdicts = append(verdicts, v)
	}
	sort.Strings(verdicts)
	for _, v := range verdicts {
		fmt.Fprintf(w, "%4d %s\n", counts[v], v)
	}
	return worse, nil
}
