//go:build ignore

// pairstats summarises ABBA-ordered pairs of load-benchmark runs:
//
//	go run scripts/pairstats.go -spec BENCHMARK.json parent.jsonl change.jsonl
//
// Each file holds the -out records (benchmark/run.sh -out) of one side. The
// k-th record of a workload in one file is paired with the k-th of the same
// workload in the other; pair k ran the parent first when k is even (ABBA:
// parent, change, change, parent, …). Per end-to-end metric it prints the
// medians of the two sides, the parent's inter-quartile range as a share of
// its median, the median paired ratio change/parent, the pairs the change
// won, a bootstrap 95 % interval of that median (2 000 resamples, fixed
// seed) and the order effect: the first run's value over the second's with
// the change's own effect taken out. In a pair that ran the parent first
// that quotient is about o/r (o the order effect, r the change's), in one
// that ran the change first about o·r, so o is the geometric mean of the
// two kinds' medians. A ratio whose interval holds 1, or that lies nearer 1
// than the order effect, is "no claim" (as is every ratio of fewer than two
// pairs, whose order effect is unknown); any other is "resolved". Whether a
// resolved ratio is inside the metric's bound is benchmark/run.sh
// -compare's to say.
//
//	go run scripts/pairstats.go -bench parent.txt change.txt
//
// reads go test -bench output instead (scripts/pairs.sh -bench): a
// benchmark is a workload, and its ns/op, B/op and allocs/op are the
// metrics, lower better.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
)

type record struct {
	Workload string                             `json:"workload"`
	Failed   int                                `json:"failed"`
	Metrics  map[string]struct{ Value float64 } `json:"metrics"`
}

type metric struct{ Name, Better string }

func main() {
	spec := flag.String("spec", "BENCHMARK.json", "BENCHMARK.json, for the end-to-end metrics and their sense")
	bench := flag.Bool("bench", false, "read go test -bench output: ns/op, B/op and allocs/op per benchmark")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/pairstats.go [-spec BENCHMARK.json | -bench] parent change")
		os.Exit(2)
	}
	var sp struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if *bench {
		sp.EndToEnd = []metric{{"ns/op", "lower"}, {"B/op", "lower"}, {"allocs/op", "lower"}}
	} else {
		b, err := os.ReadFile(*spec)
		check(err)
		check(json.Unmarshal(b, &sp))
	}
	parent, order := read(flag.Arg(0), *bench)
	change, _ := read(flag.Arg(1), *bench)
	for _, w := range order {
		a, c := parent[w], change[w]
		n := min(len(a), len(c))
		failed := 0
		for k := 0; k < n; k++ {
			failed += a[k].Failed + c[k].Failed
		}
		fmt.Printf("%s: %d pairs, %d failed operations\n", w, n, failed)
		fmt.Printf("  %-18s %12s %7s %12s %8s %6s %19s %7s  %s\n", "metric", "parent", "IQR", "change", "ratio", "won", "95% interval", "order", "verdict")
		for _, m := range sp.EndToEnd {
			var pv, cv, ratios, parentFirst, changeFirst []float64
			won := 0
			for k := 0; k < n; k++ {
				x, y := a[k].Metrics[m.Name].Value, c[k].Metrics[m.Name].Value
				if x <= 0 || y <= 0 {
					continue
				}
				pv, cv, ratios = append(pv, x), append(cv, y), append(ratios, y/x)
				if m.Better == "higher" && y > x || m.Better == "lower" && y < x {
					won++
				}
				if k%2 == 0 {
					parentFirst = append(parentFirst, x/y)
				} else {
					changeFirst = append(changeFirst, y/x)
				}
			}
			if len(ratios) == 0 {
				continue
			}
			r, ord := median(ratios), math.NaN()
			if len(parentFirst) > 0 && len(changeFirst) > 0 {
				ord = math.Sqrt(median(parentFirst) * median(changeFirst))
			}
			lo, hi := bootstrap(ratios)
			verdict := "no claim"
			if (lo > 1 || hi < 1) && math.Abs(math.Log(r)) > math.Abs(math.Log(ord)) {
				verdict = "resolved"
			}
			iqr := (quantile(pv, 0.75) - quantile(pv, 0.25)) / median(pv)
			fmt.Printf("  %-18s %12.4g %6.2f%% %12.4g %8.4f %3d/%-2d [%7.4f, %7.4f] %7.4f  %s\n",
				m.Name, median(pv), 100*iqr, median(cv), r, won, len(ratios), lo, hi, ord, verdict)
		}
	}
}

// read returns the records of a file by workload, and the workloads in the
// order they first appear. With bench the file is go test -bench output: a
// result line is a record of its benchmark, each value–unit pair after the
// iteration count a metric, and other lines are skipped.
func read(path string, bench bool) (map[string][]record, []string) {
	f, err := os.Open(path)
	check(err)
	defer f.Close()
	by, order := map[string][]record{}, []string(nil)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var r record
		if w := strings.Fields(sc.Text()); !bench {
			check(json.Unmarshal(sc.Bytes(), &r))
		} else if len(w) < 4 || !strings.HasPrefix(w[0], "Benchmark") {
			continue
		} else {
			r.Workload, r.Metrics = w[0], map[string]struct{ Value float64 }{}
			for i := 2; i+1 < len(w); i += 2 {
				v, err := strconv.ParseFloat(w[i], 64)
				check(err)
				r.Metrics[w[i+1]] = struct{ Value float64 }{v}
			}
		}
		if _, ok := by[r.Workload]; !ok {
			order = append(order, r.Workload)
		}
		by[r.Workload] = append(by[r.Workload], r)
	}
	check(sc.Err())
	return by, order
}

// bootstrap is the 95 % percentile interval of the median of xs.
func bootstrap(xs []float64) (float64, float64) {
	rng := rand.New(rand.NewSource(1))
	meds, s := make([]float64, 2000), make([]float64, len(xs))
	for i := range meds {
		for j := range s {
			s[j] = xs[rng.Intn(len(xs))]
		}
		meds[i] = median(s)
	}
	slices.Sort(meds)
	return meds[len(meds)*25/1000], meds[len(meds)*975/1000-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	h := float64(len(s)-1) * p
	i := int(h)
	if i+1 == len(s) {
		return s[i]
	}
	return s[i] + (h-float64(i))*(s[i+1]-s[i])
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pairstats:", err)
		os.Exit(1)
	}
}
