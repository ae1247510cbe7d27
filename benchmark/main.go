// Command benchmark is expdb's ruler: it drives the database the way its
// users do (SQL through DB.Exec, view reads, remote reads through a
// loopback wire server), checks every answer, and prints every metric
// BENCHMARK.json declares by name and unit. See README.md.
//
// The driver runs it as
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. By hand:
//
//	bash benchmark/run.sh -workload all -runs 10 -out a.jsonl
//	bash benchmark/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed     int64
	seconds  int
	trace    bool
	scale    scale
	dataRoot string // durable data directories are created (and removed) here
	spans    string // trace mode: where the span file goes ("" = none)
}

// metricValue is one reported number. N is the number of samples behind
// it; Spread is the inter-quartile distance as a share of the median
// across repetitions, for values that are medians over repetitions.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`
	Spread float64 `json:"spread,omitempty"`
}

// record is one run of one workload: what -out appends, one JSON object
// per line, and what -compare reads.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     int                    `json:"trace"`
	Scale     string                 `json:"scale"`
	Seconds   int                    `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// OpCounts is the number of timed operations by kind; StreamDigest
	// identifies the generated statement stream (same seed, same digest).
	OpCounts     map[string]int `json:"op_counts"`
	StreamDigest string         `json:"stream_digest"`
	// MachineSpeed is how much slower than reference speed the machine ran
	// during the timed sections (median): a time measured on the clock is
	// the reported one multiplied by it. 0 for traced runs, whose timings
	// are as measured.
	MachineSpeed float64     `json:"machine_speed,omitempty"`
	Env          environment `json:"env"`
}

// cleanup removes the run's data directory on every exit path, including
// the watchdog's and a signal's.
var cleanup struct {
	sync.Mutex
	dirs []string
}

func removeOnExit(dir string) {
	cleanup.Lock()
	cleanup.dirs = append(cleanup.dirs, dir)
	cleanup.Unlock()
}

func runCleanup() {
	cleanup.Lock()
	defer cleanup.Unlock()
	for _, d := range cleanup.dirs {
		os.RemoveAll(d)
	}
	cleanup.dirs = nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	runCleanup()
	os.Exit(2)
}

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload name, or all")
		seed         = flag.Int64("seed", 1, "seed the statement streams are generated from")
		seconds      = flag.Int("seconds", 20, "wall seconds one run measures for")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
		runs         = flag.Int("runs", 1, "repeat each workload this many times with seeds seed, seed+1, ...")
		out          = flag.String("out", "", "append one JSON record per run to this file")
		spans        = flag.String("spans", "", "with -trace 1: write the span file (JSON lines) here")
		scaleFlag    = flag.String("scale", "full", "data sizes: full or tiny")
		dataRoot     = flag.String("data-root", filepath.Join(".bench_build", "data"), "directory for durable workloads' data")
		spec         = flag.String("spec", "", "path of BENCHMARK.json (default: ./BENCHMARK.json, then ../BENCHMARK.json)")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments instead of running")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two files")
		}
		worse, err := compareFiles(os.Stdout, findSpec(*spec), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	var selected []*workload
	if *workloadFlag == "all" {
		selected = workloads
	} else if w := workloadNamed(*workloadFlag); w != nil {
		selected = []*workload{w}
	} else {
		fatalf("unknown workload %q", *workloadFlag)
	}
	sc := scaleFull
	switch *scaleFlag {
	case "full":
	case "tiny":
		sc = scaleTiny
	default:
		fatalf("unknown scale %q", *scaleFlag)
	}
	if *seconds < 1 || *runs < 1 {
		fatalf("-seconds and -runs must be at least 1")
	}

	root, err := filepath.Abs(*dataRoot)
	if err != nil {
		fatalf("%v", err)
	}
	root = filepath.Join(root, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		fatalf("%v", err)
	}
	removeOnExit(root)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fatalf("interrupted")
	}()

	env := describeEnvironment(root)
	for _, w := range selected {
		for r := 0; r < *runs; r++ {
			cfg := config{seed: *seed + int64(r), seconds: *seconds, trace: *trace == 1, scale: sc, dataRoot: root, spans: *spans}
			// The watchdog turns a hang into a message and a non-zero
			// exit well inside the driver's own limit.
			limit := time.Duration(3**seconds+90) * time.Second
			watchdog := time.AfterFunc(limit, func() {
				fatalf("watchdog: workload %s did not finish within %s", w.name, limit)
			})
			rec, err := runWorkload(w, cfg)
			watchdog.Stop()
			if err != nil {
				fatalf("%s: %v", w.name, err)
			}
			rec.Env = env
			printRecord(rec)
			if *out != "" {
				if err := appendRecord(*out, rec); err != nil {
					fatalf("%v", err)
				}
			}
			printResultLine(rec)
		}
	}
	runCleanup()
}

func runWorkload(w *workload, cfg config) (*record, error) {
	if cfg.trace {
		return runTraced(w, cfg)
	}
	return runEndToEnd(w, cfg)
}

// repetitions is how many fresh databases one end-to-end run measures;
// the run's time budget is split evenly between them. extraSetups more
// databases are only set up and closed, so that setup_s is a median over
// enough samples to hold its bound.
const (
	repetitions = 3
	extraSetups = 4
)

// checkedOps is how many operations the reference replay compares.
func checkedOps(sc scale) int { return sc.pick(2000, 300) }

// repSeed gives every repetition of every run its own stream.
func repSeed(seed int64, rep int) int64 { return seed*16 + int64(rep) }

// checkPhase replays the head of the stream against the reference, and
// for view_maintenance checks the views against recomputation. It returns
// the system instance's set-up time (one more setup_s sample) and the
// digest of the statements replayed: a fixed-length head of the stream, so
// it identifies the stream whatever the timed sections then get through.
func checkPhase(w *workload, cfg config, t *tally) (setup float64, digest string, err error) {
	g := w.newGen(w, repSeed(cfg.seed, 0), cfg.scale)
	sys, err := setUp(g, dataDir(cfg.dataRoot, 0), false)
	if err != nil {
		return 0, "", err
	}
	defer sys.close()
	ref, err := setUp(g, "", true)
	if err != nil {
		return 0, "", err
	}
	defer ref.close()
	replayAgainstReference(g, sys, ref, checkedOps(cfg.scale), t)
	if len(g.viewDDL) > 0 {
		checkViewsAgainstRecomputation(sys, int64(sys.db.Now()), cfg.scale.pick(40, 10), t)
	}
	return sys.setupSeconds(), fmt.Sprintf("%016x", g.digest), nil
}

func runEndToEnd(w *workload, cfg config) (*record, error) {
	t := &tally{workload: w.name, seed: cfg.seed}
	setup, digest, err := checkPhase(w, cfg, t)
	if err != nil {
		return nil, err
	}
	setups := []float64{setup}
	var (
		reps     []*repetition
		pooled   [numClasses][]int64
		opCounts = map[string]int{}
	)
	budget := time.Duration(cfg.seconds) * time.Second / repetitions
	for r := 0; r < repetitions; r++ {
		g := w.newGen(w, repSeed(cfg.seed, r), cfg.scale)
		in, err := setUp(g, dataDir(cfg.dataRoot, r+1), false)
		if err != nil {
			return nil, err
		}
		rep := &repetition{setupSeconds: in.setupSeconds()}
		warmUp(g, in, w.warmOps(cfg.scale), t)
		drive(g, in, budget, rep, t)
		withDB := heapLive()
		if w.durable && r == repetitions-1 {
			if _, err := checkRecovery(in, tablesOf(w), t); err != nil {
				in.close()
				return nil, err
			}
		}
		in.close()
		in = nil
		rep.heapLiveMB = (float64(withDB) - float64(heapLive())) / (1 << 20)
		reps = append(reps, rep)
		setups = append(setups, rep.setupSeconds)
		for c := range pooled {
			pooled[c] = append(pooled[c], rep.lat[c]...)
		}
		for k, lat := range rep.kindLat {
			if len(lat) > 0 {
				opCounts[kindNames[k]] += len(lat)
			}
		}
	}

	for i := 0; i < extraSetups; i++ {
		g := w.newGen(w, repSeed(cfg.seed, repetitions+i), cfg.scale)
		in, err := setUp(g, dataDir(cfg.dataRoot, repetitions+1+i), false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, in.setupSeconds())
		in.close()
	}

	rec := &record{Workload: w.name, Seed: cfg.seed, Scale: cfg.scale.String(), Seconds: cfg.seconds,
		Attempted: t.attempted, Failed: t.failed, Correct: t.failed == 0,
		Metrics: map[string]metricValue{}, OpCounts: opCounts, StreamDigest: digest}
	overReps := func(name, unit string, f func(*repetition) float64) {
		vs := make([]float64, len(reps))
		for i, rep := range reps {
			vs[i] = f(rep)
		}
		rec.Metrics[name] = metricValue{Value: median(vs), Unit: unit, N: len(vs), Spread: spread(vs)}
	}
	rec.Metrics["setup_s"] = metricValue{Value: median(setups), Unit: "s", N: len(setups), Spread: spread(setups)}
	overReps("throughput_ops_s", "1/s", (*repetition).throughput)
	overReps("heap_live_mb", "MB", func(r *repetition) float64 { return r.heapLiveMB })
	for c, lat := range pooled {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		rec.Metrics[classNames[c]+"_p50_us"] = metricValue{Value: float64(percentile(lat, 50)) / 1e3, Unit: "us", N: len(lat)}
	}
	speeds := make([]float64, len(reps))
	for i, rep := range reps {
		speeds[i] = rep.speed
	}
	rec.MachineSpeed = median(speeds)
	return rec, nil
}

// printRecord prints every metric by name and unit, with its sample count.
func printRecord(rec *record) {
	fmt.Printf("== %s seed=%d trace=%d scale=%s seconds=%d: attempted %d, failed %d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Scale, rec.Seconds, rec.Attempted, rec.Failed)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		line := fmt.Sprintf("%-36s %14.4f %-8s n=%d", name, m.Value, m.Unit, m.N)
		if m.Spread > 0 {
			line += fmt.Sprintf(" spread=%.1f%%", 100*m.Spread)
		}
		fmt.Println(line)
	}
	kinds := make([]string, 0, len(rec.OpCounts))
	for k := range rec.OpCounts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Print("timed ops:")
	for _, k := range kinds {
		fmt.Printf(" %s=%d", k, rec.OpCounts[k])
	}
	fmt.Printf("  stream=%s", rec.StreamDigest)
	if rec.MachineSpeed > 0 {
		fmt.Printf("  machine ran at %.3fx reference cost", rec.MachineSpeed)
	}
	fmt.Println()
}

// printResultLine prints the one JSON object the driver reads.
func printResultLine(rec *record) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
	for name, m := range rec.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
