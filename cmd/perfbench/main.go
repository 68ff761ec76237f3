// Command perfbench is the repository benchmark. It trains the paper's
// learners at set-up, serves them from a selserve process built from the
// same tree, drives one of four workloads against it and checks every
// served estimate against a local copy of the model. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is a separate traced run that reports per-layer metrics and the span
// ladder. See README.md for the workloads, the metric-to-layer map and how
// to read a ladder. Run it through run.sh, which builds both binaries.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects everything one run measured: contract metrics plus the
// diagnostics printed before the result line.
type report struct {
	attempted, failed, mismatches int64
	metrics                       map[string]metric
	diag                          map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, diag: map[string]any{}}
}

// set records a metric as measured; NaN marks one that could not be.
func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// count adds one batch of operations to the contract's attempted/failed
// tallies.
func (r *report) count(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	selserve string // path of the selserve binary under test
	spec     *spec  // the metrics each kind of run reports
	out      string // directory for span dumps
	runDir   string // this run's snapshots, removed when it ends
}

// metricName is the shape every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the benchmark reads: the metrics an
// untraced run reports (end_to_end) and those a traced run reports
// (per_layer).
type spec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadSpec reads the metric lists from BENCHMARK.json and checks every
// name's shape.
func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end or per_layer metrics", path)
	}
	for _, def := range append(append([]metricDef(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !metricName.MatchString(def.Name) || def.Unit == "" {
			return nil, fmt.Errorf("%s: malformed metric %q (unit %q)", path, def.Name, def.Unit)
		}
	}
	return &sp, nil
}

func main() {
	var cfg config
	var trace int
	var specPath string
	flag.StringVar(&cfg.workload, "workload", "", "workload: point-replay, bulk-fresh, feedback-online, train, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 12, "measured seconds per run (at most 12 on serving workloads: selserve retrains every 15s)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.StringVar(&cfg.selserve, "selserve", "", "path of the selserve binary to measure")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for run files")
	flag.StringVar(&specPath, "spec", "BENCHMARK.json", "BENCHMARK.json, which names the metrics to report")
	flag.Parse()
	cfg.trace = trace == 1
	err := validate(&cfg, trace)
	if err == nil {
		cfg.spec, err = loadSpec(specPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadOrder
	}
	code := 0
	for _, name := range names {
		cfg.workload = name
		if !runOne(cfg) {
			code = 1
		}
	}
	os.Exit(code)
}

// runOne runs and reports one workload, returning whether it passed.
func runOne(cfg config) bool {
	cfg.runDir = filepath.Join(cfg.out, fmt.Sprintf("run-%d", os.Getpid()))
	rep, err := run(cfg)
	if rerr := os.RemoveAll(cfg.runDir); err == nil {
		err = rerr
	}
	if err == nil {
		err = emit(rep)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return false
	}
	return rep.mismatches == 0 && rep.failed == 0
}

func validate(cfg *config, trace int) error {
	if _, ok := workloads[cfg.workload]; !ok && cfg.workload != "all" {
		return fmt.Errorf("unknown -workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if cfg.workload != "train" && cfg.selserve == "" {
		return errors.New("-selserve is required for serving workloads")
	}
	return nil
}

// workloadOrder is the order -workload all runs them in.
var workloadOrder = []string{"point-replay", "bulk-fresh", "feedback-online", "train"}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config, rep *report) error{
	"point-replay":    runPointReplay,
	"bulk-fresh":      runBulkFresh,
	"feedback-online": runFeedbackOnline,
	"train":           runTrain,
}

func run(cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.runDir, 0o755); err != nil {
		return nil, err
	}
	rep := newReport()
	rep.diag["fingerprint"] = fingerprint()
	rep.diag["workload"] = cfg.workload
	rep.diag["seed"] = cfg.seed
	rep.diag["trace"] = cfg.trace
	start := time.Now()
	if err := workloads[cfg.workload](cfg, rep); err != nil {
		return nil, err
	}
	rep.diag["wall_s"] = time.Since(start).Seconds()
	want := cfg.spec.EndToEnd
	if cfg.trace {
		want = cfg.spec.PerLayer
	}
	kept := make(map[string]metric, len(want))
	for _, def := range want {
		m, ok := rep.metrics[def.Name]
		measured := ok && !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0)
		switch {
		case !cfg.trace && !(measured && m.Value > 0):
			// Every end-to-end metric is positive when measured; a
			// missing or zero one would read as a perfect score.
			return nil, fmt.Errorf("end-to-end metric %s was not measured (got %v)", def.Name, m.Value)
		case !measured:
			// A layer the workload does not exercise reads 0.
			m = metric{Value: 0, Unit: def.Unit}
		case m.Unit != def.Unit:
			return nil, fmt.Errorf("internal: metric %s measured in %s, BENCHMARK.json says %s", def.Name, m.Unit, def.Unit)
		}
		kept[def.Name] = m
		delete(rep.metrics, def.Name)
	}
	for name, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			delete(rep.metrics, name) // JSON has no NaN
		}
	}
	if len(rep.metrics) > 0 {
		rep.diag["other_metrics"] = rep.metrics
	}
	rep.metrics = kept
	return rep, nil
}

// emit prints a human-readable table, the diagnostics line and the
// contract's result line, in that order.
func emit(rep *report) error {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Printf("%-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	// Metrics measured but not named by BENCHMARK.json for this kind of
	// run, such as the latencies, which are reported but not bounded.
	if other, ok := rep.diag["other_metrics"].(map[string]metric); ok {
		names = names[:0]
		for n := range other {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-34s %16.6g %s (not bounded)\n", n, other[n].Value, other[n].Unit)
		}
	}
	rep.diag["oracle_mismatches"] = rep.mismatches
	errRate := float64(rep.failed) / float64(max(rep.attempted, 1))
	rep.diag["error_rate"] = errRate
	fmt.Printf("%-34s %16.6g %s\n", "error_rate", errRate, "ratio")
	diag, err := json.Marshal(map[string]any{"report": rep.diag})
	if err != nil {
		return err
	}
	fmt.Println(string(diag))
	res, err := json.Marshal(result{
		Correct:   rep.mismatches == 0 && rep.failed == 0,
		Attempted: max(rep.attempted, 1),
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}
