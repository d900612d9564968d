// Command perfbench is the repository benchmark: it runs one cluster
// workload through the rths facade, checks the run's outputs and prints
// one JSON result line.
//
//	perfbench -workload deep-views -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it repeats fresh constructions of the workload for
// -seconds and reports the end-to-end metrics (throughput, set-up time,
// heap per viewer and the deterministic quality means). With -trace 1 it
// reruns the workload through the per-stage calls with timing spans and
// drives each layer's public calls directly at the workload's shape,
// reporting per-layer metrics. run.sh builds it from source and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerSamples is the number of timed iterations of each layer run in
// the traced run.
const layerSamples = 1000

// options configure one run: the parsed command-line flags, plus the
// layer runs' sample count, which short test runs lower.
type options struct {
	workload     workload
	seed         uint64
	seconds      float64
	trace        bool
	spans        string
	layerSamples int
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: deep-views or faults-live")
	seed := fs.Uint64("seed", 1, "seed from which every random stream is split")
	seconds := fs.Float64("seconds", 10, "measurement time of the untraced run")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 runs the traced, per-layer run")
	spans := fs.String("spans", "", "file for the traced run's cluster spans as JSONL (default: spans-<workload>.jsonl in the build directory)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return options{}, err
	}
	if !(*seconds > 0) || math.IsInf(*seconds, 0) {
		return options{}, fmt.Errorf("-seconds %g must be positive", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("-trace %d must be 0 or 1", *trace)
	}
	return options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans, layerSamples: layerSamples}, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return execute(opt, stdout, stderr)
}

// execute runs the workload as opt says, prints the result line and
// returns the exit code.
func execute(opt options, stdout, stderr io.Writer) int {
	// Pin the scheduler and the collector so runs compare like for like.
	runtime.GOMAXPROCS(opt.workload.gomaxprocs)
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)

	ops := &counter{}
	stop := watch(ops, stdout, stderr)
	var metrics map[string]metric
	if opt.trace {
		metrics = runTraced(opt, ops, stdout)
	} else {
		metrics = runUntraced(opt, ops, stdout)
	}
	stop()
	checkMetrics(metrics, ops)
	for _, e := range ops.errs {
		fmt.Fprintln(stderr, "perfbench: FAIL:", e)
	}
	return printResult(ops, metrics, stdout, stderr)
}

// printResult prints the result line and returns the exit code: 0 only
// when every operation and check passed.
func printResult(ops *counter, metrics map[string]metric, stdout, stderr io.Writer) int {
	if metrics == nil {
		metrics = map[string]metric{}
	}
	res := result{
		Correct:   ops.failed.Load() == 0,
		Attempted: max(1, ops.attempted.Load()),
		Failed:    ops.failed.Load(),
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// checkMetrics fails the run on a non-finite metric (reported as 0, which
// JSON can carry) or a quality ratio outside its range.
func checkMetrics(ms map[string]metric, ops *counter) {
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			ops.fail("metric %s is %v", name, m.Value)
			ms[name] = metric{0, m.Unit}
		}
	}
	if m, ok := ms["welfare_ratio"]; ok && !(m.Value > 0 && m.Value <= 1) {
		ops.fail("welfare_ratio %v outside (0,1]", m.Value)
	}
	if m, ok := ms["continuity"]; ok && !(m.Value >= 0 && m.Value <= 1) {
		ops.fail("continuity %v outside [0,1]", m.Value)
	}
}
