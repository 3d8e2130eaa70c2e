// Command perfbench is the repository's end-to-end benchmark. It hosts
// the system under test in-process through its public APIs and drives
// one workload for a fixed time:
//
//	registry  every registered experiment on the full world (powerroute all)
//	replay    closed-loop week-long binary batches through the coordinator
//	live      open-loop dashboard reads of the merged status under a light JSON feed
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload replay --seed 1 --seconds 15 --trace 0
//
// Every run checks the system's outputs off the clock and prints, as its
// last line, one JSON object: the end-to-end metrics with --trace 0, the
// per-layer metrics of a separate traced run with --trace 1. A failed
// correctness gate prints "correct": false with no metrics and exits 1.
// See README.md for what each metric means on each workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"powerroute/internal/core"
	"powerroute/internal/experiments"
)

const (
	// setupReps is how many times a run sets up (world build, or the
	// whole fleet) to report the median set-up time.
	setupReps = 5
	// checkpointReps repeats the traced checkpoint-path timings.
	checkpointReps = 5
)

// The live mix's open-loop rates, chosen by measurement on a 2-CPU box.
// Reads run well below read saturation under light ingest: about 1% of
// them then find the shards on different cursors and retry, so the
// reported tail sits inside the no-retry mode instead of on the edge of
// the 50 ms retry mode, where it sat at 400 intervals/s.
const (
	liveIntervalRate = 20 // feeder intervals/s
	liveReadRate     = 15 // dashboard reads/s
)

// config is one run's settings.
type config struct {
	workload string
	seconds  time.Duration
	trace    bool

	opts     core.Options // the world; Seed is derived from seed
	workers  int
	liveRate float64
	readRate float64

	// registry: the experiments to run and the hash their output must have.
	defs     []experiments.Definition
	wantHash string

	// perturb, when set, edits the serving gate's reference demand rows.
	perturb func(k int, demand []float64)

	traceFile string // where a traced run writes its spans ("" = nowhere)
}

// newConfig is the configuration the command line selects.
func newConfig(workload string, seed int64, seconds time.Duration, trace bool) config {
	cfg := config{
		workload: workload,
		seconds:  seconds,
		trace:    trace,
		opts:     core.Options{Seed: seed},
		workers:  runtime.GOMAXPROCS(0),
		liveRate: liveIntervalRate,
		readRate: liveReadRate,
		defs:     experiments.All(),
	}
	if workload == "registry" {
		cfg.opts.Seed, cfg.wantHash = registryWorldSeed(seed)
	}
	if trace {
		cfg.traceFile = filepath.Join(".bench_build", fmt.Sprintf("perfbench-trace-%s-%d.jsonl", workload, seed))
	}
	return cfg
}

// workloads maps each workload to the function that runs it.
var workloads = map[string]func(config, *tracer) (*outcome, error){
	"registry": runRegistry,
	"replay":   runReplay,
	"live":     runLive,
}

// gateError marks a correctness-gate failure: the run emits no numbers.
type gateError struct{ err error }

func (g gateError) Error() string { return "correctness gate: " + g.err.Error() }
func (g gateError) Unwrap() error { return g.err }

// outcome is one measured run.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64
	layers            map[string]float64
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{e2e: make(map[string]float64), layers: make(map[string]float64)}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// referenceLayers records the timed reference engine's layers. Step self
// time is Step minus the Allocate inside it: energy, metering, billing.
// Serving workloads then replace the Allocate figures with the shards'.
func (o *outcome) referenceLayers(r *reference) {
	o.layers["sim.step.calls"] = float64(r.step.calls.Load())
	o.layers["sim.step.busy_s"] = r.step.busySeconds()
	o.layers["sim.step.self_s"] = r.step.busySeconds() - r.allocate.busySeconds()
	o.layers["sim.finalize.busy_s"] = r.finalize.Seconds()
	o.layers["routing.allocate.calls"] = float64(r.allocate.calls.Load())
	o.layers["routing.allocate.busy_s"] = r.allocate.busySeconds()
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// named is a metric's name and unit.
type named struct{ name, unit string }

// endToEnd lists the end-to-end metrics every workload reports.
var endToEnd = []named{
	{"setup_s", "s"},
	{"rate_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
}

// e2eMetrics is a run's end-to-end figures with their units.
func e2eMetrics(o *outcome) map[string]metric {
	out := make(map[string]metric, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = metric{o.e2e[m.name], m.unit}
	}
	return out
}

// perLayer lists the traced run's metrics and their units; every
// workload reports all of them, 0 where it does not exercise the layer.
func perLayer() []named {
	out := []named{
		{"routing.allocate.calls", "count"},
		{"routing.allocate.busy_s", "s"},
		{"sim.step.calls", "count"},
		{"sim.step.busy_s", "s"},
		{"sim.step.self_s", "s"},
		{"sim.finalize.busy_s", "s"},
		{"server.checkpoint.calls", "count"},
		{"server.checkpoint.busy_s", "s"},
		{"sim.checkpoint.take_s", "s"},
		{"sim.checkpoint.bytes", "B"},
		{"sim.checkpoint.encode_s", "s"},
		{"sim.checkpoint.decode_s", "s"},
		{"sim.merge_s", "s"},
		{"sim.restore_s", "s"},
		{"coord.status.calls", "count"},
		{"coord.status.busy_s", "s"},
		{"coord.status.self_s", "s"},
		{"coord.refresh.pulls_per_read", "ratio"},
		{"coord.degraded_reads", "count"},
	}
	for _, route := range []string{"coord.prices", "coord.demand"} {
		out = append(out,
			named{route + ".calls", "count"},
			named{route + ".busy_s", "s"},
			named{route + ".self_s", "s"})
	}
	for _, route := range []string{"server.prices", "server.demand"} {
		out = append(out,
			named{route + ".calls", "count"},
			named{route + ".busy_s", "s"})
	}
	out = append(out, named{"server.demand.skew_s", "s"})
	for _, id := range experiments.IDs() {
		out = append(out, named{"experiments." + id + ".busy_s", "s"})
	}
	return append(out,
		named{"experiments.busy_ratio", "ratio"},
		named{"gen.build_s", "s"},
		named{"gen.late_p99_ms", "ms"},
		named{"bench.peak_rss_mb", "MB"},
		named{"bench.failed_ratio", "ratio"},
		named{"bench.steal_ratio", "ratio"},
		named{"bench.trace_overhead_ratio", "ratio"})
}

// execute runs cfg's workload. A traced run measures the workload
// untraced first, then traced, and reports the traced run's layers with
// the ratio of the two runs' median latencies.
func execute(cfg config) (*report, []string, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if !cfg.trace {
		o, err := fn(cfg, nil)
		if err != nil {
			return failedReport(o), nil, err
		}
		return &report{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: e2eMetrics(o)}, o.notes, nil
	}
	base, err := fn(cfg, nil)
	if err != nil {
		return failedReport(base), nil, err
	}
	tr := newTracer()
	o, err := fn(cfg, tr)
	if err != nil {
		return failedReport(o), nil, err
	}
	spanLayers(tr.snapshot(), o.layers)
	o.layers["bench.trace_overhead_ratio"] = o.e2e["p50_ms"] / base.e2e["p50_ms"]
	if o.attempted > 0 {
		o.layers["bench.failed_ratio"] = float64(o.failed) / float64(o.attempted)
	}
	if cfg.traceFile != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.traceFile), 0o755); err != nil {
			return nil, nil, err
		}
		if err := tr.writeFile(cfg.traceFile); err != nil {
			return nil, nil, err
		}
	}
	r := &report{Correct: true, Attempted: base.attempted + o.attempted, Failed: base.failed + o.failed, Metrics: make(map[string]metric)}
	for _, m := range perLayer() {
		r.Metrics[m.name] = metric{o.layers[m.name], m.unit}
	}
	return r, o.notes, nil
}

// failedReport is what a gate failure prints: no numbers.
func failedReport(o *outcome) *report {
	r := &report{Metrics: map[string]metric{}}
	if o != nil {
		r.Attempted, r.Failed = o.attempted, o.failed
	}
	return r
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 15, "measured time per run")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg := newConfig(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	rep, notes, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		var gate gateError
		if errors.As(err, &gate) && rep != nil {
			b, _ := json.Marshal(rep)
			fmt.Fprintln(stdout, string(b))
		}
		return 1
	}
	for _, n := range notes {
		fmt.Fprintln(stdout, n)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
