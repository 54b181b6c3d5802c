// Command benchmark is the repository's end-to-end benchmark. It runs one
// workload — a full paper study, repeated model induction over generated
// suites, or the scoring daemon under small-request or bulk load — on
// inputs made from --seed, checks every output, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the run repeats the timed phase with the
// benchmark's spans and the program's obs recorder on, and reports the
// per-layer ledger instead. README.md in this directory gives the design:
// why each workload exists and which layer metric should move which
// end-to-end metric. run.sh builds and runs it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"specchar"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"sim_mops_per_s", "Mops/s"},
	{"peak_rss_mib", "MiB"},
	{"score_p50_ms", "ms"},
	{"samples_per_s", "samples/s"},
}

// perLayer are the metrics a traced run reports. A layer the workload
// does not drive reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace.overhead_s", "s"},
		{"bench.span_share", "ratio"},
		{"proc.cpu_util", "ratio"},
		{"go.alloc_mib", "MiB"},
		{"go.gc_cycles", "count"},
		{"go.gc_pause_ms", "ms"},
		{"suites.generate_s", "s"},
		{"suites.sim_ops", "count"},
		{"suites.ns_per_op", "ns"},
		{"trace.next_ns_per_op", "ns"},
		{"uarch.core_ns_per_op", "ns"},
		{"mtree.build_s", "s"},
		{"mtree.compile_ms", "ms"},
		{"mtree.build.fit_s", "s"},
		{"mtree.build.grow_s", "s"},
		{"mtree.build.presort_s", "s"},
		{"mtree.build.prune_s", "s"},
	}
	for _, id := range allExperiments {
		defs = append(defs, metricDef{"exp." + id + "_s", "s"})
	}
	return append(defs,
		metricDef{"serve.handler_ms", "ms"},
		metricDef{"net.loopback_ms", "ms"},
		metricDef{"mtree.predict_us", "us"},
		metricDef{"serve.batches", "count"},
		metricDef{"serve.columnar_batches", "count"},
		metricDef{"serve.samples_per_batch", "samples"},
		metricDef{"serve.rejected", "count"},
		metricDef{"registry.put_ms", "ms"},
		metricDef{"client.encode_ms", "ms"},
		metricDef{"loadgen.late_p99_ms", "ms"},
		metricDef{"score_p99_ms", "ms"},
	)
}()

// options are the command-line inputs every workload receives.
type options struct {
	seed    uint64
	seconds int
	traced  bool
}

// paperConfig is the repository's default study configuration with the
// generation seed replaced by the workload seed: the only input a
// workload varies.
func paperConfig(seed uint64) specchar.Config {
	cfg := specchar.DefaultConfig()
	cfg.Gen.Seed = seed
	return cfg
}

// outcome accumulates one run's operations, checks and metrics. Load
// goroutines record checks concurrently.
type outcome struct {
	mu                sync.Mutex
	attempted, failed int
	values            map[string]float64
}

// check records one operation; a false ok counts it as failed.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "benchmark: FAILED: "+format+"\n", args...)
	}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// workloads maps --workload to its runner. Each runner sets up, runs its
// timed phase untraced, and in a traced run repeats that phase traced.
var workloads = map[string]func(context.Context, options, *outcome) error{
	"study":       runStudy,
	"induce":      runInduce,
	"serve-small": runServeSmall,
	"serve-bulk":  runServeBulk,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", specchar.DefaultConfig().Gen.Seed, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 15, "induce: number of passes; serve-small, serve-bulk: seconds of load; study always runs one study")
		trace    = flag.Int("trace", 0, "1 reports the per-layer ledger from a traced run; 0 the end-to-end metrics")
	)
	flag.Parse()
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1}
	out := &outcome{values: make(map[string]float64)}
	if err := runner(context.Background(), o, out); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *workload, err)
		return 1
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok && !o.traced {
			fmt.Fprintf(os.Stderr, "benchmark: %s did not measure %s\n", *workload, d.name)
			return 1
		}
		metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupRepeats is how many times a workload with a cheap set-up repeats
// it; setup_s is the median.
const setupRepeats = 5

// studySetupRepeats is setupRepeats for study, whose set-up takes ~0.3 ms:
// the median of 5 such readings jumped to 2.5 ms in one process of six
// (a collection or page faults landing in two of them), while the median
// of 51 stayed within 292-350 µs over six processes.
const studySetupRepeats = 51

// timeSetup runs setup n times and returns the median duration.
func timeSetup(n int, setup func(last bool) error) (time.Duration, error) {
	ds := make([]time.Duration, n)
	for i := range ds {
		t := time.Now()
		if err := setup(i == n-1); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t)
	}
	return median(ds), nil
}
