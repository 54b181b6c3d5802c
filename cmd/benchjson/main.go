// Command benchjson converts `go test -bench` output into a small JSON
// report, optionally annotated with a baseline for speedup bookkeeping.
//
// It reads benchmark result lines from stdin:
//
//	BenchmarkBuildSerial   6   122857743 ns/op   1962750 B/op   8308 allocs/op
//
// and writes a JSON document mapping each benchmark name to its measured
// numbers. With -baseline name=ns_per_op pairs (repeatable), the report
// also records the baseline and the resulting speedup factor, which is
// how scripts/bench.sh produces the checked-in BENCH_*.json evidence
// files.
//
// With -gate name=max_ns (repeatable) the report is also a check: after
// writing it, benchjson exits 1 if any gated benchmark's ns/op exceeds
// its bound. scripts/bench.sh derives the bounds from a checked-in
// baseline with a noise multiplier.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark's measurement, plus the optional baseline
// comparison.
type Result struct {
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	BaselineNs  float64 `json:"baseline_ns_per_op,omitempty"`
	Speedup     float64 `json:"speedup,omitempty"`
}

// Report is the document benchjson emits.
type Report struct {
	Label      string            `json:"label,omitempty"`
	GoOS       string            `json:"goos,omitempty"`
	GoArch     string            `json:"goarch,omitempty"`
	CPU        string            `json:"cpu,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// baselines accumulates repeated -baseline name=ns flags.
type baselines map[string]float64

func (b baselines) String() string { return fmt.Sprint(map[string]float64(b)) }

func (b baselines) Set(v string) error {
	name, ns, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=ns_per_op, got %q", v)
	}
	f, err := strconv.ParseFloat(ns, 64)
	if err != nil {
		return fmt.Errorf("bad baseline %q: %w", v, err)
	}
	b[name] = f
	return nil
}

// parseLine decodes one benchmark result line; ok is false for headers,
// PASS/ok trailers, and anything else that is not a measurement.
func parseLine(line string, rep *Report) (name string, r Result, ok bool) {
	switch {
	case strings.HasPrefix(line, "goos:"):
		rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		return "", r, false
	case strings.HasPrefix(line, "goarch:"):
		rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		return "", r, false
	case strings.HasPrefix(line, "cpu:"):
		rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		return "", r, false
	case !strings.HasPrefix(line, "Benchmark"):
		return "", r, false
	}
	f := strings.Fields(line)
	if len(f) < 4 || f[3] != "ns/op" {
		return "", r, false
	}
	iters, err1 := strconv.Atoi(f[1])
	ns, err2 := strconv.ParseFloat(f[2], 64)
	if err1 != nil || err2 != nil {
		return "", r, false
	}
	// Strip the -N GOMAXPROCS suffix go test appends to parallel names.
	name = f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	r = Result{Iterations: iters, NsPerOp: ns}
	for i := 3; i+1 < len(f); i += 2 {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	return name, r, true
}

func main() {
	base := baselines{}
	gates := baselines{}
	label := flag.String("label", "", "free-form label recorded in the report")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Var(base, "baseline", "baseline as name=ns_per_op; repeatable")
	flag.Var(gates, "gate", "regression gate as name=max_ns_per_op; exit 1 if exceeded; repeatable")
	flag.Parse()

	rep := Report{Label: *label, Benchmarks: map[string]Result{}}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		name, r, ok := parseLine(strings.TrimSpace(sc.Text()), &rep)
		if !ok {
			continue
		}
		if b, have := base[name]; have && r.NsPerOp > 0 {
			r.BaselineNs = b
			r.Speedup = b / r.NsPerOp
		}
		rep.Benchmarks[name] = r
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	// Gates run after the report is written: a regression still leaves
	// the evidence file behind for diagnosis.
	failed := false
	for name, maxNs := range gates {
		r, have := rep.Benchmarks[name]
		if !have {
			fmt.Fprintf(os.Stderr, "benchjson: gate %s: benchmark not in input\n", name)
			failed = true
			continue
		}
		if r.NsPerOp > maxNs {
			fmt.Fprintf(os.Stderr, "benchjson: gate %s: %.0f ns/op exceeds bound %.0f ns/op\n",
				name, r.NsPerOp, maxNs)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
