package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is one reading of the process-level counters the benchmark takes
// from outside the program: getrusage for CPU time and runtime/metrics
// for the Go runtime.
type usage struct {
	at       time.Time
	cpu      time.Duration
	alloc    uint64  // cumulative heap bytes allocated
	gcCycles uint64  // completed GC cycles
	gcPause  float64 // cumulative stop-the-world GC pause, seconds
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail on Linux with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	metrics.Read(runtimeSamples)
	u := usage{at: time.Now(), cpu: cpu}
	if s := runtimeSamples[0].Value; s.Kind() == metrics.KindUint64 {
		u.alloc = s.Uint64()
	}
	if s := runtimeSamples[1].Value; s.Kind() == metrics.KindUint64 {
		u.gcCycles = s.Uint64()
	}
	if s := runtimeSamples[2].Value; s.Kind() == metrics.KindFloat64Histogram {
		u.gcPause = histogramSum(s.Float64Histogram())
	}
	return u
}

// histogramSum estimates the total of a runtime/metrics histogram from
// its bucket midpoints (the finite edge for the open-ended buckets).
func histogramSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		sum += float64(n) * mid
	}
	return sum
}

// phase is what one timed phase cost the process.
type phase struct {
	wall, cpu time.Duration
	allocMiB  float64
	gcCycles  float64
	gcPauseMS float64
	peakMiB   float64 // peak resident set during the phase
}

// measure runs f as one timed phase. Garbage left by set-up is collected
// and returned to the OS first, and the kernel's peak-RSS mark is reset,
// so every figure covers f alone.
func measure(f func() error) (phase, error) {
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return phase{}, err
	}
	u0 := readUsage()
	err := f()
	u1 := readUsage()
	peak, perr := peakRSSMiB()
	if err == nil {
		err = perr
	}
	return phase{
		wall:      u1.at.Sub(u0.at),
		cpu:       u1.cpu - u0.cpu,
		allocMiB:  float64(u1.alloc-u0.alloc) / (1 << 20),
		gcCycles:  float64(u1.gcCycles - u0.gcCycles),
		gcPauseMS: (u1.gcPause - u0.gcPause) * 1e3,
		peakMiB:   peak,
	}, err
}

// resetPeakRSS sets the process's VmHWM back to its current RSS
// (Linux 4.0+: writing 5 to /proc/self/clear_refs).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads VmHWM from /proc/self/status.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// ledger holds the benchmark's own spans: the summed wall time of the
// calls the benchmark makes into a layer, by span name. A nil ledger
// records nothing, which is how untraced passes run. Spans are taken on
// the benchmark's main goroutine only.
type ledger struct{ spans map[string]time.Duration }

func newLedger() *ledger { return &ledger{spans: make(map[string]time.Duration)} }

// span times f under name.
func (l *ledger) span(name string, f func() error) error {
	if l == nil {
		return f()
	}
	t := time.Now()
	err := f()
	l.spans[name] += time.Since(t)
	return err
}

// total is the summed duration of every span named name.
func (l *ledger) total(name string) time.Duration { return l.spans[name] }

// quantile returns the q-quantile of ds (nearest rank), 0 for none.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median of ds; the set-up time of a workload that sets up more than once.
func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
