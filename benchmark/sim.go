package main

import (
	"time"

	"specchar/internal/dataset"
	"specchar/internal/pmu"
	"specchar/internal/suites"
	"specchar/internal/trace"
	"specchar/internal/uarch"
)

// simOps is the exact number of ops suites.GenerateContext simulates for
// the suite: per phase that emits samples, WarmupOps of warm-up plus
// OpsPerWindow for each multiplexing window of each sample, doubled when
// a contending sibling core runs alongside.
func simOps(s *suites.Suite, opts suites.GenOptions) int64 {
	windows := int64(pmu.NewMultiplexer().Windows())
	var ops int64
	for i := range s.Benchmarks {
		perPhase := map[int]int64{}
		for _, p := range suites.PhaseLabels(&s.Benchmarks[i], opts) {
			perPhase[p]++
		}
		for _, samples := range perPhase {
			ops += int64(opts.WarmupOps) + samples*windows*int64(opts.OpsPerWindow)
		}
	}
	if opts.Contention {
		ops *= 2
	}
	return ops
}

// probeOpsPerPhase is how many ops the simulator probe replays per phase.
const probeOpsPerPhase = 20000

// simProbe splits the simulator's per-op cost between its two layers on
// one goroutine: it replays probeOpsPerPhase ops of every phase of the
// suites through trace.Generator.Next alone, then the same ops (same
// seeds) through uarch.Core.Run, whose time includes generating them.
// It returns host ns per op for Next, and for Core.Run minus Next.
func simProbe(seed uint64, ss ...*suites.Suite) (nextNS, coreNS float64, err error) {
	var tNext, tRun time.Duration
	var ops int
	for _, s := range ss {
		for bi := range s.Benchmarks {
			b := &s.Benchmarks[bi]
			core, err := uarch.NewCore(uarch.DefaultConfig())
			if err != nil {
				return 0, 0, err
			}
			for pi, ph := range b.Phases {
				phaseSeed := seed ^ uint64(bi+1)<<20 ^ uint64(pi+1)
				gen, err := trace.NewGenerator(ph, dataset.NewRNG(phaseSeed))
				if err != nil {
					return 0, 0, err
				}
				t := time.Now()
				for i := 0; i < probeOpsPerPhase; i++ {
					gen.Next()
				}
				tNext += time.Since(t)

				gen, err = trace.NewGenerator(ph, dataset.NewRNG(phaseSeed))
				if err != nil {
					return 0, 0, err
				}
				core.Preload(gen.DataRegion())
				core.PreloadCode(gen.CodeRegion())
				t = time.Now()
				core.Run(gen, probeOpsPerPhase)
				tRun += time.Since(t)
				ops += probeOpsPerPhase
			}
		}
	}
	nextNS = float64(tNext.Nanoseconds()) / float64(ops)
	coreNS = float64((tRun - tNext).Nanoseconds()) / float64(ops)
	return nextNS, coreNS, nil
}
