package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"specchar"
	"specchar/internal/dataset"
	"specchar/internal/mtree"
	"specchar/internal/obs"
	"specchar/internal/suites"
)

// studyExperiments are the paper's tables, figures and transferability
// results: what one study renders.
var studyExperiments = []string{
	specchar.ExpTable1, specchar.ExpFigure1, specchar.ExpTable2, specchar.ExpTable3,
	specchar.ExpFigure2, specchar.ExpTable4, specchar.ExpTTestSelf, specchar.ExpTTestCross,
	specchar.ExpAccuracy, specchar.ExpReverse,
}

// induceExperiments are the experiments that train and score models but
// never run the simulator.
var induceExperiments = []string{
	specchar.ExpTable2, specchar.ExpTable3, specchar.ExpTable4, specchar.ExpTTestSelf,
	specchar.ExpTTestCross, specchar.ExpAccuracy, specchar.ExpReverse, specchar.ExpSweep,
	specchar.ExpSubset, specchar.ExpModels, specchar.ExpImportance, specchar.ExpPhases,
	specchar.ExpNoise,
}

// allExperiments is every experiment either workload runs, once each.
var allExperiments = func() []string {
	ids := append([]string(nil), studyExperiments...)
	for _, id := range induceExperiments {
		if !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	return ids
}()

// runStudy times one full paper study from an empty process: generate
// both suites, build and compile the four trees, render the study's
// experiments.
func runStudy(ctx context.Context, o options, out *outcome) error {
	cfg := paperConfig(o.seed)
	var cpuSuite, ompSuite *suites.Suite
	var ops int64
	setup, err := timeSetup(studySetupRepeats, func(bool) error {
		cpuSuite, ompSuite = specchar.Suites()
		ops = simOps(cpuSuite, cfg.Gen) + simOps(ompSuite, cfg.Gen)
		return nil
	})
	if err != nil {
		return err
	}

	var r *studyRun
	ph, err := measure(func() (err error) {
		r, err = studyPass(ctx, cfg, cpuSuite, ompSuite, nil, out)
		return err
	})
	if err != nil {
		return err
	}
	checkDatasets(o.seed, r.study.CPU, r.study.OMP, out)
	checkStudy(ctx, o.seed, r.study, out)

	if !o.traced {
		score, err := scoreProbe(ctx, r.study)
		if err != nil {
			return err
		}
		out.set("setup_s", setup.Seconds())
		setPhase(out, ph)
		out.set("sim_mops_per_s", float64(ops)/r.gen.Seconds()/1e6)
		out.set("score_p50_ms", ms(score))
		out.set("samples_per_s", float64(r.study.CPU.Len()+r.study.OMP.Len())/ph.wall.Seconds())
		return nil
	}

	r = nil
	tctx, rec, led := startTracing(ctx)
	tph, err := measure(func() (err error) {
		r, err = studyPass(tctx, cfg, cpuSuite, ompSuite, led, out)
		return err
	})
	if err != nil {
		return err
	}
	checkStudy(ctx, o.seed, r.study, out)
	top := led.total("suites.generate") + led.total("mtree.build")
	for _, id := range studyExperiments {
		top += led.total("exp." + id)
	}
	out.set("bench.span_share", top.Seconds()/tph.wall.Seconds())
	setTracedLayers(out, ph, tph, rec, led)
	if err := setSimLayers(out, o.seed, led.total("suites.generate"), ops, cpuSuite, ompSuite); err != nil {
		return err
	}
	return compileLayer(tctx, led, out, r.study)
}

// studyRun is one timed study: its artifacts and the part of its wall
// time spent generating.
type studyRun struct {
	study *specchar.Study
	gen   time.Duration
}

// studyPass is specchar.RunContext (generate both suites, then
// StudyFromDatasetsContext) called in its two steps so generation is
// timed apart, followed by the study's experiments through Study.Run.
func studyPass(ctx context.Context, cfg specchar.Config, cpuSuite, ompSuite *suites.Suite, led *ledger, out *outcome) (*studyRun, error) {
	t := time.Now()
	var cpu, omp *dataset.Dataset
	if err := led.span("suites.generate", func() (err error) {
		cpu, err = suites.GenerateContext(ctx, cpuSuite, cfg.Gen)
		return err
	}); err != nil {
		return nil, err
	}
	if err := led.span("suites.generate", func() (err error) {
		omp, err = suites.GenerateContext(ctx, ompSuite, cfg.Gen)
		return err
	}); err != nil {
		return nil, err
	}
	r := &studyRun{gen: time.Since(t)}
	if err := led.span("mtree.build", func() (err error) {
		r.study, err = specchar.StudyFromDatasetsContext(ctx, cfg, cpu, omp)
		return err
	}); err != nil {
		return nil, err
	}
	runExperiments(r.study, studyExperiments, led, out)
	return r, nil
}

// runExperiments renders each experiment; each is one operation.
func runExperiments(s *specchar.Study, ids []string, led *ledger, out *outcome) {
	for _, id := range ids {
		err := led.span("exp."+id, func() error {
			report, err := s.Run(id)
			if err == nil && report == "" {
				err = fmt.Errorf("empty report")
			}
			return err
		})
		out.check(err == nil, "experiment %s: %v", id, err)
	}
}

// runInduce generates the full-scale suites once in set-up, then times a
// fixed number of induction passes over them: StudyFromDatasetsContext
// and the experiments that do not simulate, each pass on a different
// train/test split. Checks run between passes, outside the timed slices.
func runInduce(ctx context.Context, o options, out *outcome) error {
	cfg := paperConfig(o.seed)
	cpuSuite, ompSuite := specchar.Suites()
	ops := simOps(cpuSuite, cfg.Gen) + simOps(ompSuite, cfg.Gen)
	passes := o.seconds

	sctx, rec, led := ctx, (*obs.Recorder)(nil), (*ledger)(nil)
	if o.traced {
		sctx, rec, led = startTracing(ctx)
	}
	// One set-up generates both suites at full scale (about as long as a
	// study); it is not repeated, so setup_s is a single reading.
	var cpu, omp *dataset.Dataset
	t := time.Now()
	if err := led.span("suites.generate", func() (err error) {
		if cpu, err = suites.GenerateContext(sctx, cpuSuite, cfg.Gen); err != nil {
			return err
		}
		omp, err = suites.GenerateContext(sctx, ompSuite, cfg.Gen)
		return err
	}); err != nil {
		return err
	}
	setup := time.Since(t)
	checkDatasets(o.seed, cpu, omp, out)

	ps, s, err := inducePasses(ctx, o.seed, cfg, cpu, omp, passes, nil, out)
	if err != nil {
		return err
	}
	ph := medianPass(ps)
	if !o.traced {
		score, err := scoreProbe(ctx, s)
		if err != nil {
			return err
		}
		out.set("setup_s", setup.Seconds())
		setPhase(out, ph)
		out.set("sim_mops_per_s", float64(ops)/setup.Seconds()/1e6)
		out.set("score_p50_ms", ms(score))
		out.set("samples_per_s", float64(cpu.Len()+omp.Len())/ph.wall.Seconds())
		return nil
	}

	tps, s, err := inducePasses(sctx, o.seed, cfg, cpu, omp, passes, led, out)
	if err != nil {
		return err
	}
	top := led.total("mtree.build")
	for _, id := range induceExperiments {
		top += led.total("exp." + id)
	}
	var twall time.Duration
	for _, p := range tps {
		twall += p.wall
	}
	out.set("bench.span_share", top.Seconds()/twall.Seconds())
	setTracedLayers(out, ph, medianPass(tps), rec, led)
	if err := setSimLayers(out, o.seed, led.total("suites.generate"), ops, cpuSuite, ompSuite); err != nil {
		return err
	}
	return compileLayer(sctx, led, out, s)
}

// inducePasses times passes induction passes, pass i on SplitSeed
// default+i, each as its own phase, and returns the phases and the last
// pass's study. The first pass uses the repository's default split, so
// its trees and transfer verdicts are checked.
func inducePasses(ctx context.Context, seed uint64, cfg specchar.Config, cpu, omp *dataset.Dataset, passes int, led *ledger, out *outcome) ([]phase, *specchar.Study, error) {
	ps := make([]phase, passes)
	var s *specchar.Study
	for i := range ps {
		c := cfg
		c.SplitSeed += uint64(i)
		var err error
		ps[i], err = measure(func() error {
			if err := led.span("mtree.build", func() (err error) {
				s, err = specchar.StudyFromDatasetsContext(ctx, c, cpu, omp)
				return err
			}); err != nil {
				return err
			}
			runExperiments(s, induceExperiments, led, out)
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			checkStudy(ctx, seed, s, out)
		}
	}
	return ps, s, nil
}

// medianPass is the typical pass: the median of each figure over the
// passes, and the highest peak RSS. Induce reports per-pass figures so
// that a pass slowed by a noisy neighbour does not move them.
func medianPass(ps []phase) phase {
	field := func(f func(phase) float64) float64 {
		vs := make([]float64, len(ps))
		for i, p := range ps {
			vs[i] = f(p)
		}
		slices.Sort(vs)
		return vs[(len(vs)-1)/2]
	}
	var peak float64
	for _, p := range ps {
		peak = max(peak, p.peakMiB)
	}
	return phase{
		wall:      time.Duration(field(func(p phase) float64 { return float64(p.wall) })),
		cpu:       time.Duration(field(func(p phase) float64 { return float64(p.cpu) })),
		allocMiB:  field(func(p phase) float64 { return p.allocMiB }),
		gcCycles:  field(func(p phase) float64 { return p.gcCycles }),
		gcPauseMS: field(func(p phase) float64 { return p.gcPauseMS }),
		peakMiB:   peak,
	}
}

// scoreProbeCalls is how many assessments scoreProbe times.
const scoreProbeCalls = 200

// scoreProbe is the latency of the study's unit of model scoring, timed
// after the timed phase: the median of scoreProbeCalls cpu->cpu transfer
// assessments (score the held-out CPU2006 samples with the 10% model,
// then run the Section VI tests on the predictions).
func scoreProbe(ctx context.Context, s *specchar.Study) (time.Duration, error) {
	ds := make([]time.Duration, scoreProbeCalls)
	for i := range ds {
		t := time.Now()
		if _, err := s.AssessTransferContext(ctx, "cpu->cpu"); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t)
	}
	return median(ds), nil
}

// checkDatasets checks the generated suites: their sizes for any seed,
// and their bytes against the pinned digests for the pinned seed.
func checkDatasets(seed uint64, cpu, omp *dataset.Dataset, out *outcome) {
	out.check(cpu.Len() == cpuSamples, "CPU2006 has %d samples, want %d", cpu.Len(), cpuSamples)
	out.check(omp.Len() == ompSamples, "OMP2001 has %d samples, want %d", omp.Len(), ompSamples)
	if seed != pinnedSeed {
		return
	}
	checkDigest(out, "cpu2006.csv", cpu.WriteCSV)
	checkDigest(out, "omp2001.csv", omp.WriteCSV)
}

// checkStudy checks a study built on the default split. For the pinned
// seed: the four trees against the pinned digests and all four of the
// paper's transfer verdicts. For any seed: the two cross-suite transfers
// fail, and each self-transfer model's compiled predictions on its
// held-out samples agree with the tree's own Predict.
//
// The self-transfer verdicts are checked at the pinned seed only. They
// are statistical outcomes of the generated data, not properties every
// seed must have: at seed 1551559363 the OMP2001 model scores C=0.758 on
// its held-out samples, below the paper's 0.85, with MAE and both t-tests
// passing; cpu->cpu's prediction t-test reads |t|=1.84 against 1.96 at
// seed 3141592653. The cross-suite verdicts fail on every gate by a wide
// margin on every seed probed (C <= 0.65, MAE >= 0.29, |t| >= 3.6).
func checkStudy(ctx context.Context, seed uint64, s *specchar.Study, out *outcome) {
	if seed == pinnedSeed {
		for name, t := range map[string]*mtree.Tree{
			"cpu2006.tree": s.CPUTree, "omp2001.tree": s.OMPTree,
			"cpu2006.model": s.CPUModel, "omp2001.model": s.OMPModel,
		} {
			checkDigest(out, name, t.WriteJSON)
		}
	}
	for _, d := range specchar.Directions() {
		self := d == "cpu->cpu" || d == "omp->omp"
		if self && seed != pinnedSeed {
			continue
		}
		a, err := s.AssessTransferContext(ctx, d)
		out.check(err == nil && a.Transferable() == self, "%s transferable: want %v (err %v)", d, self, err)
	}
	checkCompiled(ctx, out, "cpu2006 model", s.CPUModel, s.CPUModelCompiled, s.CPUTest)
	checkCompiled(ctx, out, "omp2001 model", s.OMPModel, s.OMPModelCompiled, s.OMPTest)
}

// checkCompiled compares c, the compiled form of t that the study's
// assessments score with, against the tree's own per-sample Predict on
// every sample of d, to float rounding (relative 1e-9).
func checkCompiled(ctx context.Context, out *outcome, name string, t *mtree.Tree, c *mtree.CompiledTree, d *dataset.Dataset) {
	preds, err := c.PredictDatasetCheckedContext(ctx, d)
	bad := 0
	for i := range preds {
		want := t.Predict(d.Samples[i].X)
		if math.Abs(preds[i]-want) > 1e-9*math.Max(1, math.Max(math.Abs(preds[i]), math.Abs(want))) {
			bad++
		}
	}
	out.check(err == nil && bad == 0, "%s: %d of %d compiled predictions differ from Tree.Predict (err %v)", name, bad, d.Len(), err)
}

// checkDigest compares the SHA-256 of what write produces with the pinned
// digest of the named artifact.
func checkDigest(out *outcome, name string, write func(io.Writer) error) {
	h := sha256.New()
	err := write(h)
	got := hex.EncodeToString(h.Sum(nil))
	out.check(err == nil && got == pinned[name], "%s digest %s, pinned %s (err %v)", name, got, pinned[name], err)
}

// compileLayer times CompileContext on each of the study's four trees:
// the compile step StudyFromDatasetsContext runs inside mtree.build.
func compileLayer(ctx context.Context, led *ledger, out *outcome, s *specchar.Study) error {
	for _, t := range []*mtree.Tree{s.CPUTree, s.OMPTree, s.CPUModel, s.OMPModel} {
		if err := led.span("mtree.compile", func() error {
			_, err := t.CompileContext(ctx)
			return err
		}); err != nil {
			return err
		}
	}
	out.set("mtree.compile_ms", ms(led.total("mtree.compile")))
	return nil
}

// startTracing returns a context carrying an obs recorder with a memory
// sink, the recorder, and an empty ledger for the benchmark's own spans.
func startTracing(ctx context.Context) (context.Context, *obs.Recorder, *ledger) {
	rec := obs.New(obs.NewMemorySink())
	return obs.WithRecorder(ctx, rec), rec, newLedger()
}

// setPhase reports the end-to-end metrics a timed phase measures itself.
func setPhase(out *outcome, ph phase) {
	out.set("wall_s", ph.wall.Seconds())
	out.set("cpu_s", ph.cpu.Seconds())
	out.set("peak_rss_mib", ph.peakMiB)
}

// setTracedLayers reports the per-layer metrics every workload shares:
// tracing overhead (traced minus untraced pass), process and Go runtime
// figures of the untraced pass, the benchmark's induction spans and the
// program's own mtree.build.* spans.
func setTracedLayers(out *outcome, untraced, traced phase, rec *obs.Recorder, led *ledger) {
	out.set("trace.overhead_s", (traced.wall - untraced.wall).Seconds())
	out.set("proc.cpu_util", untraced.cpu.Seconds()/untraced.wall.Seconds())
	out.set("go.alloc_mib", untraced.allocMiB)
	out.set("go.gc_cycles", untraced.gcCycles)
	out.set("go.gc_pause_ms", untraced.gcPauseMS)
	out.set("mtree.build_s", led.total("mtree.build").Seconds())
	for _, id := range allExperiments {
		out.set("exp."+id+"_s", led.total("exp."+id).Seconds())
	}
	stages := map[string]float64{}
	for _, st := range rec.StageStats() {
		stages[st.Name] = st.WallMS / 1e3
	}
	for _, name := range []string{"mtree.build.fit", "mtree.build.grow", "mtree.build.presort", "mtree.build.prune"} {
		out.set(name+"_s", stages[name])
	}
}

// setSimLayers reports the simulator's layers: generation time and op
// count, and the Next/Core.Run split from simProbe.
func setSimLayers(out *outcome, seed uint64, gen time.Duration, ops int64, ss ...*suites.Suite) error {
	next, core, err := simProbe(seed, ss...)
	if err != nil {
		return err
	}
	out.set("suites.generate_s", gen.Seconds())
	out.set("suites.sim_ops", float64(ops))
	out.set("suites.ns_per_op", float64(gen.Nanoseconds())/float64(ops))
	out.set("trace.next_ns_per_op", next)
	out.set("uarch.core_ns_per_op", core)
	return nil
}
