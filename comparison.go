package specchar

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"specchar/internal/baselines"
	"specchar/internal/dataset"
	"specchar/internal/metrics"
	"specchar/internal/mtree"
	"specchar/internal/suites"
	"specchar/internal/tables"
	"specchar/internal/transfer"
)

// ModelComparison is one row of the regression-algorithm comparison: the
// experiment of the paper's reference [15], which found M5 model trees as
// accurate as neural networks while remaining interpretable.
type ModelComparison struct {
	Name     string
	TrainDur time.Duration
	Metrics  metrics.Report
}

// CompareModels trains the M5' tree and the three baseline regressors
// (global linear, k-NN, MLP) on the CPU2006 10% training split and
// evaluates all of them on the held-out remainder.
func (s *Study) CompareModels() ([]ModelComparison, error) {
	train, test := s.CPUTrain, s.CPUTest
	var out []ModelComparison

	evaluate := func(name string, dur time.Duration, predict func([]float64) float64) error {
		preds := predictAll(test, predict)
		rep, err := metrics.Compute(preds, test.Ys())
		if err != nil {
			return err
		}
		out = append(out, ModelComparison{Name: name, TrainDur: dur, Metrics: rep})
		return nil
	}

	// M5' model tree: score through the study's compiled form — the same
	// model, pre-composed into flat arrays for batch evaluation.
	start := time.Now()
	ctree := s.CPUModelCompiled
	treeDur := time.Since(start)
	if err := evaluate("M5' model tree", treeDur, ctree.Predict); err != nil {
		return nil, err
	}

	start = time.Now()
	lin, err := baselines.TrainLinear(train)
	if err != nil {
		return nil, err
	}
	if err := evaluate(lin.Name(), time.Since(start), lin.Predict); err != nil {
		return nil, err
	}

	start = time.Now()
	knn, err := baselines.TrainKNN(train, 5)
	if err != nil {
		return nil, err
	}
	if err := evaluate(knn.Name(), time.Since(start), knn.Predict); err != nil {
		return nil, err
	}

	start = time.Now()
	mlp, err := baselines.TrainMLP(train, baselines.MLPConfig{
		Hidden: 24, Epochs: 150, LearnRate: 0.02, Seed: s.Config.SplitSeed,
	})
	if err != nil {
		return nil, err
	}
	if err := evaluate(mlp.Name(), time.Since(start), mlp.Predict); err != nil {
		return nil, err
	}

	start = time.Now()
	bag, err := baselines.TrainBagged(train, 10, s.Config.SplitSeed,
		func(resample *dataset.Dataset) (baselines.Regressor, error) {
			t, err := mtree.Build(resample, s.Config.Tree)
			if err != nil {
				return nil, err
			}
			ct, err := t.Compile()
			if err != nil {
				return nil, err
			}
			return treeRegressor{ct}, nil
		})
	if err != nil {
		return nil, err
	}
	if err := evaluate(bag.Name(), time.Since(start), bag.Predict); err != nil {
		return nil, err
	}
	return out, nil
}

// ModelComparisonReport renders CompareModels as the "[15]-style"
// comparison table.
func (s *Study) ModelComparisonReport() (string, error) {
	rows, err := s.CompareModels()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("regression-algorithm comparison (ref [15] of the paper):\n")
	fmt.Fprintf(&b, "trained on %d CPU2006 samples, evaluated on %d held out\n\n",
		s.CPUTrain.Len(), s.CPUTest.Len())
	t := tables.New("model", "C", "MAE", "RMSE", "RAE")
	for _, r := range rows {
		t.AddRow(r.Name,
			fmt.Sprintf("%.4f", r.Metrics.Correlation),
			fmt.Sprintf("%.4f", r.Metrics.MAE),
			fmt.Sprintf("%.4f", r.Metrics.RMSE),
			fmt.Sprintf("%.4f", r.Metrics.RAE))
	}
	b.WriteString(t.String())
	b.WriteString("\nthe model tree matches the black-box learners while staying interpretable\n(the paper's core argument for M5' over ANNs and SVMs).\n")
	return b.String(), nil
}

// PlatformReport tests the other transferability axis the paper flags in
// Section III ("the results are specific to the architecture, platform,
// and compiler used"): the CPU2006 model trained on the default platform
// (4 MB L2, 256-entry DTLB) is applied to the same suite generated on a
// cut-down platform (1 MB L2, 64-entry DTLB). The model should not
// transfer across hardware any more than it transfers across suites.
func (s *Study) PlatformReport() (string, error) {
	alt := s.CoreConfig()
	alt.L2Size = 1 << 20
	alt.DTLBEntries = 64

	gen := s.Config.Gen
	gen.SamplesPerBenchmark = 60
	gen.Config = &alt
	cpu, _ := Suites()
	altData, err := suites.Generate(cpu, gen)
	if err != nil {
		return "", err
	}
	a, err := transfer.Assess(s.CPUModelCompiled, s.CPUTrain, altData,
		"SPEC CPU2006 (4MB L2, 256-entry DTLB)",
		"SPEC CPU2006 (1MB L2, 64-entry DTLB)", transfer.Options{})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("cross-platform transferability (paper Section III caveat)\n\n")
	b.WriteString(a.String())
	b.WriteString("\nthe same workloads on different hardware are a different data-generating\nprocess: platform-specific models do not transfer across configurations.\n")
	return b.String(), nil
}

// predictAll evaluates a (read-only) point predictor over every test
// sample, fanning chunks across the cores. Each goroutine writes a
// disjoint range of the output, so the result is positionally identical
// to the serial loop.
func predictAll(test *dataset.Dataset, predict func([]float64) float64) []float64 {
	preds := make([]float64, test.Len())
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 || test.Len() < 256 {
		for i, smp := range test.Samples {
			preds[i] = predict(smp.X)
		}
		return preds
	}
	chunk := (test.Len() + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < test.Len(); lo += chunk {
		hi := lo + chunk
		if hi > test.Len() {
			hi = test.Len()
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				preds[i] = predict(test.Samples[i].X)
			}
		}(lo, hi)
	}
	wg.Wait()
	return preds
}

// treeRegressor adapts a compiled M5' tree to the baselines.Regressor
// interface. Bagging evaluates every ensemble member on every test row,
// so each resample tree is compiled once at training time.
type treeRegressor struct{ t *mtree.CompiledTree }

func (r treeRegressor) Predict(x []float64) float64 { return r.t.Predict(x) }
func (r treeRegressor) Name() string                { return "M5' model tree" }

// NoisePoint is one step of the measurement-noise robustness sweep.
type NoisePoint struct {
	Sigma   float64 // multiplicative lognormal noise on event densities
	Metrics metrics.Report
}

// NoiseSweep measures how the CPU2006 model degrades when the *test*
// samples' event densities are perturbed by multiplicative lognormal
// noise — a stand-in for counter sampling error beyond the multiplexing
// already modeled. The response (CPI) is left untouched; only the
// predictors are corrupted, so the sweep isolates the model's input
// sensitivity.
func (s *Study) NoiseSweep(sigmas []float64) ([]NoisePoint, error) {
	if sigmas == nil {
		sigmas = []float64{0, 0.05, 0.1, 0.2, 0.4}
	}
	out := make([]NoisePoint, 0, len(sigmas))
	for i, sigma := range sigmas {
		rng := dataset.NewRNG(s.Config.SplitSeed + uint64(i)*7919)
		noisy := dataset.New(s.CPUTest.Schema)
		for _, smp := range s.CPUTest.Samples {
			x := make([]float64, len(smp.X))
			for j, v := range smp.X {
				if sigma > 0 {
					x[j] = v * rng.LogNormal(0, sigma)
				} else {
					x[j] = v
				}
			}
			noisy.Samples = append(noisy.Samples, dataset.Sample{X: x, Y: smp.Y, Label: smp.Label})
		}
		pred, err := s.CPUModelCompiled.PredictDatasetCheckedContext(context.Background(), noisy)
		if err != nil {
			return nil, err
		}
		rep, err := metrics.Compute(pred, noisy.Ys())
		if err != nil {
			return nil, err
		}
		out = append(out, NoisePoint{Sigma: sigma, Metrics: rep})
	}
	return out, nil
}

// NoiseReport renders the noise-robustness sweep.
func (s *Study) NoiseReport() (string, error) {
	points, err := s.NoiseSweep(nil)
	if err != nil {
		return "", err
	}
	t := tables.New("noise sigma", "C", "MAE", "RMSE")
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%.2f", p.Sigma),
			fmt.Sprintf("%.4f", p.Metrics.Correlation),
			fmt.Sprintf("%.4f", p.Metrics.MAE),
			fmt.Sprintf("%.4f", p.Metrics.RMSE))
	}
	return "measurement-noise robustness (multiplicative lognormal noise on test event densities)\n\n" +
		t.String(), nil
}

// LineageReport assesses the CPU2006 model against a synthetic SPEC
// CPU2000 — the suite CPU2006 replaced. The suites share archetypes but
// differ in working-set scale, so the expectation sits between the
// paper's two poles: far better transfer than CPU2006→OMP2001, weaker
// than CPU2006→CPU2006.
func (s *Study) LineageReport() (string, error) {
	gen := s.Config.Gen
	gen.SamplesPerBenchmark = 80
	old, err := suites.Generate(suites.CPU2000(), gen)
	if err != nil {
		return "", err
	}
	a, err := transfer.Assess(s.CPUModelCompiled, s.CPUTrain, old,
		"SPEC CPU2006 (10%)", "SPEC CPU2000 (synthetic)", transfer.Options{})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("suite-lineage transferability: CPU2006 model on its predecessor suite\n\n")
	b.WriteString(a.String())
	// Context: the two poles from the main study.
	self, err := s.AssessTransfer("cpu->cpu")
	if err != nil {
		return "", err
	}
	cross, err := s.AssessTransfer("cpu->omp")
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\nfor reference: C=%.3f/MAE=%.3f to held-out CPU2006; C=%.3f/MAE=%.3f to OMP2001.\n",
		self.Metrics.Correlation, self.Metrics.MAE, cross.Metrics.Correlation, cross.Metrics.MAE)
	return b.String(), nil
}
