// Command specchar is the study driver: it generates synthetic SPEC
// CPU2006 / SPEC OMP2001 datasets, trains M5' model trees over them, and
// runs the paper's characterization and transferability analyses.
//
// Usage:
//
//	specchar [-cpuprofile cpu.pprof] [-memprofile mem.pprof] <command> [flags]
//
//	specchar events
//	specchar datagen      -suite <suite> [-o file] [-format csv|arff] [-quick] [-seed N]
//	specchar tree         -suite <suite> [-quick] [-minleaf N] [-eval F] [-workers N]
//	specchar characterize -suite <suite> [-quick]
//	specchar compile      -suite <suite> -o model.sct [-quick]
//	specchar convert      -i data.csv -o data.spcol
//	specchar score        -model model.sct -data data.spcol [-o preds] [-check ref]
//	specchar transfer     [-quick]
//	specchar matrix       [-suites cpu2000,cpu2006,cpu2017,cpu2026] [-o dir] [-quick] [-seed N]
//
// For the full per-table/per-figure reproduction, see cmd/experiments.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"

	"specchar"
	"specchar/internal/characterize"
	"specchar/internal/dataset"
	"specchar/internal/metrics"
	"specchar/internal/mtree"
	"specchar/internal/obs"
	"specchar/internal/profiling"
	"specchar/internal/robust"
	"specchar/internal/suites"
	"specchar/internal/tables"
)

// exitInterrupted is the exit code for a run stopped by SIGINT/SIGTERM,
// following the shell convention of 128 + signal number (SIGINT = 2).
const exitInterrupted = 130

// obsRun carries the invocation's observability state (recorder, trace
// sinks, manifest) from main to the subcommands that describe their
// artifacts into the manifest.
var obsRun *obs.CLIRun

func main() {
	log.SetFlags(0)
	log.SetPrefix("specchar: ")
	// Top-level flags precede the subcommand: specchar -cpuprofile p tree ...
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	logJSON := flag.Bool("log-json", false, "stream the span trace as JSON Lines to stderr")
	obsOut := flag.String("obs-out", "", "write the deterministic end-of-run manifest (JSON) to this file")
	metricsOut := flag.String("metrics-out", "", "write metrics in Prometheus text format to this file at exit")
	profileBundle := flag.String("profile-bundle", "", "capture CPU/heap profiles, span trace, manifest and metrics together under this directory")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	// A -profile-bundle fills every capture path the user left unset, so
	// one flag yields pprof profiles and the span trace of the same run.
	tracePath := ""
	if *profileBundle != "" {
		bp, err := profiling.Bundle(*profileBundle)
		if err != nil {
			log.Fatal(err)
		}
		if *cpuProfile == "" {
			*cpuProfile = bp.CPU
		}
		if *memProfile == "" {
			*memProfile = bp.Mem
		}
		if *obsOut == "" {
			*obsOut = bp.Manifest
		}
		if *metricsOut == "" {
			*metricsOut = bp.Metrics
		}
		tracePath = bp.Trace
	}
	stopProfiling, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	obsRun, err = obs.StartCLIRun("specchar", os.Args[1:], *logJSON, tracePath, *obsOut, *metricsOut)
	if err != nil {
		log.Fatal(err)
	}
	// First SIGINT/SIGTERM cancels the context; the pipeline unwinds at
	// the next chunk boundary, staged output files are discarded, and the
	// run exits with the interrupted code. A second signal kills the
	// process the default way (stop() restores default disposition once
	// the context is done).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx = obsRun.Context(ctx)
	switch cmd {
	case "events":
		fmt.Print(specchar.Table1())
	case "datagen":
		err = runDatagen(ctx, args)
	case "tree":
		err = runTree(ctx, args)
	case "characterize":
		err = runCharacterize(ctx, args)
	case "transfer":
		err = runTransfer(ctx, args)
	case "matrix":
		err = runMatrix(ctx, args)
	case "subset":
		err = runSubset(ctx, args)
	case "compare":
		err = runCompare(ctx, args)
	case "bench":
		err = runBench(ctx, args)
	case "compile":
		err = runCompile(ctx, args)
	case "convert":
		err = runConvert(ctx, args)
	case "score":
		err = runScore(ctx, args)
	case "importance":
		err = runStudyReport(ctx, args, func(st *specchar.Study) (string, error) { return st.ImportanceReport(3) })
	case "phases":
		err = runStudyReport(ctx, args, (*specchar.Study).PhaseReport)
	case "cpistack":
		err = runStudyReport(ctx, args, (*specchar.Study).CPIStackReport)
	default:
		usage()
	}
	if oerr := obsRun.Finish(); err == nil {
		err = oerr
	}
	if perr := stopProfiling(); err == nil {
		err = perr
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			log.Print("interrupted; staged outputs discarded, completed outputs kept")
			os.Exit(exitInterrupted)
		}
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: specchar [-cpuprofile file] [-memprofile file] [-log-json]
                [-obs-out file] [-metrics-out file] [-profile-bundle dir]
                <command> [flags]

commands:
  events        print the PMU event catalog (the paper's Table I)
  datagen       generate a suite dataset to CSV or ARFF
  tree          generate a suite dataset and print its M5' model tree
  characterize  print the per-benchmark linear-model distribution and similarity
  transfer      run the four transferability assessments of Section VI
  matrix        N×N cross-generation transfer matrix over the suite zoo
  subset        select a representative benchmark subset (PCA + clustering)
  compare       compare M5' against linear/kNN/MLP baselines (paper ref [15])
  bench         per-benchmark characterization report (CPI, classes, events, neighbours)
  compile       train a suite tree and write a compiled-tree artifact for specchard
  convert       re-encode a dataset between .csv, .arff, and columnar .spcol
  score         run a compiled model over a dataset file (columnar or row-major)
  importance    permutation variable importance for both suite trees
  phases        phase detection validated against generator ground truth
  cpistack      exact per-benchmark cycle attribution

run 'specchar <command> -h' for command flags`)
	os.Exit(2)
}

// describeStudy records the run's configuration and artifacts into the
// manifest; published by Finish when -obs-out (or -profile-bundle) is set.
func describeStudy(cfg specchar.Config, study *specchar.Study) {
	if !obsRun.Enabled() {
		return
	}
	if err := obsRun.Manifest.SetConfig(cfg); err != nil {
		log.Print(err)
	}
	study.Describe(obsRun.Manifest)
}

// suiteByName resolves a -suite flag value across the whole zoo: the
// four CPU generations plus OMP2001 (see internal/suites doc.go).
func suiteByName(name string) (*suites.Suite, error) {
	switch name {
	case "cpu2000":
		return suites.CPU2000(), nil
	case "cpu2006":
		return suites.CPU2006(), nil
	case "cpu2017":
		return suites.CPU2017(), nil
	case "cpu2026":
		return suites.CPU2026(), nil
	case "omp2001":
		return suites.OMP2001(), nil
	}
	return nil, fmt.Errorf("unknown suite %q (want cpu2000, cpu2006, cpu2017, cpu2026 or omp2001)", name)
}

func genOptions(quick bool, seed uint64) suites.GenOptions {
	opts := suites.DefaultGenOptions()
	if quick {
		opts.SamplesPerBenchmark = 40
		opts.OpsPerWindow = 512
		opts.WarmupOps = 8000
	}
	if seed != 0 {
		opts.Seed = seed
	}
	return opts
}

func runDatagen(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("datagen", flag.ExitOnError)
	suiteFlag := fs.String("suite", "cpu2006", "suite to generate (cpu2000|cpu2006|cpu2017|cpu2026|omp2001)")
	outFlag := fs.String("o", "", "output file (default stdout)")
	formatFlag := fs.String("format", "csv", "output format (csv|arff)")
	quickFlag := fs.Bool("quick", false, "reduced-scale generation")
	seedFlag := fs.Uint64("seed", 0, "generation seed override")
	statsFlag := fs.Bool("stats", false, "print per-attribute summary statistics to stderr")
	fs.Parse(args)

	s, err := suiteByName(*suiteFlag)
	if err != nil {
		return err
	}
	d, err := suites.GenerateContext(ctx, s, genOptions(*quickFlag, *seedFlag))
	if err != nil {
		return err
	}
	if obsRun.Enabled() {
		obsRun.Manifest.AddDataset(d.Shape(s.Name))
	}
	if *statsFlag {
		sums, err := d.AttrSummaries()
		if err != nil {
			return err
		}
		t := tables.New("attribute", "mean", "sd", "min", "max")
		for j, su := range sums {
			t.AddRow(d.Schema.Attributes[j],
				fmt.Sprintf("%.6f", su.Mean), fmt.Sprintf("%.6f", su.StdDev),
				fmt.Sprintf("%.6f", su.Min), fmt.Sprintf("%.6f", su.Max))
		}
		resp, _ := d.Summary()
		fmt.Fprintf(os.Stderr, "%s: %d samples, %s mean %.4f sd %.4f\n\n%s\n",
			s.Name, d.Len(), d.Schema.Response, resp.Mean, resp.StdDev, t)
	}
	write := func(w io.Writer) error {
		switch *formatFlag {
		case "csv":
			return d.WriteCSV(w)
		case "arff":
			return d.WriteARFF(w, s.Name)
		}
		return fmt.Errorf("unknown format %q", *formatFlag)
	}
	if *outFlag == "" {
		return write(os.Stdout)
	}
	// Stage the file and rename it into place only once fully written: an
	// interrupted or failed run leaves no torn dataset behind.
	p, err := robust.CreateAtomic(*outFlag)
	if err != nil {
		return err
	}
	defer p.Abort()
	if err := write(p); err != nil {
		return err
	}
	return p.Commit()
}

func runTree(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("tree", flag.ExitOnError)
	suiteFlag := fs.String("suite", "cpu2006", "suite to model (cpu2000|cpu2006|cpu2017|cpu2026|omp2001)")
	quickFlag := fs.Bool("quick", false, "reduced-scale generation")
	minLeaf := fs.Int("minleaf", 35, "minimum samples per leaf branch")
	seedFlag := fs.Uint64("seed", 0, "generation seed override")
	evalFlag := fs.Float64("eval", 0, "hold out this fraction for accuracy evaluation (0 = off)")
	workersFlag := fs.Int("workers", 0, "induction worker count (0 = all cores, 1 = serial)")
	fs.Parse(args)

	s, err := suiteByName(*suiteFlag)
	if err != nil {
		return err
	}
	d, err := suites.GenerateContext(ctx, s, genOptions(*quickFlag, *seedFlag))
	if err != nil {
		return err
	}
	train := d
	var test *dataset.Dataset
	if *evalFlag > 0 && *evalFlag < 1 {
		train, test = d.Split(dataset.NewRNG(1), 1-*evalFlag)
	} else if *evalFlag != 0 {
		return fmt.Errorf("-eval must be in (0, 1), got %g", *evalFlag)
	}
	opts := mtree.DefaultOptions()
	opts.MinLeaf = *minLeaf
	opts.Workers = *workersFlag
	tree, err := mtree.BuildContext(ctx, train, opts)
	if err != nil {
		return err
	}
	if obsRun.Enabled() {
		obsRun.Manifest.AddDataset(train.Shape(s.Name))
		obsRun.Manifest.AddTree(tree.Summarize(s.Name))
	}
	fmt.Printf("%s: %d samples, %d leaf models, depth %d\n\n", s.Name, train.Len(), tree.NumLeaves(), tree.Depth())
	fmt.Print(tree.Render())
	fmt.Println()
	fmt.Print(tree.RenderModels())
	fmt.Println()
	fmt.Print(tree.RenderSplitSummary())
	if test != nil && test.Len() > 0 {
		ctree, err := tree.Compile()
		if err != nil {
			return err
		}
		pred, err := ctree.PredictDatasetCheckedContext(ctx, test)
		if err != nil {
			return err
		}
		rep, err := metrics.Compute(pred, test.Ys())
		if err != nil {
			return err
		}
		fmt.Printf("\nheld-out accuracy (%d samples): %s\n", test.Len(), rep)
	}
	return nil
}

// runCompile trains a suite tree, compiles it, and writes the versioned
// binary artifact specchard serves (see internal/mtree/artifact.go).
func runCompile(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	suiteFlag := fs.String("suite", "cpu2006", "suite to model (cpu2000|cpu2006|cpu2017|cpu2026|omp2001)")
	outFlag := fs.String("o", "", "output artifact file (required)")
	quickFlag := fs.Bool("quick", false, "reduced-scale generation")
	minLeaf := fs.Int("minleaf", 35, "minimum samples per leaf branch")
	seedFlag := fs.Uint64("seed", 0, "generation seed override")
	workersFlag := fs.Int("workers", 0, "induction worker count (0 = all cores, 1 = serial)")
	fs.Parse(args)
	if *outFlag == "" {
		return errors.New("compile: -o artifact path is required")
	}

	s, err := suiteByName(*suiteFlag)
	if err != nil {
		return err
	}
	d, err := suites.GenerateContext(ctx, s, genOptions(*quickFlag, *seedFlag))
	if err != nil {
		return err
	}
	opts := mtree.DefaultOptions()
	opts.MinLeaf = *minLeaf
	opts.Workers = *workersFlag
	if *quickFlag && *minLeaf == 35 {
		opts.MinLeaf = 10
	}
	tree, err := mtree.BuildContext(ctx, d, opts)
	if err != nil {
		return err
	}
	ctree, err := tree.CompileContext(ctx)
	if err != nil {
		return err
	}
	if obsRun.Enabled() {
		obsRun.Manifest.AddDataset(d.Shape(s.Name))
		obsRun.Manifest.AddTree(tree.Summarize(s.Name))
	}
	p, err := robust.CreateAtomic(*outFlag)
	if err != nil {
		return err
	}
	defer p.Abort()
	n, err := ctree.WriteTo(p)
	if err != nil {
		return err
	}
	if err := p.Commit(); err != nil {
		return err
	}
	fmt.Printf("%s: %d samples, %d leaf models, %d bytes -> %s\n",
		s.Name, d.Len(), ctree.NumLeaves(), n, *outFlag)
	return nil
}

func runCharacterize(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("characterize", flag.ExitOnError)
	suiteFlag := fs.String("suite", "cpu2006", "suite to characterize (cpu2000|cpu2006|cpu2017|cpu2026|omp2001)")
	quickFlag := fs.Bool("quick", false, "reduced-scale generation")
	pairs := fs.Int("pairs", 5, "closest/farthest pairs to list")
	fs.Parse(args)

	s, err := suiteByName(*suiteFlag)
	if err != nil {
		return err
	}
	d, err := suites.GenerateContext(ctx, s, genOptions(*quickFlag, 0))
	if err != nil {
		return err
	}
	opts := mtree.DefaultOptions()
	opts.MinLeaf = 35
	if *quickFlag {
		opts.MinLeaf = 10
	}
	tree, err := mtree.BuildContext(ctx, d, opts)
	if err != nil {
		return err
	}
	if obsRun.Enabled() {
		obsRun.Manifest.AddDataset(d.Shape(s.Name))
		obsRun.Manifest.AddTree(tree.Summarize(s.Name))
	}
	ctree, err := tree.CompileContext(ctx)
	if err != nil {
		return err
	}
	profiles, err := characterize.SuiteProfilesContext(ctx, ctree, d)
	if err != nil {
		return err
	}
	fmt.Printf("%s: sample distribution across linear models by benchmark\n\n", s.Name)
	fmt.Print(characterize.RenderDistribution(profiles, 0.20))
	bench := profiles[:len(profiles)-2] // drop Suite and Average rows
	m := characterize.Similarity(bench)
	fmt.Printf("\nmost similar pairs:\n")
	for _, p := range m.ClosestPairs(*pairs) {
		fmt.Printf("  %-20s vs %-20s %5.1f%%\n", p.A, p.B, 100*p.Distance)
	}
	fmt.Printf("most dissimilar pairs:\n")
	for _, p := range m.FarthestPairs(*pairs) {
		fmt.Printf("  %-20s vs %-20s %5.1f%%\n", p.A, p.B, 100*p.Distance)
	}
	return nil
}

func runTransfer(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("transfer", flag.ExitOnError)
	quickFlag := fs.Bool("quick", false, "reduced-scale run")
	fs.Parse(args)

	cfg := specchar.DefaultConfig()
	if *quickFlag {
		cfg = specchar.QuickConfig()
	}
	study, err := specchar.RunContext(ctx, cfg)
	if err != nil {
		return err
	}
	describeStudy(cfg, study)
	// Assessments print as they complete, so an interrupt mid-battery
	// still leaves every finished assessment on screen.
	for _, dir := range specchar.Directions() {
		a, err := study.AssessTransferContext(ctx, dir)
		if err != nil {
			return err
		}
		fmt.Println(a)
	}
	return nil
}

func runSubset(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("subset", flag.ExitOnError)
	suiteFlag := fs.String("suite", "cpu2006", "suite to subset (cpu2000|cpu2006|cpu2017|cpu2026|omp2001)")
	kFlag := fs.Int("k", 0, "number of representatives (0 = silhouette-selected)")
	quickFlag := fs.Bool("quick", false, "reduced-scale run")
	fs.Parse(args)

	cfg := specchar.DefaultConfig()
	if *quickFlag {
		cfg = specchar.QuickConfig()
	}
	study, err := specchar.RunContext(ctx, cfg)
	if err != nil {
		return err
	}
	describeStudy(cfg, study)
	r, err := study.SelectSubset(*suiteFlag, *kFlag)
	if err != nil {
		return err
	}
	fmt.Println(r)
	return nil
}

func runCompare(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	quickFlag := fs.Bool("quick", false, "reduced-scale run")
	fs.Parse(args)

	cfg := specchar.DefaultConfig()
	if *quickFlag {
		cfg = specchar.QuickConfig()
	}
	study, err := specchar.RunContext(ctx, cfg)
	if err != nil {
		return err
	}
	describeStudy(cfg, study)
	report, err := study.ModelComparisonReport()
	if err != nil {
		return err
	}
	fmt.Print(report)
	return nil
}

func runBench(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	suiteFlag := fs.String("suite", "cpu2006", "suite (cpu2000|cpu2006|cpu2017|cpu2026|omp2001)")
	nameFlag := fs.String("name", "", "benchmark name, e.g. 429.mcf (empty = all)")
	quickFlag := fs.Bool("quick", false, "reduced-scale run")
	fs.Parse(args)

	cfg := specchar.DefaultConfig()
	if *quickFlag {
		cfg = specchar.QuickConfig()
	}
	study, err := specchar.RunContext(ctx, cfg)
	if err != nil {
		return err
	}
	describeStudy(cfg, study)
	names := []string{*nameFlag}
	if *nameFlag == "" {
		d := study.CPU
		if *suiteFlag == "omp2001" {
			d = study.OMP
		}
		names = d.Labels()
	}
	for _, name := range names {
		report, err := study.BenchmarkReport(*suiteFlag, name)
		if err != nil {
			return err
		}
		fmt.Println(report)
	}
	return nil
}

// runStudyReport builds a study at the requested scale and prints one
// report function's output.
func runStudyReport(ctx context.Context, args []string, report func(*specchar.Study) (string, error)) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	quickFlag := fs.Bool("quick", false, "reduced-scale run")
	fs.Parse(args)
	cfg := specchar.DefaultConfig()
	if *quickFlag {
		cfg = specchar.QuickConfig()
	}
	study, err := specchar.RunContext(ctx, cfg)
	if err != nil {
		return err
	}
	describeStudy(cfg, study)
	out, err := report(study)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}
