package main

import (
	"context"
	"fmt"
	"os"

	"specchar"
	"specchar/internal/roofline"
)

// runRoofline measures the machine's STREAM bandwidth ceilings and
// holds both scoring paths — fused row-major and fused columnar
// (tile-transpose) — against them over the CPU2006 suite data. Invoked from `specchar bench
// -roofline`; with -roofline-out the full report is also written as
// JSON for cmd/benchjson to fold into its report.
func runRoofline(ctx context.Context, cfg specchar.Config, elems, rounds, workers int, outPath string) error {
	study, err := specchar.RunContext(ctx, cfg)
	if err != nil {
		return err
	}
	describeStudy(cfg, study)

	ctree, err := study.CPUTree.Compile()
	if err != nil {
		return err
	}
	ctree = ctree.WithWorkers(workers)

	fmt.Fprintln(os.Stderr, "measuring STREAM bandwidth...")
	rep := &roofline.Report{Bandwidth: roofline.MeasureBandwidth(roofline.Options{
		Elements: elems,
		Rounds:   rounds,
	})}

	col := study.CPU.ToColumnar()
	defer col.Close()
	cols, n := col.Columns(), col.Len()
	w := ctree.NumAttrs()

	rowNs := roofline.Time(rounds, func() { ctree.PredictDataset(study.CPU) })
	rep.Add(roofline.ScoringKernel("fused-rows", w), n, rowNs)

	fusedNs := roofline.Time(rounds, func() { ctree.PredictColumnsCheckedContext(ctx, cols, n) })
	rep.Add(roofline.ScoringKernel("fused-columnar", w), n, fusedNs)

	fmt.Print(rep.RenderText())

	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "roofline report written to %s\n", outPath)
	}
	return nil
}
