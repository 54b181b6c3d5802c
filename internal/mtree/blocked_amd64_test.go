package mtree

import (
	"math"
	"testing"
)

// TestBlockedAsmParity forces the assembly gates off and re-scores the
// boundary dataset: the pure-Go schedules in fmadot.go are the bit-
// exact reference the vector kernels replicate, so predictions and leaf
// assignments must not move by a single bit when the kernels swap. The
// gates are package vars on amd64 (consts elsewhere), so this file is
// build-tagged by its name.
func TestBlockedAsmParity(t *testing.T) {
	_, c := boundaryTree(t, 47)
	d := boundaryDataset(t, c, 5)
	cols := d.Columns()
	refPreds := c.WithWorkers(1).PredictDataset(d)
	refLeaves := classifyLeaves(t, c, d)

	savedDot, saved512 := useAsmDot, useAsm512
	defer func() { useAsmDot, useAsm512 = savedDot, saved512 }()

	for _, cfg := range []struct {
		name      string
		dot, f512 bool
	}{
		{"avx2-only", savedDot, false}, // blocked route + AVX2 dot, no fused scorer
		{"pure-go", false, false},      // scalar schedules end to end
	} {
		useAsmDot, useAsm512 = cfg.dot, cfg.f512
		for _, workers := range []int{1, 4} {
			cw := c.WithWorkers(workers)
			preds := cw.PredictDataset(d)
			leaves := classifyLeaves(t, cw, d)
			// The fused-columnar route rides the same row kernels off
			// transposed tiles, so it must not move a bit either.
			colPreds := predictColumns(t, cw, cols, d.Len())
			for i := range refPreds {
				if math.Float64bits(preds[i]) != math.Float64bits(refPreds[i]) {
					t.Fatalf("%s workers=%d sample %d: %v, asm reference %v",
						cfg.name, workers, i, preds[i], refPreds[i])
				}
				if math.Float64bits(colPreds[i]) != math.Float64bits(refPreds[i]) {
					t.Fatalf("%s workers=%d sample %d: columnar %v, asm reference %v",
						cfg.name, workers, i, colPreds[i], refPreds[i])
				}
				if leaves[i] != refLeaves[i] {
					t.Fatalf("%s workers=%d sample %d: leaf %d, asm reference %d",
						cfg.name, workers, i, leaves[i], refLeaves[i])
				}
			}
		}
	}
}
