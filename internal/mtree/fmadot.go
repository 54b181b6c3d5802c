package mtree

// Leaf-model dot products.
//
// Every prediction ends in intercept + Σ_j coefs[j]·x[j]. The schedule
// of that sum is part of the scorer's contract: batch results must be
// bit-identical to single-sample Predict calls at every worker count, so
// the scalar reference below and the vector kernels in fmadot_amd64.s
// execute the exact same floating-point operations in the exact same
// order — eight fused-multiply-add accumulator lanes striding the
// coefficient row (lane k folds terms j ≡ k mod 8), a zero-padded tail
// so lane assignment is width-independent, and one fixed combine order
// at the end: pairwise halving, exactly the reduction a 512-bit
// accumulator register collapses through. math.FMA rounds exactly once
// per term on every platform (hardware FMA where available, exact
// software emulation otherwise), which is what makes the Go fallback,
// the AVX2 two-register kernel, and the AVX-512 fused kernel agree
// bitwise rather than merely closely.

import "math"

// dotRow computes intercept + Σ coefs[j]·x[j] in the shared eight-lane
// FMA schedule. x must be at least len(coefs) wide.
func dotRow(intercept float64, coefs, x []float64) float64 {
	var acc [8]float64
	acc[0] = intercept
	j := 0
	for ; j+8 <= len(coefs); j += 8 {
		for k := 0; k < 8; k++ {
			acc[k] = math.FMA(coefs[j+k], x[j+k], acc[k])
		}
	}
	// The vector kernels mask the tail stride to zeroes, so lanes beyond
	// the width still execute acc = fma(0, 0, acc) = acc + 0 — and skip
	// the stride entirely when the width divides evenly. Mirror both
	// exactly: the +0 add is not a no-op for a -0 accumulator.
	if rem := len(coefs) - j; rem > 0 {
		for k := 0; k < 8; k++ {
			if k < rem {
				acc[k] = math.FMA(coefs[j+k], x[j+k], acc[k])
			} else {
				acc[k] += 0
			}
		}
	}
	// Pairwise halving, the order a 512-bit register reduces through:
	// 8→4 (lane k + lane k+4), 4→2, 2→1.
	s04, s15, s26, s37 := acc[0]+acc[4], acc[1]+acc[5], acc[2]+acc[6], acc[3]+acc[7]
	return (s04 + s26) + (s15 + s37)
}
