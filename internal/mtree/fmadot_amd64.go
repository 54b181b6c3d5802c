//go:build amd64

package mtree

import (
	"os"
	"unsafe"
)

// The amd64 build carries hand-written AVX+FMA kernels for the leaf-model
// dot products (fmadot_amd64.s). They execute the exact floating-point
// schedule of dotRow — same lane assignment, same fused rounding, same
// combine order — so enabling them changes nothing but throughput;
// TestBlockedAsmParity pins that bitwise.

// dotRowsBlockAsm evaluates out[l] = dotRow(intercepts[lis[l]],
// coefs[lis[l]*w:…+w], row l) for l in [0,n), n ≤ laneBlock. rows points
// at an array of n row base pointers, each at least w float64s long.
//
//go:noescape
func dotRowsBlockAsm(rows *unsafe.Pointer, lis *int32, coefs, intercepts *float64, w, n int64, out *float64)

// predictRowsFusedAsm is the fused AVX-512 row scorer: per sample, one
// pass that box-tests the sample against the current leaf while
// speculatively accumulating its dot product, falling back to the
// transition candidates and then the packed route on a miss (see the
// kernel comment in fmadot_amd64.s). samples points at the first
// dataset.Sample struct, stride is the struct size, trans at the
// (sentLeaf+1)×4 transition table initialized to -1, box0 at the
// sentinel box. Returns -1 or the index of a row shorter than w.
//
//go:noescape
func predictRowsFusedAsm(samples unsafe.Pointer, stride, n, w int64,
	boxes *float64, boxB int64, box0 *float64, packed *uint64,
	thr *float64, interior, rootExt int64, coefs, intercepts *float64,
	trans *int32, sentLeaf int64, out *float64) int64

// cpuidex and xgetbv0 are tiny probes behind the feature gates.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() uint64

// useAsmDot gates the vector kernels on hardware support (AVX + FMA with
// OS-enabled YMM state). SPECCHAR_NOASM=1 forces the pure-Go fallback —
// the escape hatch the equivalence tests use to compare both paths on
// the same machine.
var useAsmDot = func() bool {
	if os.Getenv("SPECCHAR_NOASM") != "" {
		return false
	}
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	_, _, ecx, _ := cpuidex(1, 0)
	if ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	// XCR0 bits 1..2: OS saves XMM and YMM state on context switch.
	return xgetbv0()&0x6 == 0x6
}()

// useAsm512 additionally gates the fused box-memoized row scorer on
// AVX-512 Foundation + DQ (the kernel's KORTESTB verdict check) with
// OS-enabled opmask/ZMM state.
var useAsm512 = useAsmDot && func() bool {
	const avx512f = 1 << 16
	const avx512dq = 1 << 17
	_, ebx, _, _ := cpuidex(7, 0)
	if ebx&(avx512f|avx512dq) != avx512f|avx512dq {
		return false
	}
	// XCR0 bits 5..7: opmask, ZMM0-15 upper halves, ZMM16-31.
	return xgetbv0()&0xe6 == 0xe6
}()
