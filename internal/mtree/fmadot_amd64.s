//go:build amd64

#include "textflag.h"

// Vector scoring kernels. Each replicates a fixed floating-point schedule
// from fmadot.go exactly — see the comment there for why the schedule,
// not just the math, is part of the contract.

// tailmask<>[k] masks the first k qwords of a 4-lane load (VMASKMOVPD
// keys off each element's sign bit). Entry 0 is all-pass-nothing, entry 4
// all-pass-everything; an 8-lane tail of length k uses entries min(k,4)
// and max(k-4,0).
DATA tailmask<>+0x00(SB)/8, $0x0000000000000000
DATA tailmask<>+0x08(SB)/8, $0x0000000000000000
DATA tailmask<>+0x10(SB)/8, $0x0000000000000000
DATA tailmask<>+0x18(SB)/8, $0x0000000000000000
DATA tailmask<>+0x20(SB)/8, $0xffffffffffffffff
DATA tailmask<>+0x28(SB)/8, $0x0000000000000000
DATA tailmask<>+0x30(SB)/8, $0x0000000000000000
DATA tailmask<>+0x38(SB)/8, $0x0000000000000000
DATA tailmask<>+0x40(SB)/8, $0xffffffffffffffff
DATA tailmask<>+0x48(SB)/8, $0xffffffffffffffff
DATA tailmask<>+0x50(SB)/8, $0x0000000000000000
DATA tailmask<>+0x58(SB)/8, $0x0000000000000000
DATA tailmask<>+0x60(SB)/8, $0xffffffffffffffff
DATA tailmask<>+0x68(SB)/8, $0xffffffffffffffff
DATA tailmask<>+0x70(SB)/8, $0xffffffffffffffff
DATA tailmask<>+0x78(SB)/8, $0x0000000000000000
DATA tailmask<>+0x80(SB)/8, $0xffffffffffffffff
DATA tailmask<>+0x88(SB)/8, $0xffffffffffffffff
DATA tailmask<>+0x90(SB)/8, $0xffffffffffffffff
DATA tailmask<>+0x98(SB)/8, $0xffffffffffffffff
GLOBL tailmask<>(SB), RODATA|NOPTR, $160

// func dotRowsBlockAsm(rows *unsafe.Pointer, lis *int32, coefs, intercepts *float64, w, n int64, out *float64)
//
// AVX2+FMA. For each lane l < n: eight FMA accumulator lanes (two YMM
// registers) stride the coefficient row and the sample row (lane k folds
// terms j ≡ k mod 8), the tail is mask-loaded as zeroes, and the lanes
// combine by pairwise halving — dotRow's schedule, term for term.
TEXT ·dotRowsBlockAsm(SB), NOSPLIT, $0-56
	MOVQ rows+0(FP), DI
	MOVQ lis+8(FP), SI
	MOVQ coefs+16(FP), DX
	MOVQ intercepts+24(FP), CX
	MOVQ w+32(FP), R8
	MOVQ n+40(FP), R9
	MOVQ out+48(FP), R10

	MOVQ R8, R11            // R11 = w &^ 7 (full 8-wide strides)
	ANDQ $-8, R11
	MOVQ R8, R12            // k = w & 7
	ANDQ $7, R12
	MOVQ R12, R13           // low-half mask index = min(k, 4)
	CMPQ R13, $4
	JLE  rowsMaskLo
	MOVQ $4, R13

rowsMaskLo:
	SHLQ $5, R13
	LEAQ tailmask<>(SB), R14
	VMOVDQU (R14)(R13*1), Y3
	SUBQ $4, R12            // high-half mask index = max(k-4, 0)
	JGE  rowsMaskHi
	XORQ R12, R12

rowsMaskHi:
	SHLQ $5, R12
	VMOVDQU (R14)(R12*1), Y4

	XORQ BX, BX             // l = 0

rowsLane:
	CMPQ BX, R9
	JGE  rowsDone
	MOVLQSX (SI)(BX*4), R14 // li = lis[l]
	VMOVSD (CX)(R14*8), X0  // acc lanes 0-3 = [intercept, 0, 0, 0]
	VXORPD Y5, Y5, Y5       // acc lanes 4-7
	IMULQ R8, R14
	LEAQ (DX)(R14*8), R15   // coefficient row
	MOVQ (DI)(BX*8), R12    // sample row
	XORQ AX, AX             // j = 0

rowsTerm:
	CMPQ AX, R11
	JGE  rowsTail
	VMOVUPD (R15)(AX*8), Y1
	VMOVUPD 32(R15)(AX*8), Y6
	VMOVUPD (R12)(AX*8), Y2
	VMOVUPD 32(R12)(AX*8), Y7
	VFMADD231PD Y2, Y1, Y0
	VFMADD231PD Y7, Y6, Y5
	ADDQ $8, AX
	JMP  rowsTerm

rowsTail:
	TESTQ $7, R8
	JZ   rowsSum
	VMASKMOVPD (R15)(AX*8), Y3, Y1
	VMASKMOVPD 32(R15)(AX*8), Y4, Y6
	VMASKMOVPD (R12)(AX*8), Y3, Y2
	VMASKMOVPD 32(R12)(AX*8), Y4, Y7
	VFMADD231PD Y2, Y1, Y0
	VFMADD231PD Y7, Y6, Y5

rowsSum:
	VADDPD Y5, Y0, Y0       // [a0+a4, a1+a5, a2+a6, a3+a7]
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0       // [(a0+a4)+(a2+a6), (a1+a5)+(a3+a7)]
	VUNPCKHPD X0, X0, X1
	VADDSD X1, X0, X0
	VMOVSD X0, (R10)(BX*8)
	INCQ BX
	JMP  rowsLane

rowsDone:
	VZEROUPPER
	RET

// func predictRowsFusedAsm(samples unsafe.Pointer, stride, n, w int64,
//	boxes *float64, boxB int64, box0 *float64, packed *uint64,
//	thr *float64, interior, rootExt int64, coefs, intercepts *float64,
//	trans *int32, sentLeaf int64, out *float64) int64
//
// AVX-512F. The fused row scorer: one pass per sample that loads the
// sample once and, in the same 8-lane strides, speculatively accumulates
// the dot product against the current leaf's model while testing the
// sample against that leaf's box (lo < x ≤ hi per attribute, interleaved
// 64-byte lo/hi strides). A full mask means the sample stayed in the
// leaf: reduce the accumulator (dotRow's pairwise-halving schedule) and
// store. On a miss, probe the leaf's four move-to-front transition
// candidates with the same box test, and only when those fail walk the
// packed interior metadata (attr | left<<16 | right<<32, extended child
// refs) with a scalar compare chain — UCOMISD's carry flag is set for
// NaN, which sends NaN right exactly like the scalar `v <= t` path.
// Misses redo the dot non-speculatively against the adopted leaf.
//
// Register plan (persistent): DI sample struct, BX i, R9 n, R8 full-
// stride bytes (w&^7)*8, R10 tail lanes w&7, R11 current box, R12
// current coefficient row, R13 current intercept ptr, R14 out, R15
// struct stride, SI current row, K1 tail mask. curLeaf lives in the
// frame. R11-R13 double as scratch in the miss path, which always
// re-derives them when it adopts a leaf.
//
// Returns -1, or the index of the first sample whose row is shorter than
// the schema (the caller raises the canonical bounds panic).
//
// Widths in (16, 24] — every SPEC schema in the repo — take a
// straight-line three-stride body (two full loads plus one masked) with
// no per-stride loop overhead; other widths run the generic stride loop.
// The spec-24(SP) flag picks the body once per sample with a perfectly
// predicted branch.
TEXT ·predictRowsFusedAsm(SB), NOSPLIT, $24-136
	MOVQ samples+0(FP), DI
	MOVQ stride+8(FP), R15
	MOVQ n+16(FP), R9
	MOVQ w+24(FP), AX
	MOVQ AX, R10
	ANDQ $7, R10            // tail lanes
	MOVQ AX, R8
	ANDQ $-8, R8
	SHLQ $3, R8             // full-stride bytes
	MOVL $1, DX             // K1 = (1 << tail) - 1
	MOVQ R10, CX
	SHLL CX, DX
	DECL DX
	KMOVW DX, K1
	MOVQ $0, spec-24(SP)
	CMPQ AX, $16
	JLE  fusedSetup
	CMPQ AX, $24
	JGT  fusedSetup
	MOVQ $1, spec-24(SP)    // three-stride body; retune K1 to w-16 lanes
	MOVL $1, DX
	LEAQ -16(AX), CX
	SHLL CX, DX
	DECL DX
	KMOVW DX, K1

fusedSetup:
	MOVQ box0+48(FP), R11   // current box = sentinel: first sample routes
	MOVQ coefs+88(FP), R12  // speculative reads before the first adopt
	MOVQ intercepts+96(FP), R13 // are discarded, so any valid row works
	MOVQ sentLeaf+112(FP), AX
	MOVQ AX, curLeaf-8(SP)
	MOVQ out+120(FP), R14
	CMPQ spec-24(SP), $0
	JE   fusedStart
	VMOVUPD (R11), Z20      // preload the run registers from the
	VMOVUPD 64(R11), Z21    // sentinel box (lo = +Inf never passes) and
	VMOVUPD 128(R11), Z22   // leaf 0's model: uninitialized registers
	VMOVUPD 192(R11), Z23   // could spuriously pass the box test
	VMOVUPD 256(R11), Z24
	VMOVUPD 320(R11), Z25
	VMOVUPD (R12), Z26
	VMOVUPD 64(R12), Z27
	VMOVUPD.Z 128(R12), K1, Z28
	VMOVSD (R13), X8

fusedStart:
	XORQ BX, BX             // i = 0

fusedLoop:
	CMPQ BX, R9
	JGE  fusedDone
	MOVQ 8(DI), DX          // len(samples[i].X)
	MOVQ w+24(FP), AX
	CMPQ DX, AX
	JLT  fusedBail
	MOVQ (DI), SI           // row base
	CMPQ spec-24(SP), $0
	JNE  spec3
	VMOVSD (R13), X0        // acc = [intercept, 0, …, 0]
	KXNORW K2, K2, K2       // box verdict accumulator
	XORQ AX, AX             // x byte offset
	XORQ DX, DX             // box byte offset (2x rate: lo and hi)

	// Each compare carries K2 as a zeroing write-mask, so the verdict
	// ANDs into K2 with no separate KANDW uop (and bits 8-15 zero after
	// the first compare, which the $0xff check relies on).
boxLoop:
	CMPQ AX, R8
	JGE  boxTail
	VMOVUPD (SI)(AX*1), Z1
	VMOVUPD (R11)(DX*1), Z2
	VCMPPD $0x1e, Z2, Z1, K2, K2 // x > lo (GT_OQ: NaN fails)
	VMOVUPD 64(R11)(DX*1), Z2
	VCMPPD $0x12, Z2, Z1, K2, K2 // x ≤ hi (LE_OQ)
	VMOVUPD (R12)(AX*1), Z3
	VFMADD231PD Z1, Z3, Z0
	ADDQ $64, AX
	ADDQ $128, DX
	JMP  boxLoop

boxTail:
	TESTQ R10, R10
	JZ   boxDone
	VMOVUPD.Z (SI)(AX*1), K1, Z1 // masked x lanes read as 0, which the
	VMOVUPD (R11)(DX*1), Z2      // (-Inf, +Inf] box padding passes
	VCMPPD $0x1e, Z2, Z1, K2, K2
	VMOVUPD 64(R11)(DX*1), Z2
	VCMPPD $0x12, Z2, Z1, K2, K2
	VMOVUPD.Z (R12)(AX*1), K1, Z3
	VFMADD231PD Z1, Z3, Z0

boxDone:
	KORTESTB K2, K2         // CF = all eight lanes passed
	JCC  fusedMiss
	JMP  fusedReduce

	// Straight-line body for 16 < w ≤ 24: the adopted leaf's box strides
	// (Z20-Z25), coefficient strides (Z26-Z28) and intercept (X8) stay in
	// registers across the run, so a hit touches memory only for the row
	// itself. The first compare seeds the verdict mask directly.
spec3:
	VMOVAPD X8, X0          // acc = [intercept, 0, …, 0]
	VMOVUPD (SI), Z1
	VCMPPD $0x1e, Z20, Z1, K2 // seeds the verdict, bits 8-15 zero
	VCMPPD $0x12, Z21, Z1, K2, K2
	VFMADD231PD Z1, Z26, Z0
	VMOVUPD 64(SI), Z1
	VCMPPD $0x1e, Z22, Z1, K2, K2
	VCMPPD $0x12, Z23, Z1, K2, K2
	VFMADD231PD Z1, Z27, Z0
	VMOVUPD.Z 128(SI), K1, Z1
	VCMPPD $0x1e, Z24, Z1, K2, K2
	VCMPPD $0x12, Z25, Z1, K2, K2
	VFMADD231PD Z1, Z28, Z0
	KORTESTB K2, K2
	JCC  fusedMiss

fusedReduce:
	VEXTRACTF64X4 $1, Z0, Y1
	VADDPD Y1, Y0, Y0       // [a0+a4, a1+a5, a2+a6, a3+a7]
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VUNPCKHPD X0, X0, X1
	VADDSD X1, X0, X0
	VMOVSD X0, (R14)(BX*8)
	INCQ BX
	ADDQ R15, DI
	JMP  fusedLoop

fusedDone:
	MOVQ $-1, ret+128(FP)
	VZEROUPPER
	RET

fusedBail:
	MOVQ BX, ret+128(FP)
	VZEROUPPER
	RET

	// Box miss: probe the current leaf's transition candidates
	// (move-to-front, so the first probe usually wins and the loop exit
	// predicts well).
fusedMiss:
	MOVQ trans+104(FP), DX
	MOVQ curLeaf-8(SP), AX
	SHLQ $4, AX
	ADDQ AX, DX             // DX = this leaf's 4-candidate row
	XORQ CX, CX             // t = 0

probeLoop:
	CMPQ CX, $4
	JGE  route
	MOVLQSX (DX)(CX*4), AX  // candidate leaf, -1 = empty
	TESTQ AX, AX
	JS   route
	MOVQ AX, cand-16(SP)
	IMULQ boxB+40(FP), AX
	ADDQ boxes+32(FP), AX   // candidate box
	CMPQ spec-24(SP), $0
	JNE  specCand
	KXNORW K5, K5, K5
	XORQ R11, R11           // x byte offset
	XORQ R13, R13           // box byte offset

candLoop:
	CMPQ R11, R8
	JGE  candTail
	VMOVUPD (SI)(R11*1), Z1
	VMOVUPD (AX)(R13*1), Z2
	VCMPPD $0x1e, Z2, Z1, K5, K5
	VMOVUPD 64(AX)(R13*1), Z2
	VCMPPD $0x12, Z2, Z1, K5, K5
	ADDQ $64, R11
	ADDQ $128, R13
	JMP  candLoop

candTail:
	TESTQ R10, R10
	JZ   candDone
	VMOVUPD.Z (SI)(R11*1), K1, Z1
	VMOVUPD (AX)(R13*1), Z2
	VCMPPD $0x1e, Z2, Z1, K5, K5
	VMOVUPD 64(AX)(R13*1), Z2
	VCMPPD $0x12, Z2, Z1, K5, K5

	JMP  candDone

	// Straight-line candidate box test for 16 < w ≤ 24.
specCand:
	VMOVUPD (SI), Z1
	VMOVUPD (AX), Z2
	VCMPPD $0x1e, Z2, Z1, K5
	VMOVUPD 64(AX), Z2
	VCMPPD $0x12, Z2, Z1, K5, K5
	VMOVUPD 64(SI), Z1
	VMOVUPD 128(AX), Z2
	VCMPPD $0x1e, Z2, Z1, K5, K5
	VMOVUPD 192(AX), Z2
	VCMPPD $0x12, Z2, Z1, K5, K5
	VMOVUPD.Z 128(SI), K1, Z1
	VMOVUPD 256(AX), Z2
	VCMPPD $0x1e, Z2, Z1, K5, K5
	VMOVUPD 320(AX), Z2
	VCMPPD $0x12, Z2, Z1, K5, K5

candDone:
	KORTESTB K5, K5
	JCC  probeNext
	MOVQ cand-16(SP), AX    // hit: move to front, adopt
	MOVL (DX), R13
	MOVL R13, (DX)(CX*4)
	MOVL AX, (DX)
	JMP  adopt

probeNext:
	INCQ CX
	JMP  probeLoop

	// Full route through the packed interior metadata.
route:
	MOVQ rootExt+80(FP), AX
	MOVQ packed+56(FP), DX
	MOVQ thr+64(FP), CX

routeLoop:
	CMPQ AX, interior+72(FP)
	JGE  routeDone
	MOVQ (DX)(AX*8), R11    // attr | left<<16 | right<<32
	MOVWQZX R11, R13
	VMOVSD (SI)(R13*8), X1  // v = x[attr]
	VMOVSD (CX)(AX*8), X2   // t
	MOVQ R11, R13
	SHRQ $16, R13
	MOVWQZX R13, R13        // left
	SHRQ $32, R11           // right
	UCOMISD X1, X2          // CF = t < v or NaN: both go right
	CMOVQCC R13, R11        // v ≤ t: go left
	MOVQ R11, AX
	JMP  routeLoop

routeDone:
	SUBQ interior+72(FP), AX // leaf index
	MOVQ trans+104(FP), DX   // insert at candidate front, shift down
	MOVQ curLeaf-8(SP), CX
	SHLQ $4, CX
	ADDQ CX, DX
	MOVL 8(DX), R11
	MOVL R11, 12(DX)
	MOVL 4(DX), R11
	MOVL R11, 8(DX)
	MOVL (DX), R11
	MOVL R11, 4(DX)
	MOVL AX, (DX)

	// AX = adopted leaf: rebuild the cached pointers, redo this
	// sample's dot non-speculatively, rejoin the hit path.
adopt:
	MOVQ AX, curLeaf-8(SP)
	MOVQ AX, CX
	IMULQ boxB+40(FP), CX
	ADDQ boxes+32(FP), CX
	MOVQ CX, R11            // current box
	MOVQ AX, CX
	IMULQ w+24(FP), CX
	MOVQ coefs+88(FP), R12
	LEAQ (R12)(CX*8), R12   // current coefficient row
	MOVQ intercepts+96(FP), R13
	LEAQ (R13)(AX*8), R13   // current intercept
	CMPQ spec-24(SP), $0
	JE   adoptDot
	VMOVUPD (R11), Z20      // refresh the run registers for the new leaf
	VMOVUPD 64(R11), Z21
	VMOVUPD 128(R11), Z22
	VMOVUPD 192(R11), Z23
	VMOVUPD 256(R11), Z24
	VMOVUPD 320(R11), Z25
	VMOVUPD (R12), Z26
	VMOVUPD 64(R12), Z27
	VMOVUPD.Z 128(R12), K1, Z28
	VMOVSD (R13), X8
	VMOVAPD X8, X0          // straight-line redo from the fresh registers
	VMOVUPD (SI), Z1
	VFMADD231PD Z1, Z26, Z0
	VMOVUPD 64(SI), Z1
	VFMADD231PD Z1, Z27, Z0
	VMOVUPD.Z 128(SI), K1, Z1
	VFMADD231PD Z1, Z28, Z0
	JMP  fusedReduce

adoptDot:
	VMOVSD (R13), X0
	XORQ AX, AX

missDot:
	CMPQ AX, R8
	JGE  missDotTail
	VMOVUPD (SI)(AX*1), Z1
	VMOVUPD (R12)(AX*1), Z3
	VFMADD231PD Z1, Z3, Z0
	ADDQ $64, AX
	JMP  missDot

missDotTail:
	TESTQ R10, R10
	JZ   fusedReduce
	VMOVUPD.Z (SI)(AX*1), K1, Z1
	VMOVUPD.Z (R12)(AX*1), K1, Z3
	VFMADD231PD Z1, Z3, Z0
	JMP  fusedReduce

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint64
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	SHLQ $32, DX
	ORQ  DX, AX
	MOVQ AX, ret+0(FP)
	RET
