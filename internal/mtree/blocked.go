package mtree

// Blocked multi-sample traversal kernels.
//
// Batch scoring routes laneBlock samples through the tree together: every
// iteration advances each still-routing lane one level, so one node's
// (attr, threshold) load is shared by all lanes sitting on that node and
// the independent lanes give the CPU a window of non-dependent loads to
// overlap — the serial pointer chase of one-sample-at-a-time traversal is
// the latency wall this replaces. Lanes that reach a leaf are compacted
// out of the active set, so ragged tree depths cost nothing beyond their
// own path length.
//
// Every kernel preserves the exact floating-point schedule of the scalar
// path: routing uses the same `v <= threshold → left` comparison
// (including its NaN-goes-right behavior), and the per-lane dot product
// runs the eight-lane FMA schedule of fmadot.go, exactly like
// CompiledTree.Predict. Batch results are
// therefore bit-identical to per-sample calls, and — because the chunk
// size is a multiple of laneBlock, fixing absolute block boundaries —
// bit-identical at every worker count.

import (
	"sync"
	"unsafe"

	"specchar/internal/dataset"
)

// predictScratch is the per-chunk working state batch scoring borrows
// from scratchPool instead of allocating: the fused kernel's transition
// table and the tile-transpose row scratch (see transpose.go). Chunks run on whatever
// worker grabs them, so the scratch lives in a pool rather than on the
// tree.
type predictScratch struct {
	tr     []int32
	rowbuf []float64
	rows   []dataset.Sample
	rowsW  int // width the rows headers were built for; 0 = not built
}

var scratchPool = sync.Pool{New: func() any { return new(predictScratch) }}

// trans returns the transition table for a tree with rows-1 leaves plus
// the sentinel row, every candidate reset to empty. A recycled table may
// have served another tree, and a stale candidate could index past this
// tree's boxes, so the reset is not optional.
func (s *predictScratch) trans(rows int) *int32 {
	need := rows * 4
	if cap(s.tr) < need {
		s.tr = make([]int32, need)
	}
	s.tr = s.tr[:need]
	for i := range s.tr {
		s.tr[i] = -1
	}
	return &s.tr[0]
}

const (
	// laneBlock is the number of samples routed per node visit.
	laneBlock = 16
	// blockedChunk is the work quantum of blocked batch scoring: a
	// multiple of laneBlock (so block boundaries are worker-count
	// invariant) small enough that typical suite datasets split across
	// the whole worker pool.
	blockedChunk = 512
)

// routeRows routes n ≤ laneBlock row-major samples starting at lo down to
// their leaves, leaving the leaf ref (^leafIndex) of lane l in refs[l].
func (c *CompiledTree) routeRows(samples []dataset.Sample, lo, n int, refs *[laneBlock]int32) {
	var rows [laneBlock][]float64
	var act [laneBlock]int
	attrs, thr, kids := c.attrs, c.thresholds, c.kids
	na := 0
	for l := 0; l < n; l++ {
		refs[l] = c.rootRef
		rows[l] = samples[lo+l].X
		if c.rootRef >= 0 {
			act[na] = l
			na++
		}
	}
	for na > 0 {
		k := 0
		for a := 0; a < na; a++ {
			l := act[a]
			ref := refs[l]
			v := rows[l][attrs[ref]]
			b := int32(1)
			if v <= thr[ref] {
				b = 0
			}
			ref = kids[2*ref+b]
			refs[l] = ref
			if ref >= 0 {
				act[k] = l
				k++
			}
		}
		na = k
	}
}

// predictRowsRange scores samples [lo,hi) into out[lo:hi] — through the
// fused box-memoized AVX-512 kernel when the hardware and the tree's
// packing allow it, else the blocked lane kernels.
func (c *CompiledTree) predictRowsRange(samples []dataset.Sample, lo, hi int, out []float64) {
	w := c.width
	if useAsm512 && c.packedOK && w > 0 && hi > lo {
		nl := len(c.intercepts)
		var packed *uint64
		var thr *float64
		if len(c.packed) > 0 {
			packed = &c.packed[0]
			thr = &c.thresholds[0]
		}
		sc := scratchPool.Get().(*predictScratch)
		bad := predictRowsFusedAsm(unsafe.Pointer(&samples[lo]),
			int64(unsafe.Sizeof(dataset.Sample{})), int64(hi-lo), int64(w),
			&c.boxes[0], int64(c.boxelems*8), &c.boxes[nl*c.boxelems],
			packed, thr, int64(len(c.attrs)), c.rootExt,
			&c.coefs[0], &c.intercepts[0], sc.trans(nl+1), int64(nl), &out[lo])
		scratchPool.Put(sc)
		if bad >= 0 {
			_ = samples[lo+int(bad)].X[w-1] // panics: row shorter than the schema
		}
		return
	}
	var refs [laneBlock]int32
	if useAsmDot && w > 0 {
		var rowp [laneBlock]unsafe.Pointer
		var lis [laneBlock]int32
		for blo := lo; blo < hi; blo += laneBlock {
			n := min(laneBlock, hi-blo)
			c.routeRows(samples, blo, n, &refs)
			for l := 0; l < n; l++ {
				lis[l] = int32(^refs[l])
				x := samples[blo+l].X
				_ = x[w-1] // row must span the schema, as in the scalar path
				rowp[l] = unsafe.Pointer(&x[0])
			}
			dotRowsBlockAsm(&rowp[0], &lis[0], &c.coefs[0], &c.intercepts[0], int64(w), int64(n), &out[blo])
		}
		return
	}
	for blo := lo; blo < hi; blo += laneBlock {
		n := min(laneBlock, hi-blo)
		c.routeRows(samples, blo, n, &refs)
		for l := 0; l < n; l++ {
			li := int(^refs[l])
			out[blo+l] = dotRow(c.intercepts[li], c.coefs[li*w:(li+1)*w], samples[blo+l].X)
		}
	}
}

// predictColsRange scores column-major samples [lo,hi) into out[lo:hi].
// It gathers the chunk into pooled row-major scratch tile by tile
// (transpose.go) and scores it through predictRowsRange — the fused
// AVX-512 kernel when the hardware allows — so columnar predictions are
// bit-identical to per-sample Predict. Chunk boundaries
// are multiples of blockedChunk and tiles of laneBlock, exactly the row
// path's block grid, so results are also worker-count invariant.
func (c *CompiledTree) predictColsRange(cols [][]float64, lo, hi int, out []float64) {
	n := hi - lo
	if n <= 0 {
		return
	}
	sc := scratchPool.Get().(*predictScratch)
	// Sub-chunk so the gather's destination and the kernel's re-read stay
	// L1-resident (colSubChunk × width floats ≈ 26 KiB at CPU2006 width)
	// instead of bouncing a full chunk through L2. Sub-chunk boundaries
	// are multiples of laneBlock, so the tile grid — and with it bit
	// identity — is unchanged.
	for t := lo; t < hi; t += colSubChunk {
		te := min(t+colSubChunk, hi)
		m := te - t
		rows := sc.sampleRows(m, c.width)
		transposeChunk(cols, t, m, c.width, sc.rowbuf)
		c.predictRowsRange(rows, 0, m, out[t:te])
	}
	scratchPool.Put(sc)
}

// classifyRowsRange fills out[lo:hi] with 1-based LeafIDs through the
// blocked row-major kernel.
func (c *CompiledTree) classifyRowsRange(samples []dataset.Sample, lo, hi int, out []int) {
	var refs [laneBlock]int32
	for blo := lo; blo < hi; blo += laneBlock {
		n := min(laneBlock, hi-blo)
		c.routeRows(samples, blo, n, &refs)
		for l := 0; l < n; l++ {
			out[blo+l] = int(^refs[l]) + 1
		}
	}
}
