// Package trace generates synthetic instruction streams that stand in for
// the SPEC benchmark executions we cannot run (the paper's data came from
// proprietary benchmark binaries on real hardware).
//
// A workload phase is described by a Phase: an instruction mix, a memory
// footprint and locality profile, branch-predictability parameters, and
// store-aliasing behaviour. A Generator turns a Phase into a deterministic
// stream of Ops which internal/uarch executes against real cache, TLB,
// predictor, and store-buffer state machines to produce event counts.
package trace

import (
	"errors"
	"fmt"

	"specchar/internal/dataset"
)

// OpKind classifies one micro-operation of the synthetic stream.
type OpKind uint8

// The op kinds produced by the generator. ALU covers every instruction
// that exercises no modeled structure.
const (
	ALU OpKind = iota
	Load
	Store
	Branch
	Mul
	Div
	SIMDOp
)

// String returns the op kind's name.
func (k OpKind) String() string {
	switch k {
	case ALU:
		return "alu"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	case Mul:
		return "mul"
	case Div:
		return "div"
	case SIMDOp:
		return "simd"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one instruction of the synthetic stream.
type Op struct {
	Kind OpKind
	PC   uint64 // instruction address (drives the L1I cache)

	// Memory operations.
	Addr uint64 // virtual data address
	Size uint32 // access size in bytes

	// AliasDist is, for a load that targets a recently stored location,
	// the number of ops since that store (data-dependence distance);
	// -1 when the load is independent of recent stores.
	AliasDist int
	// PartialOverlap marks an aliasing load that overlaps the store
	// operand only partially (forwarding-hostile).
	PartialOverlap bool

	// Branches.
	Taken bool

	// FpAssist marks an op that triggers a floating-point assist
	// (denormal handling etc.).
	FpAssist bool
}

// Phase parameterizes a steady-state region of a workload's execution.
// Fields left zero are valid and mean "none of this behaviour".
type Phase struct {
	Name string

	// Weight is the share of the benchmark's execution spent in this
	// phase (normalized across the benchmark's phases by the caller).
	Weight float64

	// Instruction mix: the fraction of ops of each kind. The remainder
	// (1 - sum) is plain ALU work. Each must be >= 0 and they must sum to
	// at most 1.
	LoadFrac, StoreFrac, BranchFrac, MulFrac, DivFrac, SIMDFrac float64

	// FpAssistRate is the probability that a SIMD/FP op needs an assist.
	FpAssistRate float64

	// DataFootprint is the bytes of data the phase cycles through.
	DataFootprint int
	// SeqFrac is the fraction of memory accesses that walk sequentially;
	// the remainder jump within the footprint.
	SeqFrac float64
	// HotFrac is the fraction of non-sequential accesses that stay inside
	// a small hot region (HotBytes) instead of roaming the whole
	// footprint. Real workloads hit caches most of the time; HotFrac is
	// what makes misses a tail rather than the norm.
	HotFrac float64
	// HotBytes is the hot region size; 0 defaults to 16 KiB.
	HotBytes int
	// PageSpread optionally widens the virtual-page range of random
	// accesses beyond the footprint (distinct 4 KiB pages touched);
	// 0 derives it from DataFootprint. Large spreads defeat the DTLB.
	PageSpread int
	// AccessSize is the typical access width in bytes (8 scalar,
	// 16 SIMD); 0 defaults to 8.
	AccessSize int
	// MisalignRate is the probability a memory access is not naturally
	// aligned (may also split a cache line).
	MisalignRate float64

	// StoreAliasRate is the probability that a load targets a recently
	// stored location; PartialOverlapFrac is the fraction of those that
	// overlap the store operand only partially.
	StoreAliasRate     float64
	PartialOverlapFrac float64

	// CodeFootprint is the bytes of hot code (drives L1I misses).
	CodeFootprint int
	// BranchSites is the number of static branch sites; 0 defaults to 64.
	BranchSites int
	// BranchEntropy in [0, 1] sets how unpredictable branch outcomes are:
	// 0 gives fully biased (easily predicted) branches, 1 gives coin
	// flips.
	BranchEntropy float64

	// ILP is the phase's instruction-level-parallelism factor (>= 1):
	// the microarchitecture divides exposed stall penalties by it,
	// modeling overlap of misses with useful work. 0 defaults to 1.5.
	ILP float64
}

// Validate checks the phase for internally consistent parameters.
func (p *Phase) Validate() error {
	mix := p.LoadFrac + p.StoreFrac + p.BranchFrac + p.MulFrac + p.DivFrac + p.SIMDFrac
	switch {
	case p.LoadFrac < 0 || p.StoreFrac < 0 || p.BranchFrac < 0 ||
		p.MulFrac < 0 || p.DivFrac < 0 || p.SIMDFrac < 0:
		return errors.New("trace: negative instruction-mix fraction")
	case mix > 1+1e-9:
		return fmt.Errorf("trace: instruction mix sums to %.3f > 1", mix)
	case p.Weight < 0:
		return errors.New("trace: negative phase weight")
	case p.SeqFrac < 0 || p.SeqFrac > 1:
		return errors.New("trace: SeqFrac outside [0,1]")
	case p.HotFrac < 0 || p.HotFrac > 1:
		return errors.New("trace: HotFrac outside [0,1]")
	case p.HotBytes < 0:
		return errors.New("trace: negative HotBytes")
	case p.BranchEntropy < 0 || p.BranchEntropy > 1:
		return errors.New("trace: BranchEntropy outside [0,1]")
	case p.MisalignRate < 0 || p.MisalignRate > 1:
		return errors.New("trace: MisalignRate outside [0,1]")
	case p.StoreAliasRate < 0 || p.StoreAliasRate > 1:
		return errors.New("trace: StoreAliasRate outside [0,1]")
	case p.PartialOverlapFrac < 0 || p.PartialOverlapFrac > 1:
		return errors.New("trace: PartialOverlapFrac outside [0,1]")
	case p.DataFootprint < 0 || p.CodeFootprint < 0:
		return errors.New("trace: negative footprint")
	case p.FpAssistRate < 0 || p.FpAssistRate > 1:
		return errors.New("trace: FpAssistRate outside [0,1]")
	case p.ILP < 0:
		return errors.New("trace: negative ILP")
	}
	return nil
}

const pageSize = 4096

// Generator produces the op stream of one phase.
type Generator struct {
	phase Phase
	rng   dataset.RNG // owned by value: no pointer chase per draw

	dataBase uint64 // base virtual address of the data region
	codeBase uint64
	seqAddr  uint64 // cursor of the sequential access stream
	pc       uint64 // cursor within the hot code region

	branchBias []float64 // per-site probability of "taken"
	branchPCs  []uint64

	recentStores ring // last stores for alias generation
	sinceStore   int  // ops since the most recent store

	opCount int
}

// storeRec remembers a recent store for alias construction.
type storeRec struct {
	addr uint64
	size uint32
	op   int // op index at which the store was issued
}

// ring is a fixed-capacity ring of recent stores.
type ring struct {
	buf  [16]storeRec
	n    int
	next int
}

func (r *ring) push(s storeRec) {
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// aliasWindow bounds how far back an aliasing load reaches: loads
// overwhelmingly depend on the most recent stores (spilled temporaries,
// just-written struct fields), so pick draws uniformly from the last
// aliasWindow stores rather than the whole ring.
const aliasWindow = 8

// pick returns a recent store, biased to the most recent aliasWindow.
func (r *ring) pick(rng *dataset.RNG) (storeRec, bool) {
	if r.n == 0 {
		return storeRec{}, false
	}
	span := r.n
	if span > aliasWindow {
		span = aliasWindow
	}
	idx := (r.next - 1 - rng.Intn(span) + 2*len(r.buf)) % len(r.buf)
	return r.buf[idx], true
}

// NewGenerator builds a generator over the phase. The phase must be
// valid (see Validate); an invalid phase yields an error. The generator
// draws its branch sites from rng and then copies rng's state: Next
// advances only that copy, never the caller's rng, so callers pass a
// fresh stream (NewRNG or Fork) per generator.
func NewGenerator(phase Phase, rng *dataset.RNG) (*Generator, error) {
	return NewGeneratorSlot(phase, rng, 0)
}

// NewGeneratorSlot is NewGenerator with the data region placed at a
// distinct virtual base per slot, so multiple simulated threads (OMP
// workers on a shared cache) operate on disjoint data slices as real
// parallel loops do. Like NewGenerator, it copies rng's state after
// drawing the branch sites, and Next never advances the caller's rng.
func NewGeneratorSlot(phase Phase, rng *dataset.RNG, slot int) (*Generator, error) {
	if err := phase.Validate(); err != nil {
		return nil, err
	}
	if phase.AccessSize <= 0 {
		phase.AccessSize = 8
	}
	if phase.BranchSites <= 0 {
		phase.BranchSites = 64
	}
	if phase.ILP == 0 {
		phase.ILP = 1.5
	}
	if phase.DataFootprint <= 0 {
		phase.DataFootprint = 1 << 16
	}
	if phase.CodeFootprint <= 0 {
		phase.CodeFootprint = 1 << 13
	}
	if phase.HotBytes <= 0 {
		phase.HotBytes = 1 << 14
	}
	if phase.HotBytes > phase.DataFootprint {
		phase.HotBytes = phase.DataFootprint
	}
	g := &Generator{
		phase:    phase,
		dataBase: 0x10_0000_0000 + uint64(slot)*0x40_0000_0000,
		codeBase: 0x40_0000, // code is shared between threads, as in OMP
	}
	g.seqAddr = g.dataBase
	g.branchBias = make([]float64, phase.BranchSites)
	g.branchPCs = make([]uint64, phase.BranchSites)
	for i := range g.branchBias {
		// Sites are individually biased; entropy interpolates each site's
		// bias toward 0.5 (a coin flip). As in real code, most sites are
		// strongly biased (loop back-edges, error checks) with a small
		// middling tail — an iid site at p=0.7 is unpredictable by any
		// predictor, so middling sites are kept rare.
		bias := siteBias(rng)
		g.branchBias[i] = bias*(1-phase.BranchEntropy) + 0.5*phase.BranchEntropy
		g.branchPCs[i] = g.codeBase + uint64(rng.Intn(phase.CodeFootprint))&^3
	}
	g.rng = *rng
	return g, nil
}

// siteBias draws a branch site's taken-probability: 45% strongly
// not-taken, 45% strongly taken, 10% middling.
func siteBias(rng *dataset.RNG) float64 {
	switch u := rng.Float64(); {
	case u < 0.45:
		return 0.01 + 0.07*rng.Float64()
	case u < 0.90:
		return 0.92 + 0.07*rng.Float64()
	default:
		return 0.30 + 0.40*rng.Float64()
	}
}

// Phase returns the generator's (defaulted) phase parameters.
func (g *Generator) Phase() Phase { return g.phase }

// CodeRegion returns the base virtual address and byte span of the
// phase's hot code region, for pre-warming the instruction side.
func (g *Generator) CodeRegion() (base uint64, span int) {
	return g.codeBase, g.phase.CodeFootprint
}

// DataRegion returns the base virtual address and byte span of the
// phase's data region (the wider of the footprint and the page spread),
// letting callers pre-warm caches to steady state before measuring.
func (g *Generator) DataRegion() (base uint64, span int) {
	span = g.phase.DataFootprint
	if g.phase.PageSpread > 0 && g.phase.PageSpread*pageSize > span {
		span = g.phase.PageSpread * pageSize
	}
	return g.dataBase, span
}

// Next produces the next op of the stream.
func (g *Generator) Next() Op {
	g.opCount++
	g.sinceStore++
	p := &g.phase
	u := g.rng.Float64()
	var op Op
	op.PC = g.nextPC()
	switch {
	case u < p.LoadFrac:
		op = g.genLoad(op.PC)
	case u < p.LoadFrac+p.StoreFrac:
		op = g.genStore(op.PC)
	case u < p.LoadFrac+p.StoreFrac+p.BranchFrac:
		op = g.genBranch(op.PC)
	case u < p.LoadFrac+p.StoreFrac+p.BranchFrac+p.MulFrac:
		op.Kind = Mul
		op.AliasDist = -1
	case u < p.LoadFrac+p.StoreFrac+p.BranchFrac+p.MulFrac+p.DivFrac:
		op.Kind = Div
		op.AliasDist = -1
	case u < p.LoadFrac+p.StoreFrac+p.BranchFrac+p.MulFrac+p.DivFrac+p.SIMDFrac:
		op.Kind = SIMDOp
		op.AliasDist = -1
		op.FpAssist = g.rng.Float64() < p.FpAssistRate
	default:
		op.Kind = ALU
		op.AliasDist = -1
	}
	return op
}

// nextPC advances the instruction-address cursor through the hot code
// region, wrapping at the code footprint. Occasional long jumps model
// function calls across the region.
func (g *Generator) nextPC() uint64 {
	if g.rng.Float64() < 0.02 {
		g.pc = uint64(g.rng.Intn(g.phase.CodeFootprint)) &^ 3
	} else {
		g.pc = (g.pc + 4) % uint64(g.phase.CodeFootprint)
	}
	return g.codeBase + g.pc
}

func (g *Generator) accessSize() uint32 {
	return uint32(g.phase.AccessSize)
}

// dataAddr produces the next data address according to the locality mix.
func (g *Generator) dataAddr(size uint32) uint64 {
	p := &g.phase
	var addr uint64
	switch {
	case g.rng.Float64() < p.SeqFrac:
		g.seqAddr += uint64(size)
		if g.seqAddr >= g.dataBase+uint64(p.DataFootprint) {
			g.seqAddr = g.dataBase
		}
		addr = g.seqAddr
	case g.rng.Float64() < p.HotFrac:
		addr = g.dataBase + uint64(g.rng.Intn(p.HotBytes))
	default:
		span := p.DataFootprint
		if p.PageSpread > 0 {
			span = p.PageSpread * pageSize
		}
		addr = g.dataBase + uint64(g.rng.Intn(span))
	}
	// Natural alignment unless a misalignment is injected.
	addr &^= uint64(size) - 1
	if size > 1 && g.rng.Float64() < p.MisalignRate {
		addr += uint64(1 + g.rng.Intn(int(size)-1))
	}
	return addr
}

func (g *Generator) genLoad(pc uint64) Op {
	op := Op{Kind: Load, PC: pc, Size: g.accessSize(), AliasDist: -1}
	p := &g.phase
	if g.rng.Float64() < p.StoreAliasRate {
		if st, ok := g.recentStores.pick(&g.rng); ok {
			dist := g.opCount - st.op
			op.Addr = st.addr
			op.Size = st.size
			op.AliasDist = dist
			if g.rng.Float64() < p.PartialOverlapFrac {
				// Load a narrower slice at a non-zero offset inside the
				// stored bytes: partial overlap, hostile to forwarding.
				op.PartialOverlap = true
				if st.size > 4 {
					op.Addr = st.addr + 2
					op.Size = st.size / 2
				}
			}
			return op
		}
	}
	op.Addr = g.dataAddr(op.Size)
	return op
}

func (g *Generator) genStore(pc uint64) Op {
	op := Op{Kind: Store, PC: pc, Size: g.accessSize(), AliasDist: -1}
	op.Addr = g.dataAddr(op.Size)
	g.recentStores.push(storeRec{addr: op.Addr, size: op.Size, op: g.opCount})
	g.sinceStore = 0
	return op
}

func (g *Generator) genBranch(pc uint64) Op {
	site := g.rng.Intn(len(g.branchBias))
	return Op{
		Kind:      Branch,
		PC:        g.branchPCs[site],
		Taken:     g.rng.Float64() < g.branchBias[site],
		AliasDist: -1,
	}
}
