package uarch

import (
	"math/bits"
	"testing"
)

func TestNewCacheValidation(t *testing.T) {
	cases := []struct {
		name             string
		size, ways, line int
	}{
		{"zero size", 0, 8, 64},
		{"negative ways", 1024, -1, 64},
		{"size not divisible", 1000, 8, 64},
		{"sets not power of two", 64 * 8 * 3, 8, 64},
		{"line not power of two", 48 * 8 * 4, 8, 48},
		{"one-byte line", 64, 8, 1},
	}
	for _, c := range cases {
		if _, err := NewCache(c.size, c.ways, c.line); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := NewCache(32<<10, 8, 64); err != nil {
		t.Errorf("valid cache rejected: %v", err)
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c, _ := NewCache(1024, 2, 64)
	if c.Access(0x1000) {
		t.Error("cold access should miss")
	}
	if !c.Access(0x1000) {
		t.Error("second access should hit")
	}
	// Same line, different offset.
	if !c.Access(0x103F) {
		t.Error("same-line access should hit")
	}
	// Next line.
	if c.Access(0x1040) {
		t.Error("next line should miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache with 2 sets of 64B lines = 256 bytes.
	c, _ := NewCache(256, 2, 64)
	// Three lines mapping to the same set (stride = sets*line = 128).
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(a)
	c.Access(b)
	c.Access(a)      // a is now MRU
	if c.Access(d) { // evicts b (LRU)
		t.Error("d should miss")
	}
	if !c.Access(a) {
		t.Error("a should survive (was MRU)")
	}
	if c.Access(b) {
		t.Error("b should have been evicted")
	}
}

func TestCacheWorkingSetBehaviour(t *testing.T) {
	// A working set that fits: after one warm pass, all hits.
	c, _ := NewCache(32<<10, 8, 64)
	for addr := uint64(0); addr < 16<<10; addr += 64 {
		c.Access(addr)
	}
	for addr := uint64(0); addr < 16<<10; addr += 64 {
		if !c.Access(addr) {
			t.Fatalf("warm access to %#x missed", addr)
		}
	}
	// A working set 4x the cache streams: every access misses when
	// cycling sequentially (LRU worst case).
	misses := 0
	for pass := 0; pass < 2; pass++ {
		for addr := uint64(0); addr < 128<<10; addr += 64 {
			if !c.Access(addr) {
				misses++
			}
		}
	}
	total := 2 * (128 << 10) / 64
	if misses < total*9/10 {
		t.Errorf("streaming working set: %d/%d misses, expected ~all", misses, total)
	}
}

func TestCacheSplits(t *testing.T) {
	c, _ := NewCache(1024, 2, 64)
	if c.Splits(0, 8) {
		t.Error("aligned 8B access should not split")
	}
	if !c.Splits(60, 8) {
		t.Error("access crossing 64B boundary should split")
	}
	if c.Splits(56, 8) {
		t.Error("access ending exactly at boundary should not split")
	}
	if c.Splits(100, 0) {
		t.Error("zero-size access cannot split")
	}
}

func TestCacheReset(t *testing.T) {
	c, _ := NewCache(1024, 2, 64)
	c.Access(0x2000)
	c.Reset()
	if c.Access(0x2000) {
		t.Error("access after Reset should miss")
	}
}

func TestCacheLineBytes(t *testing.T) {
	c, _ := NewCache(1024, 2, 64)
	if c.LineBytes() != 64 {
		t.Errorf("LineBytes = %d", c.LineBytes())
	}
}

func TestNewTLBValidation(t *testing.T) {
	if _, err := NewTLB(255, 4, 4096); err == nil {
		t.Error("entries not divisible by ways should error")
	}
	if _, err := NewTLB(256, 4, 1000); err == nil {
		t.Error("non-power-of-two page should error")
	}
	if _, err := NewTLB(16, 4, 1); err == nil {
		t.Error("one-byte page should error")
	}
	if _, err := NewTLB(0, 1, 4096); err == nil {
		t.Error("zero entries should error")
	}
	if _, err := NewTLB(256, 4, 4096); err != nil {
		t.Errorf("valid TLB rejected: %v", err)
	}
}

func TestTLBPageGranularity(t *testing.T) {
	tlb, _ := NewTLB(16, 4, 4096)
	if tlb.Access(0x1000) {
		t.Error("cold translation should miss")
	}
	// Anywhere in the same page hits.
	if !tlb.Access(0x1FFF) {
		t.Error("same-page access should hit")
	}
	// Next page misses.
	if tlb.Access(0x2000) {
		t.Error("next page should miss")
	}
}

func TestTLBCapacity(t *testing.T) {
	tlb, _ := NewTLB(16, 4, 4096)
	// Touch 16 pages: fits exactly.
	for p := uint64(0); p < 16; p++ {
		tlb.Access(p * 4096)
	}
	hits := 0
	for p := uint64(0); p < 16; p++ {
		if tlb.Access(p * 4096) {
			hits++
		}
	}
	if hits != 16 {
		t.Errorf("16-page working set in 16-entry TLB: %d/16 hits", hits)
	}
	// 64 pages thrash it.
	tlb.Reset()
	misses := 0
	for pass := 0; pass < 2; pass++ {
		for p := uint64(0); p < 64; p++ {
			if !tlb.Access(p * 4096) {
				misses++
			}
		}
	}
	if misses < 100 {
		t.Errorf("thrashing working set produced only %d misses", misses)
	}
}

func TestTLBSpansPages(t *testing.T) {
	tlb, _ := NewTLB(16, 4, 4096)
	if tlb.SpansPages(4090, 4) {
		t.Error("access within page should not span")
	}
	if !tlb.SpansPages(4094, 4) {
		t.Error("access crossing page boundary should span")
	}
	if tlb.SpansPages(0, 0) {
		t.Error("zero-size access cannot span")
	}
}

func TestBranchPredictorLearnsBiasedBranch(t *testing.T) {
	bp := NewBranchPredictor(12)
	pc := uint64(0x400100)
	correct := 0
	for i := 0; i < 1000; i++ {
		if bp.Predict(pc, true) {
			correct++
		}
	}
	if correct < 950 {
		t.Errorf("always-taken branch predicted correctly only %d/1000", correct)
	}
}

func TestBranchPredictorLearnsPattern(t *testing.T) {
	// Alternating T/N is learnable through history correlation.
	bp := NewBranchPredictor(12)
	pc := uint64(0x400200)
	correct := 0
	for i := 0; i < 2000; i++ {
		if bp.Predict(pc, i%2 == 0) {
			correct++
		}
	}
	if correct < 1700 {
		t.Errorf("alternating branch predicted correctly only %d/2000", correct)
	}
}

func TestBranchPredictorRandomIsNearChance(t *testing.T) {
	bp := NewBranchPredictor(12)
	// xorshift for deterministic "random" outcomes
	x := uint64(88172645463325252)
	correct := 0
	const n = 20000
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if bp.Predict(uint64(0x400000)+uint64(i%64)*4, x&1 == 0) {
			correct++
		}
	}
	rate := float64(correct) / n
	if rate < 0.4 || rate > 0.65 {
		t.Errorf("random branches predicted at %.3f, expected near chance", rate)
	}
}

func TestBranchPredictorReset(t *testing.T) {
	bp := NewBranchPredictor(10)
	pc := uint64(0x400300)
	for i := 0; i < 100; i++ {
		bp.Predict(pc, true)
	}
	bp.Reset()
	// After reset, the first prediction for a taken branch is wrong
	// (counters re-initialized to weakly-not-taken).
	if bp.Predict(pc, true) {
		t.Error("prediction after Reset should be untrained")
	}
}

func TestPreloadCodeWarmsInstructionSide(t *testing.T) {
	c, err := NewCore(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, span := uint64(0x40_0000), 16<<10
	c.PreloadCode(base, span)
	// Every line of the region must now hit in L1I.
	for addr := base; addr < base+uint64(span); addr += 64 {
		if !c.l1i.Access(addr) {
			t.Fatalf("code line %#x cold after PreloadCode", addr)
		}
	}
	// Degenerate spans are no-ops.
	c.PreloadCode(base, 0)
	c.PreloadCode(base, -5)
}

// refCache is the reference true-LRU cache the optimized Cache must match
// access for access: a separate valid array, one scan that both looks for
// the hit and tracks the victim, and a tick on every access.
type refCache struct {
	lineShift uint
	setMask   uint64
	ways      int
	tags      []uint64
	valid     []bool
	used      []uint64
	tick      uint64
}

func newRefCache(sizeBytes, ways, lineBytes int) *refCache {
	sets := sizeBytes / (ways * lineBytes)
	return &refCache{
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		setMask:   uint64(sets - 1),
		ways:      ways,
		tags:      make([]uint64, sets*ways),
		valid:     make([]bool, sets*ways),
		used:      make([]uint64, sets*ways),
	}
}

func (c *refCache) Access(addr uint64) bool {
	c.tick++
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := line >> bits.Len64(c.setMask)
	base := set * c.ways
	lruIdx, lruStamp := base, c.used[base]
	for i := base; i < base+c.ways; i++ {
		if c.valid[i] && c.tags[i] == tag {
			c.used[i] = c.tick
			return true
		}
		if !c.valid[i] {
			lruIdx, lruStamp = i, 0
		} else if c.used[i] < lruStamp {
			lruIdx, lruStamp = i, c.used[i]
		}
	}
	c.tags[lruIdx] = tag
	c.valid[lruIdx] = true
	c.used[lruIdx] = c.tick
	return false
}

func (c *refCache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.used[i] = 0
	}
	c.tick = 0
}

// refTLB is the reference TLB: a one-byte-line refCache fed page numbers.
type refTLB struct {
	c         *refCache
	pageShift uint
}

func (t *refTLB) Access(addr uint64) bool { return t.c.Access(addr >> t.pageShift) }
func (t *refTLB) Reset()                  { t.c.Reset() }

// lookup is the access interface shared by Cache, TLB and their
// references.
type lookup interface {
	Access(addr uint64) bool
	Reset()
}

// geometry is a cache shape for the oracle tests; TLBs built from it have
// sets*ways entries over line-sized pages.
type geometry struct{ sets, ways, line int }

func (g geometry) size() int { return g.sets * g.ways * g.line }

// oracle drives the optimized structures and their references with the
// same stream — a lone cache, a TLB over the same shape, and two private
// L1s over one shared L2 (the NewCorePair topology, L2 twice the L1's
// sets) — and fails on the first access whose outcome differs.
type oracle struct {
	t          testing.TB
	got, want  [5]lookup // cache, TLB, L1 core 0, L1 core 1, shared L2
	steps      int
	hits, miss int
}

func newOracle(t testing.TB, g geometry) *oracle {
	t.Helper()
	o := &oracle{t: t}
	l2 := geometry{2 * g.sets, g.ways, g.line}
	shapes := []geometry{g, g, g, g, l2}
	for i, s := range shapes {
		if i == 1 {
			tlb, err := NewTLB(s.sets*s.ways, s.ways, s.line)
			if err != nil {
				t.Fatalf("NewTLB(%+v): %v", s, err)
			}
			o.got[i] = tlb
			o.want[i] = &refTLB{newRefCache(s.sets*s.ways, s.ways, 1), uint(bits.TrailingZeros(uint(s.line)))}
			continue
		}
		c, err := NewCache(s.size(), s.ways, s.line)
		if err != nil {
			t.Fatalf("NewCache(%+v): %v", s, err)
		}
		o.got[i] = c
		o.want[i] = newRefCache(s.size(), s.ways, s.line)
	}
	return o
}

func (o *oracle) check(which int, addr uint64) bool {
	o.t.Helper()
	got, want := o.got[which].Access(addr), o.want[which].Access(addr)
	if got != want {
		o.t.Fatalf("step %d: structure %d access %#x: hit=%v, reference hit=%v", o.steps, which, addr, got, want)
	}
	if got {
		o.hits++
	} else {
		o.miss++
	}
	return got
}

// access runs one address through the lone cache, the TLB, and the given
// core's L1 (then the shared L2 on an L1 miss).
func (o *oracle) access(core int, addr uint64) {
	o.t.Helper()
	o.steps++
	o.check(0, addr)
	o.check(1, addr)
	if !o.check(2+core, addr) {
		o.check(4, addr)
	}
}

// reset clears every structure, as Core.Reset does (including the shared
// L2).
func (o *oracle) reset() {
	for i := range o.got {
		o.got[i].Reset()
		o.want[i].Reset()
	}
}

func TestCacheMatchesReference(t *testing.T) {
	g := geometry{sets: 4, ways: 4, line: 64}
	stride := uint64(g.sets * g.line) // same-set distance
	type step struct {
		core  int
		addr  uint64
		reset bool
	}
	at := func(core int, addrs ...uint64) []step {
		var s []step
		for _, a := range addrs {
			s = append(s, step{core: core, addr: a})
		}
		return s
	}
	conflict := func(n int, order ...int) []uint64 {
		var a []uint64
		for _, k := range order {
			a = append(a, uint64(k%n)*stride+8)
		}
		return a
	}
	cat := func(parts ...[]step) []step {
		var s []step
		for _, p := range parts {
			s = append(s, p...)
		}
		return s
	}
	reset := []step{{reset: true}}
	// A long pseudo-random stream over a few lines per set, with bursts
	// of repeats, both cores and the odd reset.
	var random []step
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		switch {
		case x%997 == 0:
			random = append(random, reset...)
		case x%3 == 0 && len(random) > 0:
			random = append(random, random[len(random)-1])
		default:
			random = append(random, step{core: int(x>>8) & 1, addr: (x >> 16) % (8 * stride)})
		}
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"repeated lines", at(0, 0, 0, 8, 63, 64, 64, 0, 0, 127, 128, 128, 0)},
		{"same-set conflicts past associativity",
			at(0, conflict(7, 0, 1, 0, 2, 3, 4, 4, 0, 5, 6, 1, 1, 2, 0, 6, 5, 4, 3, 2, 1, 0)...)},
		{"interleaved resets", cat(
			at(0, conflict(6, 0, 1, 2, 3, 4, 0)...), reset,
			at(0, conflict(6, 0, 0, 5, 1, 2, 3, 4, 5)...), reset, reset,
			at(1, 0, 0, stride, 0))},
		// The oracle's TLB has line-sized pages: offsets within a page
		// hit, and pages a stride apart conflict.
		{"page granularity", at(0, 0, 1, 63, 64, 65, 64*16, 64*16+3, 0, 64*32, 64*48, 64*64, 64*80, 1, 64*16)},
		{"shared L2 interleave", cat(
			at(0, conflict(9, 0, 1, 2, 3, 4)...),
			at(1, conflict(9, 5, 6, 7, 8, 0)...),
			at(0, conflict(9, 0, 1, 5, 5)...),
			at(1, conflict(9, 2, 2, 0, 8)...))},
		{"pseudo-random", random},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := newOracle(t, g)
			for _, s := range tc.steps {
				if s.reset {
					o.reset()
					continue
				}
				o.access(s.core, s.addr)
			}
			if o.hits == 0 || o.miss == 0 {
				t.Errorf("stream exercised %d hits and %d misses; want both", o.hits, o.miss)
			}
		})
	}
}

// FuzzCacheAgainstReference decodes a geometry and an access stream from
// the input and requires the optimized structures to agree with the
// reference on every access.
func FuzzCacheAgainstReference(f *testing.F) {
	f.Add([]byte{0x15, 0x08, 0x00, 0x00, 0x08, 0x00, 0x00, 0x08, 0x40, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0x3f, 0x19, 0xff, 0xff, 0x11, 0xff, 0xff, 0x09, 0x00, 0x10, 0x00, 0, 0})
	f.Add([]byte{0x00, 0x01, 0x10, 0x00, 0x09, 0x20, 0x00, 0x01, 0x10, 0x00, 0x01, 0x10, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		b := data[0]
		g := geometry{
			ways: 1 << (b & 3),
			sets: 1 << ((b >> 2) & 3),
			line: 2 << ((b >> 4) & 3),
		}
		o := newOracle(t, g)
		for rest := data[1:]; len(rest) >= 3; rest = rest[3:] {
			op := rest[0]
			if op&7 == 0 {
				o.reset()
				continue
			}
			addr := uint64(rest[1]) | uint64(rest[2])<<8
			if op&0x10 != 0 {
				addr |= ^uint64(0xffff) // the top of the address space
			}
			o.access(int(op>>3)&1, addr)
		}
	})
}
