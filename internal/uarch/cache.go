// Package uarch is a trace-driven model of a Core 2-class processor core:
// set-associative L1 instruction, L1 data and L2 caches, a data TLB with a
// hardware page walker, an instruction TLB, a gshare branch predictor, and
// store-to-load forwarding with the three blocking conditions the paper's
// events describe (unknown store address, unready store data, partial
// overlap). Executing a synthetic op stream against these state machines
// yields the per-window event counts and cycle totals that
// internal/pmu turns into model samples.
//
// The simulator is statistical, not cycle-accurate: cycles accumulate
// through an additive cost model with an ILP overlap divisor, which is all
// the fidelity the paper's regression methodology consumes.
package uarch

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Cache is a set-associative cache with true-LRU replacement, tracking
// only tags (contents are irrelevant to event generation).
type Cache struct {
	lineShift uint
	tagShift  uint // bits of the line number that select the set
	setMask   uint64
	ways      int
	tags      []uint64 // sets*ways entries holding tag+1; 0 marks an empty way
	used      []uint64 // LRU stamps
	tick      uint64
	last      uint64 // line+1 of the previous access; 0 when there is none
}

// NewCache builds a cache of the given total size, associativity, and
// line size. Size must be divisible by ways*line, the set count must be a
// power of two, and lines must be at least 2 bytes (so every tag leaves
// room for the empty marker).
func NewCache(sizeBytes, ways, lineBytes int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		return nil, errors.New("uarch: cache dimensions must be positive")
	}
	if sizeBytes%(ways*lineBytes) != 0 {
		return nil, fmt.Errorf("uarch: cache size %d not divisible by ways*line %d", sizeBytes, ways*lineBytes)
	}
	sets := sizeBytes / (ways * lineBytes)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("uarch: set count %d is not a power of two", sets)
	}
	if lineBytes < 2 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("uarch: line size %d is not a power of two of at least 2", lineBytes)
	}
	return &Cache{
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		tagShift:  uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		ways:      ways,
		tags:      make([]uint64, sets*ways),
		used:      make([]uint64, sets*ways),
	}, nil
}

// LineBytes returns the cache's line size.
func (c *Cache) LineBytes() int { return 1 << c.lineShift }

// Access looks up the line containing addr, inserting it on a miss
// (evicting the LRU way). It reports whether the access hit.
//
// A repeat of the previous access's line hits without touching the LRU
// state: that line is already the most recent way of its set, and stamps
// are unique, so skipping its tick and stamp leaves every set's LRU order
// exactly as a full lookup would.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineShift
	if line+1 == c.last {
		return true
	}
	c.last = line + 1
	c.tick++
	base := int(line&c.setMask) * c.ways
	tags := c.tags[base : base+c.ways]
	used := c.used[base : base+c.ways]
	tag := line>>c.tagShift + 1
	for i, t := range tags {
		if t == tag {
			used[i] = c.tick
			return true
		}
	}
	// Victim: the last empty way in scan order, otherwise the way with
	// the strictly lowest stamp.
	victim, oldest := 0, used[0]
	for i, t := range tags {
		if t == 0 {
			victim, oldest = i, 0
		} else if used[i] < oldest {
			victim, oldest = i, used[i]
		}
	}
	tags[victim] = tag
	used[victim] = c.tick
	return false
}

// Splits reports whether an access of size bytes at addr crosses a line
// boundary.
func (c *Cache) Splits(addr uint64, size uint32) bool {
	if size == 0 {
		return false
	}
	return addr>>c.lineShift != (addr+uint64(size)-1)>>c.lineShift
}

// Reset invalidates the entire cache.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.used)
	c.tick = 0
	c.last = 0
}

// TLB is a set-associative translation buffer over fixed-size pages,
// implemented as a Cache whose lines are pages.
type TLB struct {
	c *Cache
}

// NewTLB builds a TLB with the given number of entries, associativity,
// and page size.
func NewTLB(entries, ways, pageBytes int) (*TLB, error) {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return nil, fmt.Errorf("uarch: TLB entries %d not divisible by ways %d", entries, ways)
	}
	if pageBytes < 2 || pageBytes&(pageBytes-1) != 0 {
		return nil, fmt.Errorf("uarch: page size %d is not a power of two of at least 2", pageBytes)
	}
	if pageBytes > math.MaxInt/entries {
		return nil, fmt.Errorf("uarch: TLB reach %d entries x %d bytes overflows", entries, pageBytes)
	}
	c, err := NewCache(entries*pageBytes, ways, pageBytes)
	if err != nil {
		return nil, err
	}
	return &TLB{c: c}, nil
}

// Access translates addr, inserting the page on a miss, and reports
// whether the translation hit.
func (t *TLB) Access(addr uint64) bool { return t.c.Access(addr) }

// SpansPages reports whether an access of size bytes at addr touches two
// pages.
func (t *TLB) SpansPages(addr uint64, size uint32) bool { return t.c.Splits(addr, size) }

// Reset invalidates all translations.
func (t *TLB) Reset() { t.c.Reset() }
