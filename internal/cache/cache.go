// Package cache models the memory hierarchy of Table 2: a 64KB 8-way
// instruction cache, a 32KB 16-way L1 data cache (3-cycle hit), a 2MB
// 16-way unified L2 (16-cycle hit), 100ns main memory, and a stream-based
// hardware prefetcher with 16 streams.
package cache

import (
	"fmt"

	"prophetcritic/internal/bitutil"
)

// Cache is a set-associative cache with LRU replacement, modelling hit or
// miss per line-granular access. Its sets are flat struct-of-arrays:
// way w of set s is index s*ways+w of keys and used.
type Cache struct {
	name     string
	keys     []uint64 // line tag + 1; 0 is an invalid way
	used     []uint64 // LRU stamp of the way's last fill or hit
	setBits  uint
	ways     int
	lineBits uint
	clock    uint64

	accesses uint64
	misses   uint64
}

// New returns a cache of sizeBytes with the given associativity and line
// size. Geometry must divide into a power-of-two set count.
func New(name string, sizeBytes, ways, lineBytes int) *Cache {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		panic("cache: sizes must be positive")
	}
	lines := sizeBytes / lineBytes
	if lines%ways != 0 {
		panic(fmt.Sprintf("cache %s: %d lines not divisible by %d ways", name, lines, ways))
	}
	nsets := uint64(lines / ways)
	if !bitutil.IsPow2(nsets) {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, nsets))
	}
	return &Cache{
		name:     name,
		keys:     make([]uint64, lines),
		used:     make([]uint64, lines),
		setBits:  bitutil.Log2(nsets),
		ways:     ways,
		lineBits: bitutil.Log2(uint64(lineBytes)),
	}
}

// locate returns addr's set as its keys and LRU stamps, and the line's
// key (its tag plus one, so that no valid key is 0).
//
//pclint:hotpath
func (c *Cache) locate(addr uint64) (keys, used []uint64, key uint64) {
	lineAddr := addr >> c.lineBits
	base := int(lineAddr&bitutil.Mask(c.setBits)) * c.ways
	return c.keys[base : base+c.ways], c.used[base : base+c.ways], lineAddr + 1
}

// Access looks up addr, filling the line on a miss, and reports whether
// it hit. A miss fills the last invalid way, else the least recently
// used way (the first, on a tie).
//
//pclint:hotpath
func (c *Cache) Access(addr uint64) bool {
	c.accesses++
	keys, used, key := c.locate(addr)
	c.clock++
	used = used[:len(keys)]
	for i, k := range keys {
		if k == key {
			used[i] = c.clock
			return true
		}
	}
	victim := 0
	for i, k := range keys {
		if k == 0 {
			victim = i
		} else if keys[victim] != 0 && used[i] < used[victim] {
			victim = i
		}
	}
	c.misses++
	keys[victim], used[victim] = key, c.clock
	return false
}

// Contains reports whether addr's line is resident without touching LRU
// or statistics.
func (c *Cache) Contains(addr uint64) bool {
	keys, _, key := c.locate(addr)
	for _, k := range keys {
		if k == key {
			return true
		}
	}
	return false
}

// Prefill inserts addr's line without counting an access (prefetching).
// The scan stops at the first invalid way, which it fills; a full set
// evicts its least recently used way.
//
//pclint:hotpath
func (c *Cache) Prefill(addr uint64) {
	keys, used, key := c.locate(addr)
	c.clock++
	used = used[:len(keys)]
	victim := 0
	for i, k := range keys {
		if k == key {
			return
		}
		if k == 0 {
			victim = i
			break
		}
		if used[i] < used[victim] {
			victim = i
		}
	}
	keys[victim], used[victim] = key, c.clock
}

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// Accesses and Misses expose raw counters.
func (c *Cache) Accesses() uint64 { return c.accesses }
func (c *Cache) Misses() uint64   { return c.misses }

// ResetStats zeroes the access and miss counts, so that MissRate covers
// only the accesses that follow; the contents are kept.
func (c *Cache) ResetStats() { c.accesses, c.misses = 0, 0 }

// LineBytes returns the line size.
//
//pclint:hotpath
func (c *Cache) LineBytes() int { return 1 << c.lineBits }

// Name returns the cache's label.
func (c *Cache) Name() string { return c.name }

// Prefetcher is the stream-based hardware prefetcher of Table 2: it
// tracks up to N independent miss streams and, when consecutive misses
// continue a stream, prefills the next line of that stream into the
// target cache.
type Prefetcher struct {
	streams []stream
	target  *Cache
}

type stream struct {
	valid    bool
	nextLine uint64
	used     uint64
}

// NewPrefetcher returns a prefetcher with n streams feeding target.
func NewPrefetcher(n int, target *Cache) *Prefetcher {
	if n < 1 {
		panic("cache: prefetcher needs at least one stream")
	}
	return &Prefetcher{streams: make([]stream, n), target: target}
}

// Miss notifies the prefetcher of a demand miss at addr; on a stream
// continuation it prefills the following line.
//
//pclint:hotpath
func (p *Prefetcher) Miss(addr uint64, now uint64) {
	lineBytes := uint64(p.target.LineBytes())
	thisLine := addr &^ (lineBytes - 1)
	next := thisLine + lineBytes
	victim := 0
	for i := range p.streams {
		s := &p.streams[i]
		if s.valid && s.nextLine == thisLine {
			// Continuation: prefetch ahead and advance the stream.
			p.target.Prefill(next)
			s.nextLine = next
			s.used = now
			return
		}
		if !s.valid {
			victim = i
		} else if p.streams[victim].valid && s.used < p.streams[victim].used {
			victim = i
		}
	}
	p.streams[victim] = stream{valid: true, nextLine: next, used: now}
}

// Hierarchy bundles the Table 2 memory system and returns access
// latencies in cycles.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache

	L1Lat  int // L1D hit latency (3)
	L2Lat  int // L2 hit latency (16)
	MemLat int // memory latency in cycles (100ns at 3.8GHz = 380)

	pf    *Prefetcher
	clock uint64
}

// NewHierarchy builds the Table 2 configuration.
func NewHierarchy() *Hierarchy {
	h := &Hierarchy{
		L1I:    New("L1I", 64<<10, 8, 64),
		L1D:    New("L1D", 32<<10, 16, 64),
		L2:     New("L2", 2<<20, 16, 64),
		L1Lat:  3,
		L2Lat:  16,
		MemLat: 380,
	}
	h.pf = NewPrefetcher(16, h.L2)
	return h
}

// ResetStats zeroes every level's access and miss counts.
func (h *Hierarchy) ResetStats() {
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
}

// Inst returns the latency (cycles beyond the pipelined fetch) of an
// instruction fetch at addr: 0 on an L1I hit.
//
//pclint:hotpath
func (h *Hierarchy) Inst(addr uint64) int {
	h.clock++
	if h.L1I.Access(addr) {
		return 0
	}
	if h.L2.Access(addr) {
		return h.L2Lat
	}
	h.pf.Miss(addr, h.clock)
	return h.MemLat
}

// Data returns the load-to-use latency of a data access at addr.
//
//pclint:hotpath
func (h *Hierarchy) Data(addr uint64) int {
	h.clock++
	if h.L1D.Access(addr) {
		return h.L1Lat
	}
	if h.L2.Access(addr) {
		return h.L2Lat
	}
	h.pf.Miss(addr, h.clock)
	return h.MemLat
}
