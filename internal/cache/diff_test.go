package cache

import (
	"fmt"
	"testing"
)

// refCache is the array-of-sets cache the flat struct-of-arrays Cache
// replaced, kept as the reference its victim rules must reproduce.
type refCache struct {
	sets     [][]refLine
	setBits  uint
	lineBits uint
	clock    uint64
	accesses uint64
	misses   uint64
}

type refLine struct {
	valid bool
	tag   uint64
	used  uint64
}

func newRefCache(sizeBytes, ways, lineBytes int) *refCache {
	nsets := sizeBytes / lineBytes / ways
	c := &refCache{sets: make([][]refLine, nsets)}
	for c.setBits = 0; 1<<c.setBits < nsets; c.setBits++ {
	}
	for c.lineBits = 0; 1<<c.lineBits < lineBytes; c.lineBits++ {
	}
	for i := range c.sets {
		c.sets[i] = make([]refLine, ways)
	}
	return c
}

func (c *refCache) locate(addr uint64) ([]refLine, uint64) {
	lineAddr := addr >> c.lineBits
	return c.sets[lineAddr&(1<<c.setBits-1)], lineAddr
}

func (c *refCache) Access(addr uint64) bool {
	c.accesses++
	set, tag := c.locate(addr)
	c.clock++
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = c.clock
			return true
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].used < set[victim].used {
			victim = i
		}
	}
	c.misses++
	set[victim] = refLine{valid: true, tag: tag, used: c.clock}
	return false
}

func (c *refCache) Contains(addr uint64) bool {
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Prefill(addr uint64) {
	set, tag := c.locate(addr)
	c.clock++
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	set[victim] = refLine{valid: true, tag: tag, used: c.clock}
}

// refPrefetcher is Prefetcher over a refCache.
type refPrefetcher struct {
	streams []stream
	target  *refCache
}

func (p *refPrefetcher) Miss(addr uint64, now uint64) {
	lineBytes := uint64(1) << p.target.lineBits
	thisLine := addr &^ (lineBytes - 1)
	next := thisLine + lineBytes
	victim := 0
	for i := range p.streams {
		s := &p.streams[i]
		if s.valid && s.nextLine == thisLine {
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

// TestCacheMatchesArrayOfSets drives the flat cache and the reference
// with the same random streams of accesses, prefills and prefetcher
// misses on each Table 2 geometry, and requires the same hit or miss
// on every access, the same counters, and the same residency.
func TestCacheMatchesArrayOfSets(t *testing.T) {
	geometries := []struct {
		name                  string
		size, ways, lineBytes int
	}{
		{"L1I", 64 << 10, 8, 64},
		{"L1D", 32 << 10, 16, 64},
		{"L2", 2 << 20, 16, 64},
	}
	for _, g := range geometries {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				got, want := New(g.name, g.size, g.ways, g.lineBytes), newRefCache(g.size, g.ways, g.lineBytes)
				gotPF := NewPrefetcher(16, got)
				wantPF := &refPrefetcher{streams: make([]stream, 16), target: want}
				nsets := uint64(g.size / g.lineBytes / g.ways)
				rng := seed * 0x9e3779b97f4a7c15
				next := func() uint64 {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					return rng
				}
				// addr draws a line in one of a few hot sets with a tag
				// from a pool three times the associativity (so sets
				// fill, evict and re-reference), a sequential stream the
				// prefetcher follows, or an arbitrary line.
				stride := uint64(0)
				addr := func() uint64 {
					r := next()
					switch r % 4 {
					case 0, 1:
						set := r >> 8 % 8 * (nsets / 8)
						tag := r >> 16 % uint64(3*g.ways)
						return (tag*nsets+set)<<6 | r>>32%64
					case 2:
						stride += 64
						return 0x4000_0000 + stride
					default:
						return r >> 20
					}
				}
				for i := 0; i < 200_000; i++ {
					a := addr()
					switch op := next() % 8; {
					case op < 5:
						h, w := got.Access(a), want.Access(a)
						if h != w {
							t.Fatalf("op %d: Access(%#x) = %v, reference %v", i, a, h, w)
						}
						if !h {
							gotPF.Miss(a, uint64(i))
							wantPF.Miss(a, uint64(i))
						}
					case op < 7:
						got.Prefill(a)
						want.Prefill(a)
					default:
						if h, w := got.Contains(a), want.Contains(a); h != w {
							t.Fatalf("op %d: Contains(%#x) = %v, reference %v", i, a, h, w)
						}
					}
				}
				if got.Accesses() != want.accesses || got.Misses() != want.misses {
					t.Fatalf("counters %d/%d, reference %d/%d", got.Accesses(), got.Misses(), want.accesses, want.misses)
				}
				if got.Misses() == 0 || got.Misses() == got.Accesses() {
					t.Fatalf("stream must both hit and miss: %d misses of %d", got.Misses(), got.Accesses())
				}
				for s := uint64(0); s < nsets; s++ {
					for tag := uint64(0); tag < uint64(3*g.ways); tag++ {
						a := (tag*nsets + s) << 6
						if got.Contains(a) != want.Contains(a) {
							t.Fatalf("residency of %#x differs", a)
						}
					}
				}
			})
		}
	}
}
