// Package btb implements the branch target buffer the front-end uses to
// identify branches: "The hybrid uses a branch target buffer (BTB) to
// identify branches. When a conditional branch is identified, the hybrid
// predicts its direction. When a branch misses the BTB, a BTB entry is
// allocated for the branch when it commits" (Section 5). Table 2 sizes it
// at 4096 entries, 4-way set associative.
package btb

import (
	"fmt"

	"prophetcritic/internal/bitutil"
)

// BTB is an N-way set-associative branch identification table with LRU
// replacement. Only conditional-branch identity matters for this study,
// so entries store the branch address (as a tag) and its taken target.
type BTB struct {
	entries []entry
	fold    bitutil.Folder // the address fold to log2(sets) bits
	ways    int
	clock   uint64

	lookups uint64
	misses  uint64
}

type entry struct {
	valid  bool
	tag    uint64
	target uint64
	used   uint64
}

// New returns a BTB with the given total entries and associativity;
// entries must be a multiple of ways with a power-of-two set count.
// New(4096, 4) builds the paper's configuration.
func New(entries, ways int) *BTB {
	if ways < 1 || entries < ways || entries%ways != 0 {
		panic(fmt.Sprintf("btb: bad geometry %d entries / %d ways", entries, ways))
	}
	sets := uint64(entries / ways)
	if !bitutil.IsPow2(sets) {
		panic(fmt.Sprintf("btb: set count %d not a power of two", sets))
	}
	return &BTB{entries: make([]entry, entries), fold: bitutil.NewFolder(bitutil.Log2(sets)), ways: ways}
}

//pclint:hotpath
func (b *BTB) set(addr uint64) []entry {
	idx := b.fold.Fold(addr >> 2)
	return b.entries[idx*uint64(b.ways) : (idx+1)*uint64(b.ways)]
}

// Lookup reports whether the branch at addr is identified, and its stored
// taken target. A hit refreshes LRU state.
//
//pclint:hotpath
func (b *BTB) Lookup(addr uint64) (target uint64, hit bool) {
	b.lookups++
	set := b.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == addr {
			b.clock++
			set[i].used = b.clock
			return set[i].target, true
		}
	}
	b.misses++
	return 0, false
}

// Insert allocates (or updates) the entry for addr, called at branch
// commit per the paper's allocation policy.
//
//pclint:hotpath
func (b *BTB) Insert(addr, target uint64) {
	set := b.set(addr)
	b.clock++
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == addr {
			set[i].target = target
			set[i].used = b.clock
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
	set[victim] = entry{valid: true, tag: addr, target: target, used: b.clock}
}

// MissRate returns the fraction of lookups that missed.
func (b *BTB) MissRate() float64 {
	if b.lookups == 0 {
		return 0
	}
	return float64(b.misses) / float64(b.lookups)
}

// ResetStats zeroes the lookup and miss counts, so that MissRate covers
// only the lookups that follow; the entries are kept.
func (b *BTB) ResetStats() { b.lookups, b.misses = 0, 0 }

// Entries returns the capacity.
func (b *BTB) Entries() int { return len(b.entries) }

// SizeBits approximates storage: tag (30 bits of address) + target (30) +
// valid per entry.
func (b *BTB) SizeBits() int { return len(b.entries) * 61 }
