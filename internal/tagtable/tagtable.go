// Package tagtable implements the N-way set-associative tagged store that
// underlies the paper's critics: the tagged gshare ("its structure is
// similar to a N-way associative cache, with each data item being a
// two-bit counter") and the tag filter of the filtered perceptron
// (Section 4, Figure 3).
//
// The index and the tag are computed with two deliberately different hash
// functions of the branch address and the BOR value, and entries are
// managed with LRU replacement, all as specified in Section 4. The paper
// reports that "only 8-10 bit tags are needed to clearly identify the
// different branch contexts."
package tagtable

import (
	"fmt"

	"prophetcritic/internal/bitutil"
	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/counter"
)

// Table is an N-way set-associative array of (tag, 2-bit counter) entries.
//
// The entries are stored as parallel arrays, set-major, so a lookup scans
// only the set's keys (4 bytes a way) and reads one counter on a hit: a
// key is keyValid|tag, 0 for an invalid entry; a counter is a bare 2-bit
// value (0..3, taken when >= 2); used is the LRU timestamp.
type Table struct {
	keys     []uint32
	ctrs     []uint8
	used     []uint64
	tagBits  uint
	ways     int
	histLen  uint   // BOR bits consumed by the hash functions
	histMask uint64 // precomputed bitutil.Mask(histLen)
	clock    uint64
	counters bool // whether SizeBits accounts for the per-entry counter

	index, tag bitutil.Folder // IndexHash and TagHash folds, one per width

	// One-entry memo of the last (addr, masked hist) hashed and its set
	// base and key. A critic looks a context up and then updates or
	// allocates the same context, so the second access skips both
	// hashes. The mapping depends only on the geometry, so the memo is
	// never stale (restores included); like the perceptron's dot-product
	// memo it makes a Table single-goroutine, lookups included.
	mAddr, mHist uint64
	mBase        int
	mKey         uint32
}

// keyValid marks a valid entry's key; tags are at most 16 bits wide.
const keyValid = 1 << 31

// New returns a table with 2^setBits sets of the given associativity.
// tagBits is the stored tag width; histLen is the number of history/BOR
// bits hashed into the index and tag. withCounters controls whether each
// entry carries a 2-bit counter (tagged gshare) or is a bare tag (the
// filtered perceptron's filter).
func New(setBits uint, ways int, tagBits, histLen uint, withCounters bool) *Table {
	if setBits > 28 {
		panic(fmt.Sprintf("tagtable: setBits %d out of range", setBits))
	}
	if ways < 1 {
		panic("tagtable: ways must be >= 1")
	}
	if tagBits < 1 || tagBits > 16 {
		panic(fmt.Sprintf("tagtable: tagBits %d out of range [1,16]", tagBits))
	}
	n := (1 << setBits) * ways
	t := &Table{
		keys:     make([]uint32, n),
		ctrs:     make([]uint8, n),
		used:     make([]uint64, n),
		tagBits:  tagBits,
		ways:     ways,
		histLen:  histLen,
		histMask: bitutil.Mask(histLen),
		counters: withCounters,
		index:    bitutil.NewFolder(setBits),
		tag:      bitutil.NewFolder(tagBits),
	}
	t.mBase, t.mKey = t.hash(0, 0) // the memo starts at (0, 0), never empty
	return t
}

// hash returns the set base (the set's first entry) and the valid key of
// (addr, h), h already masked to histLen: bitutil.IndexHash and
// bitutil.TagHash through the table's Folders.
//
//pclint:hotpath
func (t *Table) hash(addr, h uint64) (base int, key uint32) {
	set := t.index.Fold(addr>>2 ^ h)
	return int(set) * t.ways, keyValid | uint32(t.tag.Fold(bitutil.TagMix(addr, h)))
}

// locate returns the set base and key of (addr, hist), through the memo.
//
//pclint:hotpath
func (t *Table) locate(addr, hist uint64) (base int, key uint32) {
	h := hist & t.histMask
	if addr != t.mAddr || h != t.mHist {
		t.mAddr, t.mHist = addr, h
		t.mBase, t.mKey = t.hash(addr, h)
	}
	return t.mBase, t.mKey
}

// find returns the entry index of key in the set at base, or -1.
//
//pclint:hotpath
func (t *Table) find(base int, key uint32) int {
	for i, k := range t.keys[base : base+t.ways] {
		if k == key {
			return base + i
		}
	}
	return -1
}

// Lookup reports whether (addr, hist) hits and, if so, the direction its
// counter predicts. Lookup leaves the table's contents unchanged.
//
//pclint:hotpath
func (t *Table) Lookup(addr, hist uint64) (taken, hit bool) {
	if e := t.find(t.locate(addr, hist)); e >= 0 {
		return counter.Sat2Taken(t.ctrs[e]), true
	}
	return false, false
}

// Update trains the counter of a hitting entry toward the outcome and
// refreshes its LRU position. It reports whether the entry was found.
//
//pclint:hotpath
func (t *Table) Update(addr, hist uint64, taken bool) bool {
	e := t.find(t.locate(addr, hist))
	if e < 0 {
		return false
	}
	counter.Sat2Update(&t.ctrs[e], taken)
	t.clock++
	t.used[e] = t.clock
	return true
}

// Allocate inserts an entry for (addr, hist), replacing the LRU way, with
// its counter initialised weakly toward the outcome. If the entry already
// exists it is re-initialised and touched instead.
//
//pclint:hotpath
func (t *Table) Allocate(addr, hist uint64, taken bool) {
	base, key := t.locate(addr, hist)
	t.clock++
	keys, used := t.keys[base:base+t.ways], t.used[base:base+t.ways]
	victim := 0
	for i, k := range keys {
		// Already present: refresh it. Free ways follow the valid ones
		// (entries are never invalidated), so the first is the victim.
		if k == key || k == 0 {
			victim = i
			break
		}
		if used[i] < used[victim] {
			victim = i
		}
	}
	keys[victim] = key
	t.ctrs[base+victim] = counter.Sat2Weak(taken)
	used[victim] = t.clock
}

// Entries returns the total entry count (sets × ways).
func (t *Table) Entries() int { return len(t.keys) }

// Ways returns the associativity.
func (t *Table) Ways() int { return t.ways }

// HistLen returns the number of BOR bits the hash functions consume.
func (t *Table) HistLen() uint { return t.histLen }

// SizeBits returns the storage cost: tag (+ optional 2-bit counter) per
// entry. LRU state is excluded, matching the paper's budget accounting,
// which fits 1024×6-way tagged entries in 8KB.
func (t *Table) SizeBits() int {
	per := int(t.tagBits)
	if t.counters {
		per += 2
	}
	return len(t.keys) * per
}

// Snapshot implements checkpoint.Snapshotter: every entry (valid, tag,
// counter, LRU timestamp) plus the LRU clock.
func (t *Table) Snapshot(enc *checkpoint.Encoder) {
	enc.Section("tagtable")
	enc.Uvarint(uint64(len(t.keys)))
	enc.Uvarint(uint64(t.ways))
	enc.Uvarint(t.clock)
	for i, k := range t.keys {
		enc.Bool(k != 0)
		enc.Uvarint(uint64(k &^ keyValid))
		enc.Uvarint(uint64(t.ctrs[i]))
		enc.Uvarint(t.used[i])
	}
}

// Restore implements checkpoint.Snapshotter. An invalid entry must be
// all zero: the table never writes anything else, and the key layout has
// no room for the tag of an invalid entry.
func (t *Table) Restore(dec *checkpoint.Decoder) error {
	dec.Section("tagtable")
	if n := dec.Uvarint(); dec.Err() == nil && n != uint64(len(t.keys)) {
		dec.Failf("tagtable: %d entries restored into %d-entry table", n, len(t.keys))
	}
	if w := dec.Uvarint(); dec.Err() == nil && w != uint64(t.ways) {
		dec.Failf("tagtable: %d-way snapshot restored into %d-way table", w, t.ways)
	}
	clock := dec.Uvarint()
	tagMask := bitutil.Mask(t.tagBits)
	keys := make([]uint32, len(t.keys))
	ctrs := make([]uint8, len(t.ctrs))
	used := make([]uint64, len(t.used))
	for i := range keys {
		valid := dec.Bool()
		tag := dec.Uvarint()
		ctr := dec.Uvarint()
		used[i] = dec.Uvarint()
		if dec.Err() != nil {
			break
		}
		if tag&^tagMask != 0 {
			dec.Failf("tagtable: entry %d tag %#x exceeds %d bits", i, tag, t.tagBits)
			break
		}
		if ctr > 3 {
			dec.Failf("tagtable: entry %d counter %d outside the 2-bit range", i, ctr)
			break
		}
		if !valid {
			if tag != 0 || ctr != 0 || used[i] != 0 {
				dec.Failf("tagtable: invalid entry %d holds tag %#x, counter %d, timestamp %d", i, tag, ctr, used[i])
				break
			}
			continue
		}
		keys[i] = keyValid | uint32(tag)
		ctrs[i] = uint8(ctr)
	}
	if err := dec.Err(); err != nil {
		return err
	}
	t.clock = clock
	copy(t.keys, keys)
	copy(t.ctrs, ctrs)
	copy(t.used, used)
	return nil
}

// Occupancy returns the fraction of valid entries, for diagnostics.
func (t *Table) Occupancy() float64 {
	n := 0
	for _, k := range t.keys {
		if k != 0 {
			n++
		}
	}
	return float64(n) / float64(len(t.keys))
}
