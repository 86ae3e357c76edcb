// Package bitutil provides the bit-manipulation primitives shared by the
// branch predictors in this repository: power-of-two arithmetic, history
// folding, and the XOR-based index and tag hash functions described in
// Section 4 of the prophet/critic paper ("the hash functions are different
// XOR functions of the branch address and BOR value").
package bitutil

import "math/bits"

// Mask returns a value with the low n bits set. n must be in [0, 64].
//
//pclint:hotpath
func Mask(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v uint64) bool {
	return v != 0 && v&(v-1) == 0
}

// CeilPow2 returns the smallest power of two >= v. CeilPow2(0) == 1.
func CeilPow2(v uint64) uint64 {
	if v <= 1 {
		return 1
	}
	return 1 << uint(bits.Len64(v-1))
}

// Log2 returns floor(log2(v)) for v > 0, and 0 for v == 0.
func Log2(v uint64) uint {
	if v == 0 {
		return 0
	}
	return uint(bits.Len64(v) - 1)
}

// Fold compresses v down to width bits by repeatedly XORing width-bit
// chunks together. It is the standard history-folding trick used when a
// history register is longer than the index a table can accept. width must
// be in (0, 64]; Fold returns 0 when width is 0.
//
//pclint:hotpath
func Fold(v uint64, width uint) uint64 {
	if width == 0 {
		return 0
	}
	if width >= 64 {
		return v
	}
	m := Mask(width)
	// Two independent accumulator chains consume two chunks per
	// iteration; XOR is associative and commutative, so the result is
	// identical to the one-chunk-at-a-time fold while halving the length
	// of the serial dependency this hot helper puts on predictor paths.
	var a, b uint64
	for v != 0 {
		a ^= v & m
		b ^= (v >> width) & m
		v >>= width * 2 // shifts >= 64 yield 0 in Go, terminating the loop
	}
	return a ^ b
}

// Folder is Fold for one fixed width, precomputed for a table whose
// index or tag width never changes. Instead of a loop over chunks it
// XORs the upper half of the (power-of-two padded) chunk sequence onto
// the lower half, then the upper quarter onto the lower quarter, and so
// on: log2 of the chunk count steps, each one shift and one XOR, all at
// chunk boundaries so every chunk lands on chunk 0 exactly once. Fold
// stays the oracle (TestFolderMatchesFold).
type Folder struct {
	shifts [6]uint8 // chunk-aligned shifts, largest first
	steps  int      // shifts in use
	mask   uint64
}

// NewFolder returns the Folder for width bits, with Fold's conventions:
// width 0 folds everything to 0 and width >= 64 is the identity.
func NewFolder(width uint) Folder {
	f := Folder{mask: Mask(width)}
	if width == 0 || width >= 64 {
		return f
	}
	chunks := CeilPow2(uint64((64 + width - 1) / width))
	// chunks/2 < ceil(64/width), so every shift stays below 64.
	for c := chunks / 2; c >= 1; c /= 2 {
		f.shifts[f.steps] = uint8(c * uint64(width))
		f.steps++
	}
	return f
}

// Fold returns Fold(v, width) for the Folder's width.
//
//pclint:hotpath
func (f *Folder) Fold(v uint64) uint64 {
	for _, s := range f.shifts[:f.steps] {
		v ^= v >> s
	}
	return v & f.mask
}

// IndexHash computes a table index from a branch address and a history (or
// BOR) value. The address is pre-shifted right by 2 to discard the usual
// alignment bits, then XOR-folded with the history into indexBits bits,
// gshare style. Fold is XOR-linear, so folding addr>>2 ^ hist once is
// folding each and XORing the results.
//
//pclint:hotpath
func IndexHash(addr, hist uint64, indexBits uint) uint64 {
	return Fold(addr>>2^hist, indexBits)
}

// TagMix is the pre-fold mix of TagHash: TagHash(addr, hist, n) is
// Fold(TagMix(addr, hist), n).
//
//pclint:hotpath
func TagMix(addr, hist uint64) uint64 {
	return Spread(hist ^ bits.RotateLeft64(addr>>2, 32) ^ 0x9e3779b97f4a7c15)
}

// TagHash computes a tag from a branch address and a history (or BOR)
// value using a hash that is deliberately different from IndexHash: the
// operands are rotated and swizzled before folding so that two contexts
// that collide in the index are unlikely to also collide in the tag
// (Section 4 of the paper: "two different hash functions ... selected to
// minimize the probability that a particular branch address and BOR value
// combination will use the same table entry and have the same tag").
//
//pclint:hotpath
func TagHash(addr, hist uint64, tagBits uint) uint64 {
	return Fold(TagMix(addr, hist), tagBits)
}

// Spread is a 64-bit finalizer (xmix) used to decorrelate synthetic branch
// addresses and seeds. It is a bijection on uint64.
//
//pclint:hotpath
func Spread(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// Parity returns the XOR of the low n bits of v (0 or 1).
//
//pclint:hotpath
func Parity(v uint64, n uint) uint64 {
	return uint64(bits.OnesCount64(v&Mask(n)) & 1)
}
