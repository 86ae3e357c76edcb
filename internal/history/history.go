// Package history implements the shift registers that feed branch
// predictors: the branch history register (BHR) used by the prophet and the
// branch outcome register (BOR) used by the critic.
//
// Both are fixed-length shift registers over branch outcomes. They are
// updated speculatively at prediction time — "BHRs should be speculatively
// updated instead of waiting for the branches to resolve" (Section 3.2) —
// and repaired on a mispredict via checkpointing: "When the prophet predicts
// a branch, a copy of the current BHR and the current BOR are assigned to
// the branch. If a mispredict is detected for the branch, the BHR and BOR
// are restored from the values assigned to the branch, [and] the
// mispredicted branch's correct outcome is inserted" (Section 3.3).
//
// The BOR is a BHR that happens to contain two kinds of bits at critique
// time: outcomes of branches before the one being predicted (history) and
// the prophet's predictions for the branch being predicted and those after
// it (future). The register itself does not distinguish them; the
// prophet/critic core tracks how many of the newest bits are future bits.
//
// Register is a small value type: copying one (plain assignment) yields
// an independent register, which is how the simulator's speculative
// future-bit walks obtain stack-allocated scratch registers without heap
// allocation. The mispredict-repair checkpointing of Section 3.3 is that
// same value copy; the Snapshot/Restore pair is the separate persistent
// serialization seam (internal/checkpoint) shared by every stateful
// component.
package history

import (
	"fmt"

	"prophetcritic/internal/bitutil"
	"prophetcritic/internal/checkpoint"
)

// MaxLen is the maximum register length. 64 bits covers every configuration
// in Table 3 of the paper (the longest is the 57-bit perceptron history).
const MaxLen = 64

// Register is a fixed-length branch outcome shift register. The newest
// outcome occupies bit 0; older outcomes occupy higher bit positions. The
// zero value is an empty register of length 0; use New.
//
// Register is a value type: assignment copies the state, and the copy is
// fully independent of the original. Mutating methods (Push, Restore,
// Reset) take a pointer receiver; everything else works on a value.
type Register struct {
	v    uint64
	len  uint
	mask uint64 // precomputed bitutil.Mask(len); keeps Push branch-free
}

// New returns a register holding n outcome bits, all initially zero
// (not-taken). n is clamped to [0, MaxLen].
func New(n uint) Register {
	if n > MaxLen {
		n = MaxLen
	}
	return Register{len: n, mask: bitutil.Mask(n)}
}

// Len returns the register length in bits.
//
//pclint:hotpath
func (r Register) Len() uint { return r.len }

// Value returns the register contents. Only the low Len bits can be set.
//
//pclint:hotpath
func (r Register) Value() uint64 { return r.v }

// Mask returns the length mask (low Len bits set), precomputed at
// construction so hot paths can shift-and-mask without recomputing it.
//
//pclint:hotpath
func (r Register) Mask() uint64 { return r.mask }

// Push shifts in a new outcome (true = taken) as the newest bit, discarding
// the oldest.
//
//pclint:hotpath
func (r *Register) Push(taken bool) {
	b := uint64(0)
	if taken {
		b = 1
	}
	r.v = ((r.v << 1) | b) & r.mask
}

// PushN shifts in n outcome bits from v at once, oldest first: bit n-1
// of v is inserted first and bit 0 of v becomes the newest register bit —
// n Push calls in one shift. Bits of v at or above n are ignored; n must
// not exceed 64.
//
//pclint:hotpath
func (r *Register) PushN(v uint64, n uint) {
	r.v = (r.v<<n | v&bitutil.Mask(n)) & r.mask
}

// Bit returns outcome i, where 0 is the newest bit. It panics if i >= Len.
//
//pclint:hotpath
func (r Register) Bit(i uint) bool {
	if i >= r.len {
		panic(fmt.Sprintf("history: Bit(%d) out of range for %d-bit register", i, r.len)) //pclint:allow cold panic guard
	}
	return r.v>>i&1 == 1
}

// Window returns n bits starting at offset from the newest end: offset 0,
// n=k yields the k newest bits. Bits beyond the register length read as 0.
//
//pclint:hotpath
func (r Register) Window(offset, n uint) uint64 {
	return (r.v >> offset) & bitutil.Mask(n)
}

// Snapshot implements checkpoint.Snapshotter: the register length (as a
// geometry guard) and its contents.
func (r Register) Snapshot(enc *checkpoint.Encoder) {
	enc.Section("history")
	enc.Uvarint(uint64(r.len))
	enc.Uvarint(r.v)
}

// Restore implements checkpoint.Snapshotter. It errors if the snapshot
// was taken from a register of a different length.
func (r *Register) Restore(dec *checkpoint.Decoder) error {
	dec.Section("history")
	if n := uint(dec.Uvarint()); dec.Err() == nil && n != r.len {
		dec.Failf("history: restoring %d-bit snapshot into %d-bit register", n, r.len)
	}
	v := dec.Uvarint()
	if dec.Err() == nil && v&^r.mask != 0 {
		dec.Failf("history: snapshot value %#x has bits outside the %d-bit register", v, r.len)
	}
	if err := dec.Err(); err != nil {
		return err
	}
	r.v = v
	return nil
}

// Reset clears the register to all not-taken.
func (r *Register) Reset() { r.v = 0 }

// String renders the register as a bit string, newest bit rightmost, e.g.
// "TTNT" for a 4-bit register. Empty registers render as "".
func (r Register) String() string {
	if r.len == 0 {
		return ""
	}
	buf := make([]byte, r.len)
	for i := uint(0); i < r.len; i++ {
		// Oldest (highest) bit first so reading order matches program order.
		if r.v>>(r.len-1-i)&1 == 1 {
			buf[i] = 'T'
		} else {
			buf[i] = 'N'
		}
	}
	return string(buf)
}
