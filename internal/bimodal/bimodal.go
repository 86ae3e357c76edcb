// Package bimodal implements the classic Smith bimodal predictor: a table
// of 2-bit saturating counters indexed by branch address. It is both a
// baseline in its own right and the BIM component of the 2Bc-gskew
// predictor.
package bimodal

import (
	"fmt"

	"prophetcritic/internal/bitutil"
	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/counter"
)

// Bimodal is a direct-mapped table of saturating counters indexed by the
// branch address.
type Bimodal struct {
	table    []counter.Sat
	ctrWidth uint
	fold     bitutil.Folder // the address fold to indexBits bits
}

// New returns a bimodal predictor with 2^indexBits counters of the given
// width (2 bits for the classic design). indexBits must be in [1, 30].
func New(indexBits, ctrWidth uint) *Bimodal {
	if indexBits < 1 || indexBits > 30 {
		panic(fmt.Sprintf("bimodal: indexBits %d out of range [1,30]", indexBits))
	}
	b := &Bimodal{
		table:    make([]counter.Sat, 1<<indexBits),
		ctrWidth: ctrWidth,
		fold:     bitutil.NewFolder(indexBits),
	}
	for i := range b.table {
		b.table[i] = counter.NewSat(ctrWidth, uint8(1)<<(ctrWidth-1)-1)
	}
	return b
}

//pclint:hotpath
func (b *Bimodal) index(addr uint64) uint64 {
	return b.fold.Fold(addr >> 2)
}

// Predict implements predictor.Predictor.
//
//pclint:hotpath
func (b *Bimodal) Predict(addr, hist uint64) bool {
	return b.table[b.index(addr)].Taken()
}

// Update implements predictor.Predictor.
//
//pclint:hotpath
func (b *Bimodal) Update(addr, hist uint64, taken bool) {
	b.table[b.index(addr)].Update(taken)
}

// UpdateStable trains exactly like Update and reports whether every
// Predict result is unchanged: stable unless the trained counter's
// direction flipped.
//
//pclint:hotpath
func (b *Bimodal) UpdateStable(addr, hist uint64, taken bool) bool {
	c := &b.table[b.index(addr)]
	was := c.Taken()
	c.Update(taken)
	return c.Taken() == was
}

// Reinforce strengthens the counter only if it already agrees with the
// outcome; the partial-update policy of 2Bc-gskew uses this.
//
//pclint:hotpath
func (b *Bimodal) Reinforce(addr uint64, taken bool) {
	b.table[b.index(addr)].Reinforce(taken)
}

// HistoryLen implements predictor.Predictor; bimodal uses no history.
func (b *Bimodal) HistoryLen() uint { return 0 }

// SizeBits implements predictor.Predictor.
func (b *Bimodal) SizeBits() int { return len(b.table) * int(b.ctrWidth) }

// Name implements predictor.Predictor.
func (b *Bimodal) Name() string {
	return fmt.Sprintf("bimodal-%dx%db", len(b.table), b.ctrWidth)
}

// Snapshot implements checkpoint.Snapshotter: the raw counter values.
func (b *Bimodal) Snapshot(enc *checkpoint.Encoder) {
	enc.Section("bimodal")
	vals := make([]uint8, len(b.table))
	for i := range b.table {
		vals[i] = b.table[i].Value()
	}
	enc.Uint8s(vals)
}

// Restore implements checkpoint.Snapshotter.
func (b *Bimodal) Restore(dec *checkpoint.Decoder) error {
	dec.Section("bimodal")
	vals := make([]uint8, len(b.table))
	dec.Uint8s(vals)
	if err := dec.Err(); err != nil {
		return err
	}
	// Validate the whole payload before mutating anything: a failed
	// Restore must leave the predictor untouched.
	for i := range vals {
		if vals[i] > b.table[i].Max() {
			return fmt.Errorf("bimodal: counter value %d exceeds %d-bit width", vals[i], b.ctrWidth)
		}
	}
	for i := range b.table {
		b.table[i].Set(vals[i])
	}
	return nil
}
