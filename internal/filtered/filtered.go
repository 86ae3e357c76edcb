// Package filtered implements the filtered perceptron critic: "an ordinary
// perceptron predictor plus an N-way associative table of tags. The
// perceptron prediction and the tag table lookup are done in parallel, as
// shown in Figure 3. The critic's prediction is given only when there is a
// tag hit. A tag miss (i.e., filter miss) implies implicit agreement with
// the prophet's prediction" (Section 6).
//
// Table 3 sizes the filtered perceptron from 73 perceptrons with a
// 128×3-way filter (2KB) to 348 perceptrons with a 2048×3-way filter
// (32KB); the filter hashes always consume 18 bits of BOR while the
// perceptron reads the configured history length.
package filtered

import (
	"fmt"

	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/perceptron"
	"prophetcritic/internal/predictor"
	"prophetcritic/internal/tagtable"
)

// Perceptron is a perceptron predictor gated by a tag filter.
type Perceptron struct {
	pred   *perceptron.Perceptron
	filter *tagtable.Table
}

var _ predictor.Tagged = (*Perceptron)(nil)

// New returns a filtered perceptron with a pool of n perceptrons over
// histLen BOR bits and a 2^filterSetBits × filterWays tag filter whose
// hashes consume filterHistLen BOR bits.
func New(n int, histLen uint, filterSetBits uint, filterWays int, tagBits, filterHistLen uint) *Perceptron {
	return &Perceptron{
		pred:   perceptron.New(n, histLen),
		filter: tagtable.New(filterSetBits, filterWays, tagBits, filterHistLen, false),
	}
}

// Predict implements predictor.Predictor (unfiltered view).
//
//pclint:hotpath
func (f *Perceptron) Predict(addr, hist uint64) bool {
	return f.pred.Predict(addr, hist)
}

// PredictTagged implements predictor.Tagged: the perceptron's prediction,
// gated by the filter. The filter is consulted first, so a miss costs no
// dot product.
//
//pclint:hotpath
func (f *Perceptron) PredictTagged(addr, hist uint64) (taken, hit bool) {
	if _, hit = f.filter.Lookup(addr, hist); !hit {
		return false, false
	}
	return f.pred.Predict(addr, hist), true
}

// Update implements predictor.Predictor: trains the perceptron and
// refreshes the filter entry's LRU position when present.
//
//pclint:hotpath
func (f *Perceptron) Update(addr, hist uint64, taken bool) {
	f.pred.Update(addr, hist, taken)
	f.filter.Update(addr, hist, taken)
}

// UpdateStable trains exactly like Update and reports false: this
// family makes no claim that an update left its predictions unchanged,
// so a prophet lane over it rebuilds every walk.
//
//pclint:hotpath
func (f *Perceptron) UpdateStable(addr, hist uint64, taken bool) bool {
	f.Update(addr, hist, taken)
	return false
}

// Allocate implements predictor.Tagged: inserts the (addr, BOR) context
// into the filter and initialises the perceptron toward the outcome.
//
//pclint:hotpath
func (f *Perceptron) Allocate(addr, hist uint64, taken bool) {
	f.filter.Allocate(addr, hist, taken)
	f.pred.Train(addr, hist, taken)
}

// HistoryLen implements predictor.Predictor: the wider of the perceptron
// history and the filter hash input.
func (f *Perceptron) HistoryLen() uint {
	if f.filter.HistLen() > f.pred.HistoryLen() {
		return f.filter.HistLen()
	}
	return f.pred.HistoryLen()
}

// SizeBits implements predictor.Predictor.
func (f *Perceptron) SizeBits() int { return f.pred.SizeBits() + f.filter.SizeBits() }

// FilterEntries returns the filter capacity, for Table 3 reporting.
func (f *Perceptron) FilterEntries() int { return f.filter.Entries() }

// Pool returns the perceptron pool size.
func (f *Perceptron) Pool() int { return f.pred.Pool() }

// Name implements predictor.Predictor.
func (f *Perceptron) Name() string {
	return fmt.Sprintf("filtered-%s-flt%dx%dway", f.pred.Name(), f.filter.Entries()/f.filter.Ways(), f.filter.Ways())
}

// Snapshot implements checkpoint.Snapshotter: the perceptron pool and
// the tag filter.
func (f *Perceptron) Snapshot(enc *checkpoint.Encoder) {
	enc.Section("filtered-perceptron")
	f.pred.Snapshot(enc)
	f.filter.Snapshot(enc)
}

// Restore implements checkpoint.Snapshotter.
func (f *Perceptron) Restore(dec *checkpoint.Decoder) error {
	dec.Section("filtered-perceptron")
	if err := f.pred.Restore(dec); err != nil {
		return err
	}
	return f.filter.Restore(dec)
}
