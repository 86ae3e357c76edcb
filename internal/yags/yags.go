// Package yags implements the YAGS branch prediction scheme of Eden and
// Mudge, cited by the paper alongside 2Bc-gskew as a de-aliased global
// predictor that beats larger aliased predictors at equal budgets.
//
// YAGS keeps a bimodal choice table plus two small tagged direction
// caches: the T-cache holds branches that go against a not-taken bimodal
// bias, and the NT-cache holds branches that go against a taken bias.
// Only exceptions to the bias consume cache space, which is the same
// insight the prophet/critic filter builds on (store only the hard
// cases), making YAGS a natural extra baseline for this repository.
package yags

import (
	"fmt"

	"prophetcritic/internal/bimodal"
	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/tagtable"
)

// YAGS is a bimodal chooser with two tagged exception caches.
type YAGS struct {
	choice  *bimodal.Bimodal
	tCache  *tagtable.Table // exceptions when choice says not-taken
	ntCache *tagtable.Table // exceptions when choice says taken
	histLen uint
}

// New returns a YAGS with 2^choiceBits choice entries and two
// 2^cacheBits-set × ways exception caches using histLen history bits and
// tagBits-bit tags.
func New(choiceBits, cacheBits uint, ways int, tagBits, histLen uint) *YAGS {
	return &YAGS{
		choice:  bimodal.New(choiceBits, 2),
		tCache:  tagtable.New(cacheBits, ways, tagBits, histLen, true),
		ntCache: tagtable.New(cacheBits, ways, tagBits, histLen, true),
		histLen: histLen,
	}
}

// Predict implements predictor.Predictor.
//
//pclint:hotpath
func (y *YAGS) Predict(addr, hist uint64) bool {
	if y.choice.Predict(addr, hist) {
		// Bias taken: consult the NT exception cache.
		if taken, hit := y.ntCache.Lookup(addr, hist); hit {
			return taken
		}
		return true
	}
	if taken, hit := y.tCache.Lookup(addr, hist); hit {
		return taken
	}
	return false
}

// Update implements predictor.Predictor: the exception cache on the
// chosen side trains on hits and allocates when the bias mispredicts; the
// choice table trains except when the exception was right and the bias
// wrong (the standard YAGS partial-update rule).
//
//pclint:hotpath
func (y *YAGS) Update(addr, hist uint64, taken bool) {
	bias := y.choice.Predict(addr, hist)
	cache := y.tCache
	if bias {
		cache = y.ntCache
	}
	excTaken, excHit := cache.Lookup(addr, hist)
	if excHit {
		cache.Update(addr, hist, taken)
	} else if bias != taken {
		cache.Allocate(addr, hist, taken)
	}
	// Choice table: don't weaken the bias when the exception cache
	// covered for it.
	if !(excHit && excTaken == taken && bias != taken) {
		y.choice.Update(addr, hist, taken)
	}
}

// UpdateStable trains exactly like Update and reports false: this
// family makes no claim that an update left its predictions unchanged,
// so a prophet lane over it rebuilds every walk.
//
//pclint:hotpath
func (y *YAGS) UpdateStable(addr, hist uint64, taken bool) bool {
	y.Update(addr, hist, taken)
	return false
}

// HistoryLen implements predictor.Predictor.
func (y *YAGS) HistoryLen() uint { return y.histLen }

// SizeBits implements predictor.Predictor.
func (y *YAGS) SizeBits() int {
	return y.choice.SizeBits() + y.tCache.SizeBits() + y.ntCache.SizeBits()
}

// Name implements predictor.Predictor.
func (y *YAGS) Name() string {
	return fmt.Sprintf("yags-%dch-%dexc-h%d", y.choice.SizeBits()/2, y.tCache.Entries(), y.histLen)
}

// Snapshot implements checkpoint.Snapshotter: the choice table and both
// exception caches.
func (y *YAGS) Snapshot(enc *checkpoint.Encoder) {
	enc.Section("yags")
	y.choice.Snapshot(enc)
	y.tCache.Snapshot(enc)
	y.ntCache.Snapshot(enc)
}

// Restore implements checkpoint.Snapshotter.
func (y *YAGS) Restore(dec *checkpoint.Decoder) error {
	dec.Section("yags")
	if err := y.choice.Restore(dec); err != nil {
		return err
	}
	if err := y.tCache.Restore(dec); err != nil {
		return err
	}
	return y.ntCache.Restore(dec)
}
