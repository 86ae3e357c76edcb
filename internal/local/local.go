// Package local implements a two-level local-history predictor (PAg in
// Yeh & Patt's taxonomy [33]): a table of per-branch history registers
// indexed by address, feeding a shared pattern table of 2-bit counters.
// The Alpha 21264's tournament predictor pairs such a local component with
// a global one; we use it to round out the conventional-hybrid baselines.
package local

import (
	"fmt"

	"prophetcritic/internal/bitutil"
	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/counter"
)

// Local is a PAg two-level predictor.
type Local struct {
	lht      []uint64 // per-branch local histories
	pht      []counter.Sat
	lhtBits  uint // log2(#local history registers)
	histLen  uint // local history length == PHT index width
	phtWidth uint
}

// New returns a PAg with 2^lhtBits local history registers of histLen bits
// and a 2^histLen-entry pattern table of 2-bit counters.
func New(lhtBits, histLen uint) *Local {
	if histLen < 1 || histLen > 24 {
		panic(fmt.Sprintf("local: histLen %d out of range [1,24]", histLen))
	}
	l := &Local{
		lht:      make([]uint64, 1<<lhtBits),
		pht:      make([]counter.Sat, 1<<histLen),
		lhtBits:  lhtBits,
		histLen:  histLen,
		phtWidth: 2,
	}
	for i := range l.pht {
		l.pht[i] = counter.NewSat2()
	}
	return l
}

//pclint:hotpath
func (l *Local) lhtIndex(addr uint64) uint64 {
	return bitutil.Fold(addr>>2, l.lhtBits)
}

// Predict implements predictor.Predictor. The global history argument is
// ignored: this predictor correlates on the branch's own past.
//
//pclint:hotpath
func (l *Local) Predict(addr, hist uint64) bool {
	lh := l.lht[l.lhtIndex(addr)]
	return l.pht[lh].Taken()
}

// Update implements predictor.Predictor: trains the pattern table with the
// pre-update local history, then shifts the outcome into the local history
// register.
//
//pclint:hotpath
func (l *Local) Update(addr, hist uint64, taken bool) {
	li := l.lhtIndex(addr)
	lh := l.lht[li]
	l.pht[lh].Update(taken)
	b := uint64(0)
	if taken {
		b = 1
	}
	l.lht[li] = ((lh << 1) | b) & bitutil.Mask(l.histLen)
}

// UpdateStable trains exactly like Update and reports false: this
// family makes no claim that an update left its predictions unchanged,
// so a prophet lane over it rebuilds every walk.
//
//pclint:hotpath
func (l *Local) UpdateStable(addr, hist uint64, taken bool) bool {
	l.Update(addr, hist, taken)
	return false
}

// HistoryLen implements predictor.Predictor; no global history is used.
func (l *Local) HistoryLen() uint { return 0 }

// SizeBits implements predictor.Predictor.
func (l *Local) SizeBits() int {
	return len(l.lht)*int(l.histLen) + len(l.pht)*int(l.phtWidth)
}

// Name implements predictor.Predictor.
func (l *Local) Name() string {
	return fmt.Sprintf("local-PAg-%dlht-h%d", len(l.lht), l.histLen)
}

// Snapshot implements checkpoint.Snapshotter: the local history
// registers and the shared pattern table.
func (l *Local) Snapshot(enc *checkpoint.Encoder) {
	enc.Section("local")
	enc.Uint64s(l.lht)
	pht := make([]uint8, len(l.pht))
	for i := range l.pht {
		pht[i] = l.pht[i].Value()
	}
	enc.Uint8s(pht)
}

// Restore implements checkpoint.Snapshotter.
func (l *Local) Restore(dec *checkpoint.Decoder) error {
	dec.Section("local")
	lht := make([]uint64, len(l.lht))
	pht := make([]uint8, len(l.pht))
	dec.Uint64s(lht)
	dec.Uint8s(pht)
	if err := dec.Err(); err != nil {
		return err
	}
	mask := bitutil.Mask(l.histLen)
	for i, h := range lht {
		if h&^mask != 0 {
			return fmt.Errorf("local: history register %d holds bits outside its %d-bit length", i, l.histLen)
		}
	}
	for i, v := range pht {
		if v > l.pht[i].Max() {
			return fmt.Errorf("local: pattern counter %d holds %d, outside its range", i, v)
		}
	}
	copy(l.lht, lht)
	for i := range l.pht {
		l.pht[i].Set(pht[i])
	}
	return nil
}
