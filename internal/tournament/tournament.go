// Package tournament implements McFarling's selection-based hybrid [20]:
// two component predictors and a chooser table of 2-bit counters that
// "indicates which component is more accurate for the branch."
//
// In the paper's taxonomy this is the conventional hybrid that the
// prophet/critic design is contrasted with: both components predict the
// same branch with the same available information, and a selector picks
// one. It is also exactly what a prophet/critic hybrid degenerates to at
// zero future bits, so the functional simulator uses it to cross-check the
// "0 future bits" points of Figure 5.
package tournament

import (
	"fmt"

	"prophetcritic/internal/bitutil"
	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/counter"
	"prophetcritic/internal/predictor"
)

// Tournament combines two predictors with a chooser indexed by branch
// address XOR history.
type Tournament struct {
	a, b    predictor.Predictor // chooser low half selects a, high half b
	chooser []counter.Sat
	useHist bool
	histLen uint
	fold    bitutil.Folder // the chooser index fold to idxBits bits
}

// New returns a tournament hybrid of a and b with 2^idxBits chooser
// entries. If useHist is true the chooser is indexed gshare-style with
// histLen history bits, otherwise by address alone (McFarling's original).
func New(a, b predictor.Predictor, idxBits uint, useHist bool, histLen uint) *Tournament {
	t := &Tournament{a: a, b: b, chooser: make([]counter.Sat, 1<<idxBits), useHist: useHist, histLen: histLen, fold: bitutil.NewFolder(idxBits)}
	for i := range t.chooser {
		t.chooser[i] = counter.NewSat2()
	}
	return t
}

//pclint:hotpath
func (t *Tournament) index(addr, hist uint64) uint64 {
	if t.useHist {
		return t.fold.Fold(addr>>2 ^ hist&bitutil.Mask(t.histLen)) // bitutil.IndexHash
	}
	return t.fold.Fold(addr >> 2)
}

// Predict implements predictor.Predictor.
//
//pclint:hotpath
func (t *Tournament) Predict(addr, hist uint64) bool {
	if t.chooser[t.index(addr, hist)].Taken() {
		return t.b.Predict(addr, hist) //pclint:allow composite dispatches to its members by design
	}
	return t.a.Predict(addr, hist) //pclint:allow composite dispatches to its members by design
}

// Update implements predictor.Predictor: both components always train;
// the chooser trains toward the component that was right when they
// disagree.
//
//pclint:hotpath
func (t *Tournament) Update(addr, hist uint64, taken bool) {
	pa := t.a.Predict(addr, hist) //pclint:allow composite dispatches to its members by design
	pb := t.b.Predict(addr, hist) //pclint:allow composite dispatches to its members by design
	if pa != pb {
		// Move toward b when b was correct, toward a when a was correct.
		t.chooser[t.index(addr, hist)].Update(pb == taken)
	}
	t.a.Update(addr, hist, taken) //pclint:allow composite dispatches to its members by design
	t.b.Update(addr, hist, taken) //pclint:allow composite dispatches to its members by design
}

// UpdateStable trains exactly like Update and reports false: this
// family makes no claim that an update left its predictions unchanged,
// so a prophet lane over it rebuilds every walk.
//
//pclint:hotpath
func (t *Tournament) UpdateStable(addr, hist uint64, taken bool) bool {
	t.Update(addr, hist, taken)
	return false
}

// HistoryLen implements predictor.Predictor.
func (t *Tournament) HistoryLen() uint {
	h := t.a.HistoryLen()
	if t.b.HistoryLen() > h {
		h = t.b.HistoryLen()
	}
	if t.useHist && t.histLen > h {
		h = t.histLen
	}
	return h
}

// SizeBits implements predictor.Predictor.
func (t *Tournament) SizeBits() int {
	return t.a.SizeBits() + t.b.SizeBits() + len(t.chooser)*2
}

// Name implements predictor.Predictor.
func (t *Tournament) Name() string {
	return fmt.Sprintf("tournament(%s,%s)", t.a.Name(), t.b.Name())
}

// Snapshot implements checkpoint.Snapshotter: the chooser table and both
// components. It panics if a component does not implement
// checkpoint.Snapshotter — every predictor in this repository does, so a
// non-snapshottable component is a programming error.
func (t *Tournament) Snapshot(enc *checkpoint.Encoder) {
	enc.Section("tournament")
	chooser := make([]uint8, len(t.chooser))
	for i := range t.chooser {
		chooser[i] = t.chooser[i].Value()
	}
	enc.Uint8s(chooser)
	component(t.a).Snapshot(enc)
	component(t.b).Snapshot(enc)
}

// Restore implements checkpoint.Snapshotter.
func (t *Tournament) Restore(dec *checkpoint.Decoder) error {
	dec.Section("tournament")
	chooser := make([]uint8, len(t.chooser))
	dec.Uint8s(chooser)
	if err := dec.Err(); err != nil {
		return err
	}
	for i, v := range chooser {
		if v > t.chooser[i].Max() {
			return fmt.Errorf("tournament: chooser counter %d holds %d, outside its range", i, v)
		}
	}
	for i := range t.chooser {
		t.chooser[i].Set(chooser[i])
	}
	if err := component(t.a).Restore(dec); err != nil {
		return err
	}
	return component(t.b).Restore(dec)
}

// component asserts that a tournament component supports checkpointing.
func component(p predictor.Predictor) checkpoint.Snapshotter {
	s, ok := p.(checkpoint.Snapshotter)
	if !ok {
		panic(fmt.Sprintf("tournament: component %s does not implement checkpoint.Snapshotter", p.Name()))
	}
	return s
}
