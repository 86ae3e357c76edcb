// Package gskew implements the 2Bc-gskew de-aliased hybrid predictor of
// Seznec and Michaud [28], "a derivation of [which] is implemented in the
// Compaq Alpha EV8 processor [26]". It is the strongest conventional
// baseline in the paper: the abstract compares the 8K+8K prophet/critic
// hybrid against a 16KB 2Bc-gskew.
//
// 2Bc-gskew is composed of four equally sized tables of 2-bit counters
// accessed with global history:
//
//   - BIM:  a bimodal table indexed by branch address only;
//   - G0, G1: two gshare-like tables indexed by different skewing hash
//     functions of (address, history), so that a pair of branches that
//     collides in one table is unlikely to collide in the others;
//   - META: a meta-predictor choosing, per branch, between the BIM
//     prediction and the majority vote of BIM, G0 and G1.
//
// The update policy is partial, following Seznec et al.'s EV8 description:
// on a correct prediction only the tables that participated (and agreed)
// are strengthened; on a mispredict all three direction tables are trained
// toward the outcome; META is trained toward whichever of its two choices
// was right whenever they differ.
package gskew

import (
	"fmt"
	"math/bits"

	"prophetcritic/internal/bitutil"
	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/counter"
)

// Gskew is a 2Bc-gskew predictor with four 2^indexBits-entry tables.
//
// Each table holds 2-bit saturating counters (values 0..3, taken when
// >= 2, cold value weakly not-taken = 1), SWAR-packed 32 to a 64-bit
// word (counter.Packed2) so each of the four word loads per operation
// carries 32 counters. The hot path computes every table index exactly
// once per operation and uses masks precomputed at construction.
type Gskew struct {
	bim, g0, g1, meta counter.Packed2
	indexBits         uint
	histLen           uint
	histMask          uint64
	idxMask           uint64
	// g1Hist memoizes idxG1's history transform Fold(rotl(h,3)*K,
	// indexBits) for every possible history value. The prophet's walk
	// calls Predict once per future bit, so this fold is the single
	// hottest hash in the simulator; the table turns it into one load.
	// nil when histLen is too long to tabulate (> maxHistTableBits).
	g1Hist []uint32
}

// maxHistTableBits bounds the g1Hist table to 2^16 entries (256KB); every
// Table 3 gskew configuration has histLen <= 15.
const maxHistTableBits = 16

// New returns a 2Bc-gskew with 2^indexBits entries per table and histLen
// bits of global history.
func New(indexBits, histLen uint) *Gskew {
	if indexBits < 1 || indexBits > 28 {
		panic(fmt.Sprintf("gskew: indexBits %d out of range [1,28]", indexBits))
	}
	mk := func() counter.Packed2 {
		return counter.NewPacked2(1<<indexBits, counter.Sat2Cold)
	}
	g := &Gskew{
		bim: mk(), g0: mk(), g1: mk(), meta: mk(),
		indexBits: indexBits,
		histLen:   histLen,
		histMask:  bitutil.Mask(histLen),
		idxMask:   bitutil.Mask(indexBits),
	}
	if histLen <= maxHistTableBits {
		tab := make([]uint32, 1<<histLen)
		for h := range tab {
			tab[h] = uint32(bitutil.Fold(bits.RotateLeft64(uint64(h), 3)*0x9e3779b97f4a7c15, indexBits))
		}
		g.g1Hist = tab
	}
	return g
}

// The three indexing functions. BIM ignores history. G0 and G1 use
// distinct skewing transforms so inter-table aliasing is decorrelated —
// the essence of the skewed organisation.
//
//pclint:hotpath
func (g *Gskew) idxBim(addr uint64) uint64 {
	return bitutil.Fold(addr>>2, g.indexBits)
}

//pclint:hotpath
func (g *Gskew) idxG0(addr, hist uint64) uint64 {
	h := hist & g.histMask
	if g.histLen <= g.indexBits {
		// Fold of a value already narrower than the index is the value
		// itself — true for every Table 3 gskew configuration.
		return (bitutil.Fold(addr>>2, g.indexBits) ^ h) & g.idxMask
	}
	return bitutil.IndexHash(addr, h, g.indexBits)
}

//pclint:hotpath
func (g *Gskew) idxG1(addr, hist uint64) uint64 {
	h := hist & g.histMask
	a := bits.RotateLeft64(addr>>2, 5)
	var hf uint64
	if g.g1Hist != nil {
		hf = uint64(g.g1Hist[h])
	} else {
		hf = bitutil.Fold(bits.RotateLeft64(h, 3)*0x9e3779b97f4a7c15, g.indexBits)
	}
	return (bitutil.Fold(a, g.indexBits) ^ hf) & g.idxMask
}

//pclint:hotpath
func (g *Gskew) idxMeta(addr, hist uint64) uint64 {
	h := hist & g.histMask
	a := bits.RotateLeft64(addr>>2, 11)
	hf := h >> 1
	if g.histLen > g.indexBits+1 {
		hf = bitutil.Fold(hf, g.indexBits)
	}
	return (bitutil.Fold(a, g.indexBits) ^ hf) & g.idxMask
}

// indices computes all four table indices in one pass; Predict and Update
// each hash the (addr, hist) pair exactly once.
//
//pclint:hotpath
func (g *Gskew) indices(addr, hist uint64) (iB, i0, i1, iM uint64) {
	return g.idxBim(addr), g.idxG0(addr, hist), g.idxG1(addr, hist), g.idxMeta(addr, hist)
}

//pclint:hotpath
func majority(a, b, c bool) bool {
	n := 0
	if a {
		n++
	}
	if b {
		n++
	}
	if c {
		n++
	}
	return n >= 2
}

// components returns the three direction predictions and the meta choice.
//
//pclint:hotpath
func (g *Gskew) components(addr, hist uint64) (bim, p0, p1, useMajority bool) {
	iB, i0, i1, iM := g.indices(addr, hist)
	return g.bim.Taken(iB), g.g0.Taken(i0), g.g1.Taken(i1), g.meta.Taken(iM)
}

// Predict implements predictor.Predictor. The skewed tables are read
// lazily: when META selects the bimodal component, the G0/G1 hashes —
// the most expensive ones — are never computed. Predict is the dominant
// call of the prophet's future-bit walk, so this pays once per future bit.
//
//pclint:hotpath
func (g *Gskew) Predict(addr, hist uint64) bool {
	bim := g.bim.Taken(g.idxBim(addr))
	if !g.meta.Taken(g.idxMeta(addr, hist)) {
		return bim
	}
	return majority(bim, g.g0.Taken(g.idxG0(addr, hist)), g.g1.Taken(g.idxG1(addr, hist)))
}

// Update implements predictor.Predictor, applying the partial update
// policy described in the package comment.
//
//pclint:hotpath
func (g *Gskew) Update(addr, hist uint64, taken bool) { g.UpdateStable(addr, hist, taken) }

// UpdateStable trains exactly like Update and reports whether every
// Predict result is unchanged. A prediction reads only direction bits,
// so it is stable unless a trained counter flipped in BIM, G0, G1 or
// META; Reinforce only strengthens an agreeing counter, never flips it.
//
//pclint:hotpath
func (g *Gskew) UpdateStable(addr, hist uint64, taken bool) bool {
	iB, i0, i1, iM := g.indices(addr, hist)
	bim := g.bim.Taken(iB)
	p0 := g.g0.Taken(i0)
	p1 := g.g1.Taken(i1)
	useMaj := g.meta.Taken(iM)
	maj := majority(bim, p0, p1)
	pred := bim
	if useMaj {
		pred = maj
	}

	// Train META toward whichever choice was right when they differ.
	flipped := false
	if bim != maj {
		flipped = g.meta.UpdateFlipped(iM, maj == taken)
	}

	if pred == taken {
		// Correct: strengthen only participating, agreeing tables.
		if useMaj {
			g.bim.Reinforce(iB, taken)
			g.g0.Reinforce(i0, taken)
			g.g1.Reinforce(i1, taken)
		} else {
			// bim == taken here, so the step strengthens it.
			g.bim.Update(iB, taken)
		}
		return !flipped
	}
	// Mispredict: retrain all direction tables toward the outcome.
	fB := g.bim.UpdateFlipped(iB, taken)
	f0 := g.g0.UpdateFlipped(i0, taken)
	f1 := g.g1.UpdateFlipped(i1, taken)
	return !(flipped || fB || f0 || f1)
}

// HistoryLen implements predictor.Predictor.
func (g *Gskew) HistoryLen() uint { return g.histLen }

// SizeBits implements predictor.Predictor: four tables of 2-bit counters.
func (g *Gskew) SizeBits() int { return 4 * g.bim.Len() * 2 }

// Name implements predictor.Predictor.
func (g *Gskew) Name() string {
	return fmt.Sprintf("2Bc-gskew-%dKent-h%d", g.bim.Len()/1024, g.histLen)
}

// Snapshot implements checkpoint.Snapshotter: the four flat 2-bit
// counter tables (g1Hist is a derived memo, not state), each unpacked
// to the historical one-byte-per-counter encoding so packed-table
// checkpoints stay byte-identical to the original wire format.
func (g *Gskew) Snapshot(enc *checkpoint.Encoder) {
	enc.Section("gskew")
	tmp := make([]uint8, g.bim.Len())
	for _, t := range []*counter.Packed2{&g.bim, &g.g0, &g.g1, &g.meta} {
		t.StoreBytes(tmp)
		enc.Uint8s(tmp)
	}
}

// Restore implements checkpoint.Snapshotter.
func (g *Gskew) Restore(dec *checkpoint.Decoder) error {
	dec.Section("gskew")
	tables := []*counter.Packed2{&g.bim, &g.g0, &g.g1, &g.meta}
	tmp := make([][]uint8, len(tables))
	for i, t := range tables {
		tmp[i] = make([]uint8, t.Len())
		dec.Uint8s(tmp[i])
	}
	if err := dec.Err(); err != nil {
		return err
	}
	for i, t := range tmp {
		if err := counter.ValidateSat2(t); err != nil {
			return fmt.Errorf("gskew: table %d: %w", i, err)
		}
		tables[i].LoadBytes(t)
	}
	return nil
}
