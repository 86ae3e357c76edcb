// Package gshare implements McFarling's gshare predictor [20] and its
// non-XORed ancestor GAs [33].
//
// gshare indexes a single table of 2-bit counters with the XOR of the
// branch address and the global branch history, "allow[ing] branches to
// share the pattern table in a more efficient way, reducing the aliasing
// among them." GAs concatenates address and history bits instead.
//
// Table 3 of the paper sizes gshare prophets from 8K entries / 13 bits of
// history (2KB) up to 128K entries / 17 bits (32KB); those configurations
// are produced by internal/budget.
package gshare

import (
	"fmt"

	"prophetcritic/internal/bitutil"
	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/counter"
)

// Flavor selects the indexing scheme.
type Flavor int

const (
	// XOR is classic gshare: index = fold(addr) XOR fold(hist).
	XOR Flavor = iota
	// Concat is GAs: index = addr bits concatenated with history bits.
	Concat
)

// Gshare is a single pattern table of 2-bit counters indexed by a
// combination of branch address and global history. The counters are
// SWAR-packed 32 to a 64-bit word (counter.Packed2: values 0..3, taken
// when >= 2) so every loaded word carries 32 counters, and the history
// mask is precomputed, keeping the lookup to one hash, one word load,
// and a shift/mask.
type Gshare struct {
	table     counter.Packed2
	indexBits uint
	histLen   uint
	histMask  uint64
	flavor    Flavor
	// fold is the XOR flavor's index fold (indexBits wide) or the Concat
	// flavor's address fold (indexBits - min(histLen, indexBits) wide).
	fold bitutil.Folder
}

// New returns a gshare predictor with 2^indexBits 2-bit counters using
// histLen bits of global history. histLen may exceed indexBits; the
// history is folded down to the index width.
func New(indexBits, histLen uint) *Gshare {
	return newG(indexBits, histLen, XOR)
}

// NewGAs returns a GAs predictor: the low (indexBits - min(histLen,
// indexBits)) address bits are concatenated with the newest history bits.
func NewGAs(indexBits, histLen uint) *Gshare {
	return newG(indexBits, histLen, Concat)
}

func newG(indexBits, histLen uint, f Flavor) *Gshare {
	if indexBits < 1 || indexBits > 30 {
		panic(fmt.Sprintf("gshare: indexBits %d out of range [1,30]", indexBits))
	}
	foldBits := indexBits
	if f == Concat {
		foldBits -= min(histLen, indexBits)
	}
	return &Gshare{
		table:     counter.NewPacked2(1<<indexBits, counter.Sat2Cold),
		indexBits: indexBits,
		histLen:   histLen,
		histMask:  bitutil.Mask(histLen),
		flavor:    f,
		fold:      bitutil.NewFolder(foldBits),
	}
}

//pclint:hotpath
func (g *Gshare) index(addr, hist uint64) uint64 {
	h := hist & g.histMask
	switch g.flavor {
	case Concat:
		hb := g.histLen
		if hb > g.indexBits {
			hb = g.indexBits
		}
		return (g.fold.Fold(addr>>2) << hb) | (h & bitutil.Mask(hb))
	default:
		return g.fold.Fold(addr>>2 ^ h) // bitutil.IndexHash
	}
}

// Predict implements predictor.Predictor.
//
//pclint:hotpath
func (g *Gshare) Predict(addr, hist uint64) bool {
	return g.table.Taken(g.index(addr, hist))
}

// Update implements predictor.Predictor.
//
//pclint:hotpath
func (g *Gshare) Update(addr, hist uint64, taken bool) {
	g.table.Update(g.index(addr, hist), taken)
}

// UpdateStable trains exactly like Update and reports whether every
// Predict result is unchanged: a prediction reads only a counter's
// direction bit, so it is stable unless the trained counter flipped.
//
//pclint:hotpath
func (g *Gshare) UpdateStable(addr, hist uint64, taken bool) bool {
	return !g.table.UpdateFlipped(g.index(addr, hist), taken)
}

// HistoryLen implements predictor.Predictor.
func (g *Gshare) HistoryLen() uint { return g.histLen }

// SizeBits implements predictor.Predictor.
func (g *Gshare) SizeBits() int { return g.table.Len() * 2 }

// Name implements predictor.Predictor.
func (g *Gshare) Name() string {
	kind := "gshare"
	if g.flavor == Concat {
		kind = "GAs"
	}
	return fmt.Sprintf("%s-%dKent-h%d", kind, g.table.Len()/1024, g.histLen)
}

// Counter exposes the counter at (addr, hist) for white-box tests.
func (g *Gshare) Counter(addr, hist uint64) counter.Sat {
	return counter.NewSat(2, g.table.Get(g.index(addr, hist)))
}

// Snapshot implements checkpoint.Snapshotter: the flat 2-bit counter
// table, unpacked to the historical one-byte-per-counter encoding so
// packed-table checkpoints stay byte-identical to the original wire
// format.
func (g *Gshare) Snapshot(enc *checkpoint.Encoder) {
	tmp := make([]uint8, g.table.Len())
	g.table.StoreBytes(tmp)
	enc.Section("gshare")
	enc.Uint8s(tmp)
}

// Restore implements checkpoint.Snapshotter.
func (g *Gshare) Restore(dec *checkpoint.Decoder) error {
	tmp := make([]uint8, g.table.Len())
	dec.Section("gshare")
	dec.Uint8s(tmp)
	if err := dec.Err(); err != nil {
		return err
	}
	if err := counter.ValidateSat2(tmp); err != nil {
		return fmt.Errorf("gshare: %w", err)
	}
	g.table.LoadBytes(tmp)
	return nil
}
