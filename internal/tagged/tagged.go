// Package tagged implements the tagged gshare predictor used as a critic
// in most of the paper's experiments: "a variant of the gshare predictor,
// in which a tag is assigned to each two-bit counter. Its structure is
// similar to a N-way associative cache, with each data item being a
// two-bit counter" (Section 6).
//
// As a critic it is inherently filtered: a tag miss means the critic has
// no opinion and implicitly agrees with the prophet. Table 3 sizes it from
// 256×6-way (2KB) to 4096×6-way (32KB), always consuming an 18-bit BOR.
package tagged

import (
	"fmt"

	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/predictor"
	"prophetcritic/internal/tagtable"
)

// Gshare is a set-associative tagged pattern table indexed and tagged by
// different XOR hashes of (branch address, BOR value).
type Gshare struct {
	table *tagtable.Table
}

var _ predictor.Tagged = (*Gshare)(nil)

// New returns a tagged gshare with 2^setBits sets × ways entries, tags of
// tagBits bits, reading histLen bits of BOR.
func New(setBits uint, ways int, tagBits, histLen uint) *Gshare {
	return &Gshare{table: tagtable.New(setBits, ways, tagBits, histLen, true)}
}

// Predict implements predictor.Predictor. On a tag miss it returns
// not-taken; callers that care about filtering use PredictTagged.
//
//pclint:hotpath
func (g *Gshare) Predict(addr, hist uint64) bool {
	taken, _ := g.table.Lookup(addr, hist)
	return taken
}

// PredictTagged implements predictor.Tagged.
//
//pclint:hotpath
func (g *Gshare) PredictTagged(addr, hist uint64) (taken, hit bool) {
	return g.table.Lookup(addr, hist)
}

// Update implements predictor.Predictor: trains the counter if the entry
// exists; misses are ignored ("the critic is only trained for branches
// that have hits").
//
//pclint:hotpath
func (g *Gshare) Update(addr, hist uint64, taken bool) {
	g.table.Update(addr, hist, taken)
}

// UpdateStable trains exactly like Update and reports false: this
// family makes no claim that an update left its predictions unchanged,
// so a prophet lane over it rebuilds every walk.
//
//pclint:hotpath
func (g *Gshare) UpdateStable(addr, hist uint64, taken bool) bool {
	g.Update(addr, hist, taken)
	return false
}

// Allocate implements predictor.Tagged.
//
//pclint:hotpath
func (g *Gshare) Allocate(addr, hist uint64, taken bool) {
	g.table.Allocate(addr, hist, taken)
}

// HistoryLen implements predictor.Predictor.
func (g *Gshare) HistoryLen() uint { return g.table.HistLen() }

// SizeBits implements predictor.Predictor.
func (g *Gshare) SizeBits() int { return g.table.SizeBits() }

// Entries returns total entries, for Table 3 reporting.
func (g *Gshare) Entries() int { return g.table.Entries() }

// Ways returns the associativity.
func (g *Gshare) Ways() int { return g.table.Ways() }

// Occupancy exposes the valid-entry fraction for diagnostics.
func (g *Gshare) Occupancy() float64 { return g.table.Occupancy() }

// Name implements predictor.Predictor.
func (g *Gshare) Name() string {
	return fmt.Sprintf("tagged-gshare-%dx%dway-bor%d", g.table.Entries()/g.table.Ways(), g.table.Ways(), g.table.HistLen())
}

// Snapshot implements checkpoint.Snapshotter.
func (g *Gshare) Snapshot(enc *checkpoint.Encoder) {
	enc.Section("tagged-gshare")
	g.table.Snapshot(enc)
}

// Restore implements checkpoint.Snapshotter.
func (g *Gshare) Restore(dec *checkpoint.Decoder) error {
	dec.Section("tagged-gshare")
	return g.table.Restore(dec)
}
