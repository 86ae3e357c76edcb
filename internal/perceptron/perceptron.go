// Package perceptron implements the perceptron branch predictor of Jiménez
// and Lin [16] (and Vintan & Iridon [32]): a pool of perceptrons, selected
// by branch address, whose inputs are the global history bits encoded as
// ±1.
//
// "A key advantage of the perceptron predictor is its ability to consider
// much longer histories than schemes that use tables with saturating
// counters" (Section 6) — which is also why the paper favours it as a
// critic: as future bits displace history bits in a fixed-length BOR, a
// perceptron can simply use a longer BOR and keep both.
//
// The dot product is the hottest loop in the whole simulator (a perceptron
// prophet recomputes it once per future bit of every branch), so the
// weights are stored packed, four per 64-bit word in biased 16-bit lanes,
// and the dot product is evaluated SWAR-style: four multiply-free signed
// terms per word with no data-dependent branches. The packed evaluation is
// bit-for-bit equivalent to the textbook loop (see TestPackedOutputMatchesReference).
// Training is packed the same way: each word steps its four lanes at
// once, saturating through per-lane compare masks, word for word equal to
// the one-weight-at-a-time loop (see TestTrainMatchesReference).
package perceptron

import (
	"fmt"

	"prophetcritic/internal/bitutil"
	"prophetcritic/internal/checkpoint"
)

// WeightBits is the weight width used by all configurations, following
// Jiménez & Lin's hardware evaluation.
const WeightBits = 8

// maxWeight is the symmetric saturation bound ±(2^(WeightBits-1)-1); the
// symmetric range keeps negation always representable.
const maxWeight = int32(1<<(WeightBits-1) - 1)

// Packed-lane constants: each 64-bit word holds four 16-bit lanes, lane j
// storing weight value w+laneBias. With |w| <= 127 every lane stays in
// [laneBias-127, laneBias+127], so lane arithmetic never carries across
// lane boundaries, and 2*laneBias - v (the negated lane) also fits.
const (
	laneBias  = 1 << 13
	lanesPerW = 4
	laneLow4  = uint64(0x0001000100010001)
	laneSel4  = uint64(0x3FFF3FFF3FFF3FFF)
	laneZero4 = laneBias * laneLow4 // four zero weights
)

// Saturation probes for the packed training step. Adding atMaxProbe to a
// lane v in [laneBias-127, laneBias+127] gives a value in
// [0x8000-254, 0x8000], with bit 15 set only when v = laneBias+127;
// adding atMinProbe gives one in [0x7FFF, 0x8000+253], with bit 15 clear
// only when v = laneBias-127. Neither sum carries out of its lane.
const (
	laneTop4   = uint64(0x8000800080008000)
	atMaxProbe = (0x8000 - (laneBias + uint64(maxWeight))) * laneLow4
	atMinProbe = (0x8000 - (laneBias - uint64(maxWeight) + 1)) * laneLow4
)

// negMaskLUT maps a 4-bit history nibble to the lane mask selecting the
// lanes whose history bit is CLEAR (those contribute -w).
var negMaskLUT [16]uint64

func init() {
	for nib := 0; nib < 16; nib++ {
		var m uint64
		for l := 0; l < lanesPerW; l++ {
			if nib>>l&1 == 0 {
				m |= 0xFFFF << (16 * l)
			}
		}
		negMaskLUT[nib] = m
	}
}

// rowCacheBits sizes the per-predictor direct-mapped memo of the
// address -> perceptron-row mapping; the mapping needs a 64-bit modulo by
// a non-power-of-two pool size, which is worth caching for the few
// thousand distinct branch addresses of a workload.
const rowCacheBits = 10

// Perceptron is a pool of perceptrons selected by branch address.
type Perceptron struct {
	bias     []int8   // one bias weight per perceptron
	packed   []uint64 // pool * rowWords words of biased weight lanes
	rowWords int      // ceil(histLen / 4)
	lastMask uint64   // the lanes of a row's last word below histLen
	pool     int
	histLen  uint
	theta    int32

	// Direct-mapped memo of addr -> row index (see rowCacheBits).
	rowKey []uint64 // (addr>>2)+1; 0 = empty
	rowIdx []int32

	// One-entry dot-product memo. The prophet/critic core predicts a
	// branch and then trains it at commit with the *same* (addr, hist)
	// pair; the memo lets Update reuse the output Predict just computed
	// instead of recomputing the dot product. It is invalidated whenever
	// any weight changes and never alters observable predictions.
	mAddr, mHist uint64
	mOut         int32
	mOK          bool
}

// New returns a pool of n perceptrons over histLen history bits. The
// training threshold follows Jiménez & Lin: theta = floor(1.93*h + 14).
func New(n int, histLen uint) *Perceptron {
	if n < 1 {
		panic("perceptron: pool size must be >= 1")
	}
	if histLen > 64 {
		panic(fmt.Sprintf("perceptron: history length %d exceeds 64", histLen))
	}
	rowWords := (int(histLen) + lanesPerW - 1) / lanesPerW
	p := &Perceptron{
		bias:     make([]int8, n),
		packed:   make([]uint64, n*rowWords),
		rowWords: rowWords,
		lastMask: bitutil.Mask(16 * ((histLen+lanesPerW-1)%lanesPerW + 1)),
		pool:     n,
		histLen:  histLen,
		theta:    int32(1.93*float64(histLen) + 14),
		rowKey:   make([]uint64, 1<<rowCacheBits),
		rowIdx:   make([]int32, 1<<rowCacheBits),
	}
	for i := range p.packed {
		p.packed[i] = laneZero4
	}
	return p
}

// rowIndex maps a branch address to its perceptron, memoising the modulo
// through the direct-mapped cache.
//
//pclint:hotpath
func (p *Perceptron) rowIndex(addr uint64) int {
	a := addr >> 2
	slot := a & (1<<rowCacheBits - 1)
	if p.rowKey[slot] == a+1 {
		return int(p.rowIdx[slot])
	}
	idx := int(bitutil.Spread(a) % uint64(p.pool))
	p.rowKey[slot] = a + 1
	p.rowIdx[slot] = int32(idx)
	return idx
}

//pclint:hotpath
func (p *Perceptron) rowWordsOf(idx int) []uint64 {
	start := idx * p.rowWords
	return p.packed[start : start+p.rowWords]
}

// outputPacked computes the perceptron dot product bias + sum over j of
// (hist bit j ? +w[j] : -w[j]) from the packed row. Each word contributes
// four lanes: a lane keeps its biased value v = w+laneBias when its
// history bit is set, and is replaced by 2*laneBias - v (= -w+laneBias)
// when clear, via the lane-local identity 2K - v = (v XOR (2K-1)) + 1.
// Summing the lanes and subtracting lanes*laneBias recovers the exact
// signed sum; weights beyond histLen are zero, so their lanes contribute
// laneBias regardless of the (ignored) history bits above histLen.
//
//pclint:hotpath
func outputPacked(words []uint64, bias int8, hist uint64) int32 {
	sum := int32(0)
	var acc uint64
	pending := 0
	for k := 0; k < len(words); k++ {
		m := negMaskLUT[hist&15]
		hist >>= 4
		v := words[k]
		acc += (v ^ (m & laneSel4)) + (m & laneLow4)
		pending++
		// Each lane holds < 2^14, so three accumulations fit in 16 bits.
		if pending == 3 {
			sum += spillLanes(acc)
			acc, pending = 0, 0
		}
	}
	if pending > 0 {
		sum += spillLanes(acc)
	}
	return int32(bias) + sum - int32(len(words)*lanesPerW*laneBias)
}

// spillLanes sums the four 16-bit lanes of acc.
//
//pclint:hotpath
func spillLanes(acc uint64) int32 {
	return int32(acc&0xFFFF) + int32(acc>>16&0xFFFF) + int32(acc>>32&0xFFFF) + int32(acc>>48)
}

// clampWeight saturates at ±maxWeight.
//
//pclint:hotpath
func clampWeight(v int32) int32 {
	if v > maxWeight {
		return maxWeight
	}
	if v < -maxWeight {
		return -maxWeight
	}
	return v
}

//pclint:hotpath
func (p *Perceptron) output(addr, hist uint64) int32 {
	if p.mOK && p.mAddr == addr && p.mHist == hist {
		return p.mOut
	}
	idx := p.rowIndex(addr)
	out := outputPacked(p.rowWordsOf(idx), p.bias[idx], hist)
	p.mAddr, p.mHist, p.mOut, p.mOK = addr, hist, out, true
	return out
}

// Predict implements predictor.Predictor: taken when the output is
// non-negative.
//
//pclint:hotpath
func (p *Perceptron) Predict(addr, hist uint64) bool {
	return p.output(addr, hist) >= 0
}

// Output exposes the raw perceptron output, a confidence magnitude used by
// white-box tests and by overriding/confidence experiments.
//
//pclint:hotpath
func (p *Perceptron) Output(addr, hist uint64) int32 { return p.output(addr, hist) }

// train applies one perceptron learning step toward the outcome:
// strengthen agreement between each history bit and the outcome. The step
// direction is computed arithmetically — training directions are
// data-dependent and would mispredict as branches.
//
//pclint:hotpath
func (p *Perceptron) train(idx int, hist uint64, taken bool) {
	p.mOK = false
	d := int32(-1)
	if taken {
		d = 1
	}
	p.bias[idx] = int8(clampWeight(int32(p.bias[idx]) + d))
	words := p.rowWordsOf(idx)
	if len(words) == 0 {
		return
	}
	// Weight j moves +1 when history bit j agrees with the outcome and
	// -1 when it disagrees. Flipping the history on a not-taken outcome
	// makes "bit clear" mean "disagrees", so negMaskLUT selects the lanes
	// that step down.
	if !taken {
		hist = ^hist
	}
	last := len(words) - 1
	for k := 0; k < last; k++ {
		words[k] = trainWord(words[k], negMaskLUT[hist&15], ^uint64(0))
		hist >>= 4
	}
	words[last] = trainWord(words[last], negMaskLUT[hist&15], p.lastMask)
}

// trainWord steps the four biased weight lanes of v: the lanes in down
// (restricted to live) move -1 and the other live lanes +1, each unless
// already saturated at ±maxWeight. Lanes outside live are left as they
// are, which keeps the padding lanes above histLen at weight zero.
//
//pclint:hotpath
func trainWord(v, down, live uint64) uint64 {
	atMax := ((v + atMaxProbe) & laneTop4 >> 15) * 0xFFFF
	atMin := (^(v + atMinProbe) & laneTop4 >> 15) * 0xFFFF
	up := ^down & live &^ atMax
	down &= live &^ atMin
	return v + up&laneLow4 - down&laneLow4
}

// Update implements predictor.Predictor using the standard perceptron
// learning rule: train on a mispredict or when |output| <= theta.
//
//pclint:hotpath
func (p *Perceptron) Update(addr, hist uint64, taken bool) { p.UpdateStable(addr, hist, taken) }

// UpdateStable trains exactly like Update and reports whether every
// Predict result is unchanged: stable when the threshold rule skipped
// training, since only a training step moves a weight.
//
//pclint:hotpath
func (p *Perceptron) UpdateStable(addr, hist uint64, taken bool) bool {
	out := p.output(addr, hist)
	pred := out >= 0
	mag := out
	if mag < 0 {
		mag = -mag
	}
	if pred == taken && mag > p.theta {
		return true
	}
	p.train(p.rowIndex(addr), hist, taken)
	return false
}

// Train forces a training step toward the outcome regardless of threshold;
// used when a filtered-critic entry is allocated and its "prediction
// structures are initialized according to the branch's outcome" (§4).
//
//pclint:hotpath
func (p *Perceptron) Train(addr, hist uint64, taken bool) {
	p.train(p.rowIndex(addr), hist, taken)
}

// HistoryLen implements predictor.Predictor.
func (p *Perceptron) HistoryLen() uint { return p.histLen }

// SizeBits implements predictor.Predictor: the hardware budget is
// histLen+1 weights of WeightBits per perceptron, regardless of the
// packed in-memory layout.
func (p *Perceptron) SizeBits() int {
	return p.pool * int(p.histLen+1) * WeightBits
}

// Pool returns the number of perceptrons.
func (p *Perceptron) Pool() int { return p.pool }

// Theta returns the training threshold.
func (p *Perceptron) Theta() int32 { return p.theta }

// Name implements predictor.Predictor.
func (p *Perceptron) Name() string {
	return fmt.Sprintf("perceptron-%dx-h%d", p.pool, p.histLen)
}

// Snapshot implements checkpoint.Snapshotter: the bias weights and the
// packed weight rows. The row-index cache and the one-entry dot-product
// memo are derived accelerators, not architectural state — the memo is
// invalidated on restore, and the row cache memoises a mapping fixed at
// construction, so stale entries stay correct.
func (p *Perceptron) Snapshot(enc *checkpoint.Encoder) {
	enc.Section("perceptron")
	enc.Int8s(p.bias)
	enc.Uint64s(p.packed)
}

// Restore implements checkpoint.Snapshotter. Restored weights are
// validated against the invariants the packed dot product and training
// step depend on: |w| <= maxWeight in every lane and bias, and weight
// zero in the padding lanes at or above histLen of each row's last word,
// which the dot product reads whatever the history bits there.
func (p *Perceptron) Restore(dec *checkpoint.Decoder) error {
	dec.Section("perceptron")
	bias := make([]int8, len(p.bias))
	packed := make([]uint64, len(p.packed))
	dec.Int8s(bias)
	dec.Uint64s(packed)
	if err := dec.Err(); err != nil {
		return err
	}
	for i, b := range bias {
		if int32(b) < -maxWeight {
			return fmt.Errorf("perceptron: bias %d holds %d outside ±%d", i, b, maxWeight)
		}
	}
	for i, w := range packed {
		for l := 0; l < lanesPerW; l++ {
			v := int32(uint16(w>>(16*l))) - laneBias
			if v < -int32(maxWeight) || v > int32(maxWeight) {
				return fmt.Errorf("perceptron: word %d lane %d holds weight %d outside ±%d", i, l, v, maxWeight)
			}
		}
		if i%p.rowWords == p.rowWords-1 && w&^p.lastMask != laneZero4&^p.lastMask {
			return fmt.Errorf("perceptron: word %d holds a non-zero weight in a lane at or above history length %d", i, p.histLen)
		}
	}
	copy(p.bias, bias)
	copy(p.packed, packed)
	p.mOK = false
	return nil
}
