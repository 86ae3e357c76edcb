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
// weights are stored packed, eight per 64-bit word in byte lanes biased
// by 128, and evaluated without a data-dependent branch: the dot product
// is bias + 2·Σ_{bit set} w − Σw, where a byte mask of the history
// selects the set lanes, a pairwise widening add and one multiply sum
// them, and Σw is kept per row by training. It is bit-for-bit the
// textbook loop (see TestPackedOutputMatchesReference). Training steps
// the eight lanes of a word at once, saturating through exact per-byte
// "is 255" and "is 1" tests, word for word equal to the
// one-weight-at-a-time loop (see TestTrainMatchesReference and
// FuzzPerceptronKernel). Checkpoints keep the original layout — four
// weights a word in 16-bit lanes — which Snapshot writes and Restore
// validates and converts (see TestSnapshotBytesPinned).
package perceptron

import (
	"fmt"
	"math/bits"

	"prophetcritic/internal/bitutil"
	"prophetcritic/internal/checkpoint"
)

// WeightBits is the weight width used by all configurations, following
// Jiménez & Lin's hardware evaluation.
const WeightBits = 8

// maxWeight is the symmetric saturation bound ±(2^(WeightBits-1)-1); the
// symmetric range keeps negation always representable.
const maxWeight = int32(1<<(WeightBits-1) - 1)

// Byte-lane constants: each 64-bit word holds eight byte lanes, lane j
// storing weight value w+laneBias. With |w| <= 127 every live lane stays
// in [1, 255]; padding lanes at or above histLen hold 0, so they add
// nothing to a masked lane sum whatever the history bits above histLen.
const (
	laneBias  = 1 << 7
	lanesPerW = 8
	laneLow8  = uint64(0x0101010101010101)
	laneLow7  = uint64(0x7F7F7F7F7F7F7F7F)
	pairLow16 = uint64(0x00FF00FF00FF00FF)
	wordLow16 = uint64(0x0001000100010001)
)

// The checkpoint (wire) layout: four weights to a word in 16-bit lanes
// biased by wireBias, padding lanes at weight zero. Snapshot writes it and
// Restore reads it, so stored checkpoints and the cache keys built on
// their bytes do not depend on the in-memory layout.
const (
	wireBias  = 1 << 13
	wireLanes = 4
)

// byteMaskLUT maps a history byte to the lane mask with 0xFF in the byte
// lanes whose history bit is set.
var byteMaskLUT [256]uint64

func init() {
	for b := 0; b < 256; b++ {
		var m uint64
		for l := 0; l < lanesPerW; l++ {
			if b>>l&1 == 1 {
				m |= 0xFF << (8 * l)
			}
		}
		byteMaskLUT[b] = m
	}
}

// rowCacheBits sizes the per-predictor direct-mapped memo of the
// address -> perceptron-row mapping; the mapping needs a 64-bit modulo by
// a non-power-of-two pool size, which is worth caching for the few
// thousand distinct branch addresses of a workload.
const rowCacheBits = 10

// rowSlot is one entry of the row-index memo: key is (addr>>2)+1, 0 when
// empty.
type rowSlot struct {
	key uint64
	idx int32
}

// memo is one remembered dot product. ok is cleared whenever a weight
// changes, so a memo never alters an observable prediction.
type memo struct {
	addr, hist uint64
	out        int32
	idx        int32 // the row the output was read from
	ok         bool
}

//pclint:hotpath
func (m *memo) holds(addr, hist uint64) bool {
	return m.ok && m.addr == addr && m.hist == hist
}

// Perceptron is a pool of perceptrons selected by branch address.
type Perceptron struct {
	bias     []int8   // one bias weight per perceptron
	sum      []int32  // per perceptron, the sum of its histLen weights
	packed   []uint64 // pool * rowWords words of byte weight lanes
	rowWords int      // ceil(histLen / 8)
	lastMask uint64   // the lanes of a row's last word below histLen
	histMask uint64   // the history bits below histLen
	pool     int
	histLen  uint
	theta    int32

	// Direct-mapped memo of addr -> row index (see rowCacheBits); an
	// array, so the masked slot needs no bounds check.
	rowCache [1 << rowCacheBits]rowSlot

	// Dot-product memos. The prophet/critic core predicts a branch and
	// then trains it at commit with the *same* (addr, hist) pair. A
	// critic makes no other prediction in between, so last, the latest
	// output, serves its Update. A prophet makes its speculative walk's
	// predictions in between, so an UpdateStable that last could not
	// serve sets fill, and the first output computed after it — the next
	// branch's own — is kept in commit for that branch's UpdateStable.
	last, commit memo
	fill         bool   // the next computed output also fills commit
	commitHits   uint64 // UpdateStable calls served by commit alone
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
		sum:      make([]int32, n),
		packed:   make([]uint64, n*rowWords),
		rowWords: rowWords,
		lastMask: bitutil.Mask(8 * ((histLen+lanesPerW-1)%lanesPerW + 1)),
		histMask: bitutil.Mask(histLen),
		pool:     n,
		histLen:  histLen,
		theta:    int32(1.93*float64(histLen) + 14),
	}
	for i := range p.packed {
		p.packed[i] = laneBias * laneLow8
	}
	for i := rowWords - 1; rowWords > 0 && i < len(p.packed); i += rowWords {
		p.packed[i] &= p.lastMask // padding lanes hold 0
	}
	return p
}

// rowIndex maps a branch address to its perceptron, memoising the modulo
// through the direct-mapped cache.
//
//pclint:hotpath
func (p *Perceptron) rowIndex(addr uint64) int {
	a := addr >> 2
	slot := &p.rowCache[a&(1<<rowCacheBits-1)]
	if slot.key == a+1 {
		return int(slot.idx)
	}
	idx := int(bitutil.Spread(a) % uint64(p.pool))
	slot.key, slot.idx = a+1, int32(idx)
	return idx
}

//pclint:hotpath
func (p *Perceptron) rowWordsOf(idx int) []uint64 {
	start := idx * p.rowWords
	return p.packed[start : start+p.rowWords]
}

// outputPacked computes the perceptron dot product bias + sum over j of
// (hist bit j ? +w[j] : -w[j]) from a row of byte lanes b[j] = w[j]+128
// and the row's weight sum. The dot product is bias + 2·Σ_set w − Σw,
// and Σ_set w = Σ_set b − 128·popcount(hist), so only the lanes whose
// history bit is set are summed: a history byte selects them through
// byteMaskLUT, and a pairwise add widens the selected bytes into four
// 16-bit lanes (at most 510 a word, 4080 a row), which one multiply
// sums. Padding lanes hold 0 and count for nothing; hist must be masked
// to histLen for the popcount.
//
//pclint:hotpath
func outputPacked(words []uint64, bias int8, sum int32, hist uint64) int32 {
	set := int32(bits.OnesCount64(hist))
	var acc uint64
	for _, v := range words {
		x := v & byteMaskLUT[hist&0xFF]
		hist >>= 8
		acc += x&pairLow16 + x>>8&pairLow16
	}
	setSum := int32(acc * wordLow16 >> 48)
	return int32(bias) + 2*(setSum-laneBias*set) - sum
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
	if p.last.holds(addr, hist) {
		return p.last.out
	}
	return p.compute(addr, hist)
}

// compute evaluates the dot product and records it in the memos.
//
//pclint:hotpath
func (p *Perceptron) compute(addr, hist uint64) int32 {
	idx := p.rowIndex(addr)
	out := outputPacked(p.rowWordsOf(idx), p.bias[idx], p.sum[idx], hist&p.histMask)
	p.last = memo{addr: addr, hist: hist, out: out, idx: int32(idx), ok: true}
	if p.fill {
		p.commit, p.fill = p.last, false
	}
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

// CommitHits returns how many UpdateStable calls took their output from
// the commit memo after the latest output had moved on to another
// (addr, hist) pair: for a prophet, the dot products its speculative
// walk would otherwise have made it compute twice.
func (p *Perceptron) CommitHits() uint64 { return p.commitHits }

// train applies one perceptron learning step toward the outcome:
// strengthen agreement between each history bit and the outcome. The step
// direction is computed arithmetically — training directions are
// data-dependent and would mispredict as branches.
//
//pclint:hotpath
func (p *Perceptron) train(idx int, hist uint64, taken bool) {
	p.last.ok, p.commit.ok = false, false
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
	// -1 when it disagrees. Flipping the history on a taken outcome
	// makes "bit set" mean "disagrees", so byteMaskLUT selects the lanes
	// that step down.
	if taken {
		hist = ^hist
	}
	var ups, downs uint64
	last := len(words) - 1
	for k := 0; k < last; k++ {
		words[k] = trainWord(words[k], byteMaskLUT[hist&0xFF], ^uint64(0), &ups, &downs)
		hist >>= 8
	}
	words[last] = trainWord(words[last], byteMaskLUT[hist&0xFF], p.lastMask, &ups, &downs)
	p.sum[idx] += int32(ups*laneLow8>>56) - int32(downs*laneLow8>>56)
}

// zeroBytes returns x with 0x80 in each byte lane that is zero and 0 in
// every other bit; no lane's test carries into the next.
//
//pclint:hotpath
func zeroBytes(x uint64) uint64 {
	return ^((x&laneLow7 + laneLow7) | x | laneLow7)
}

// trainWord steps the eight byte lanes of v: the lanes in down
// (restricted to live) move -1 and the other live lanes +1, each unless
// already saturated at ±maxWeight (a lane of 1 or of 255). Lanes outside
// live are left as they are, which keeps the padding lanes at 0. The
// steps taken, one bit per lane at the lane's low bit, are added to ups
// and downs, whose byte lanes count steps across a row.
//
//pclint:hotpath
func trainWord(v, down, live uint64, ups, downs *uint64) uint64 {
	atMax := zeroBytes(^v) >> 7
	atMin := zeroBytes(v^laneLow8) >> 7
	up := ^down & live & laneLow8 &^ atMax
	dn := down & live & laneLow8 &^ atMin
	*ups += up
	*downs += dn
	return v + up - dn
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
	// Only a caller that predicted something else in between (a
	// prophet) arms the commit memo for its next branch, so a critic's
	// Predict never copies into it.
	m := &p.last
	if !m.holds(addr, hist) {
		if p.commit.holds(addr, hist) {
			m = &p.commit
			p.commitHits++
		} else {
			p.compute(addr, hist)
		}
		p.fill = true
	}
	out := m.out
	pred := out >= 0
	mag := out
	if mag < 0 {
		mag = -mag
	}
	if pred == taken && mag > p.theta {
		return true
	}
	p.train(int(m.idx), hist, taken)
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

// wireOffset turns byte lanes (w+laneBias) widened to 16 bits into wire
// lanes (w+wireBias).
const wireOffset = (wireBias - laneBias) * wordLow16

// toWire widens the four low byte lanes of b into the four 16-bit lanes
// of a wire word.
func toWire(b uint64) uint64 {
	x := b & 0xFFFFFFFF
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & pairLow16
	return x + wireOffset
}

// fromWire narrows a wire word whose lanes hold weights within ±127 into
// four byte lanes, the inverse of toWire.
func fromWire(w uint64) uint64 {
	x := w - wireOffset
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	return (x | x>>16) & 0xFFFFFFFF
}

// wireRowWords is the number of wire words a row of histLen weights takes.
func wireRowWords(histLen uint) int { return (int(histLen) + wireLanes - 1) / wireLanes }

// Snapshot implements checkpoint.Snapshotter: the bias weights and the
// weight rows in the 16-bit wire layout (see wireBias), written word by
// word with the framing of Encoder.Uint64s. The weight sums, the
// row-index cache and the dot-product memos are derived, not
// architectural state — the sums are rebuilt and the memos invalidated
// on restore, and the row cache memoises a mapping fixed at
// construction, so stale entries stay correct.
func (p *Perceptron) Snapshot(enc *checkpoint.Encoder) {
	enc.Section("perceptron")
	enc.Int8s(p.bias)
	wireWords := wireRowWords(p.histLen)
	enc.Uvarint(uint64(p.pool * wireWords))
	pad := laneBias * laneLow8 &^ p.lastMask // padding lanes as weight 0
	var ws [64 / wireLanes]uint64            // one row of wire words
	for row := 0; row < p.pool; row++ {
		for k, b := range p.rowWordsOf(row) {
			if k == p.rowWords-1 {
				b |= pad
			}
			ws[2*k], ws[2*k+1] = toWire(b), toWire(b>>32)
		}
		for _, w := range ws[:wireWords] {
			enc.Uvarint(w)
		}
	}
}

// Restore implements checkpoint.Snapshotter. Restored weights are
// validated in the wire layout against the invariants the kernels depend
// on: |w| <= maxWeight in every lane and bias, and weight zero in the
// padding lanes at or above histLen of each row's last wire word. The
// dot product reads whatever history bits lie above histLen, so a
// non-zero padding weight would make the output depend on bits the
// perceptron does not own.
func (p *Perceptron) Restore(dec *checkpoint.Decoder) error {
	dec.Section("perceptron")
	bias := make([]int8, len(p.bias))
	dec.Int8s(bias)
	wireWords := wireRowWords(p.histLen)
	wire := make([]uint64, p.pool*wireWords)
	if n := dec.Uvarint(); dec.Err() == nil && n != uint64(len(wire)) {
		dec.Failf("table of %d entries restored into %d-entry table", n, len(wire))
	}
	for i := range wire {
		wire[i] = dec.Uvarint()
	}
	if err := dec.Err(); err != nil {
		return err
	}
	for i, b := range bias {
		if int32(b) < -maxWeight {
			return fmt.Errorf("perceptron: bias %d holds %d outside ±%d", i, b, maxWeight)
		}
	}
	wirePadding := ^bitutil.Mask(16 * ((p.histLen+wireLanes-1)%wireLanes + 1))
	for i, w := range wire {
		for l := 0; l < wireLanes; l++ {
			v := int32(uint16(w>>(16*l))) - wireBias
			if v < -maxWeight || v > maxWeight {
				return fmt.Errorf("perceptron: word %d lane %d holds weight %d outside ±%d", i, l, v, maxWeight)
			}
		}
		if i%wireWords == wireWords-1 && w&wirePadding != wireBias*wordLow16&wirePadding {
			return fmt.Errorf("perceptron: word %d holds a non-zero weight in a lane at or above history length %d", i, p.histLen)
		}
	}
	copy(p.bias, bias)
	for row := 0; row < p.pool; row++ {
		words, ws := p.rowWordsOf(row), wire[row*wireWords:(row+1)*wireWords]
		var acc uint64
		for k := range words {
			v := fromWire(ws[2*k])
			if 2*k+1 < len(ws) {
				v |= fromWire(ws[2*k+1]) << 32
			}
			if k == len(words)-1 {
				v &= p.lastMask
			}
			words[k] = v
			acc += v&pairLow16 + v>>8&pairLow16
		}
		p.sum[row] = int32(acc*wordLow16>>48) - laneBias*int32(p.histLen)
	}
	p.last.ok, p.commit.ok, p.fill = false, false, false
	return nil
}
