package counter

// Packed 2-bit counter tables: the SWAR layout for the flat pattern
// tables of the table-based families (gshare, 2Bc-gskew). A Packed2
// stores 32 counters per 64-bit word instead of one per byte, so every
// word the hot path loads carries 32 counters and a 64-byte cache line
// carries 256 — a 4× density win over the byte layout that keeps the
// Table 3 configurations resident in L1/L2 where the byte tables
// spill. Lane reads and saturating updates are two-instruction
// shift/mask sequences on the loaded word; genuinely word-parallel
// evaluation (several counters per ALU op, the perceptron SWAR trick
// widened to 2-bit lanes) applies where indices allow contiguity: the
// broadcast fill, the byte-table pack/unpack used at checkpoint
// boundaries, and TakenBits' 32-wide direction read.
//
// Checkpoint wire compatibility: the packed layout is an in-memory
// representation only. Snapshotters unpack to the flat byte table
// (StoreBytes) before encoding and pack after decoding (LoadBytes), so
// checkpoints written by packed tables are byte-identical to the
// historical byte-table encoding and restore into either.

// lanesPerWord is the packing factor: 32 two-bit lanes per uint64.
const lanesPerWord = 32

// lane01 has the low bit of every 2-bit lane set; multiplying by a
// 2-bit value broadcasts it to all 32 lanes without carries.
const lane01 = 0x5555555555555555

// Packed2 is a flat table of 2-bit saturating counters packed 32 to a
// word. The zero value is an empty table; use NewPacked2.
type Packed2 struct {
	words []uint64
	n     int
}

// NewPacked2 returns a table of n counters, every lane initialised to
// init (clamped to the 2-bit range). The fill is word-parallel: one
// multiply broadcasts the cold value to 32 lanes per store.
func NewPacked2(n int, init uint8) Packed2 {
	if init > 3 {
		init = 3
	}
	p := Packed2{
		words: make([]uint64, (n+lanesPerWord-1)/lanesPerWord),
		n:     n,
	}
	fill := uint64(init) * lane01
	for i := range p.words {
		p.words[i] = fill
	}
	return p
}

// Len returns the number of counters.
func (p *Packed2) Len() int { return p.n }

// Get returns the raw 2-bit value of counter i.
//
//pclint:hotpath
func (p *Packed2) Get(i uint64) uint8 {
	return uint8(p.words[i>>5]>>((i&31)<<1)) & 3
}

// Taken reports the predicted direction of counter i: the upper half of
// the 2-bit range predicts taken, exactly as Sat2Taken.
//
//pclint:hotpath
func (p *Packed2) Taken(i uint64) bool {
	return p.words[i>>5]>>((i&31)<<1)&2 != 0
}

// Update moves counter i toward the observed outcome, saturating at
// both ends of the lane — the packed twin of Sat2Update: the word is
// loaded once, the lane inspected in place, and the saturating ±1
// applied as a word add/subtract at the lane's shift.
//
//pclint:hotpath
func (p *Packed2) Update(i uint64, taken bool) { p.UpdateFlipped(i, taken) }

// UpdateFlipped is Update, reporting whether counter i's direction
// flipped: only the steps 1→2 and 2→1 change Taken(i).
//
//pclint:hotpath
func (p *Packed2) UpdateFlipped(i uint64, taken bool) bool {
	w, sh := i>>5, (i&31)<<1
	v := p.words[w] >> sh & 3
	if taken {
		if v < 3 {
			p.words[w] += 1 << sh
		}
		return v == 1
	}
	if v > 0 {
		p.words[w] -= 1 << sh
	}
	return v == 2
}

// Reinforce strengthens counter i toward the direction only if it
// already agrees — the packed twin of Sat2Reinforce, used by
// 2Bc-gskew's partial update policy.
//
//pclint:hotpath
func (p *Packed2) Reinforce(i uint64, taken bool) {
	w, sh := i>>5, (i&31)<<1
	v := p.words[w] >> sh & 3
	if taken {
		if v == 2 {
			p.words[w] += 1 << sh
		}
	} else if v == 1 {
		p.words[w] -= 1 << sh
	}
}

// TakenBits returns the predicted directions of counters
// [wi*32, wi*32+32), one bit per lane — the word-parallel read: 32
// counters evaluated with one mask and a SWAR bit-compress, for bulk
// consumers (table bias statistics, tests) that scan contiguous index
// ranges.
func (p *Packed2) TakenBits(wi int) uint32 {
	x := (p.words[wi] >> 1) & lane01
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	x = (x | x>>16) & 0x00000000ffffffff
	return uint32(x)
}

// Words returns the number of packed words (the TakenBits domain).
func (p *Packed2) Words() int { return len(p.words) }

// StoreBytes unpacks the table into dst, one counter per byte — the
// historical checkpoint encoding. dst must have Len() elements.
func (p *Packed2) StoreBytes(dst []uint8) {
	if len(dst) != p.n {
		panic("counter: StoreBytes destination length mismatch")
	}
	for i := range dst {
		dst[i] = uint8(p.words[i>>5]>>((uint(i)&31)<<1)) & 3
	}
}

// LoadBytes packs a flat byte table (values 0..3; validate with
// ValidateSat2 first) into the packed layout, 32 lanes assembled per
// word store. src must have Len() elements.
func (p *Packed2) LoadBytes(src []uint8) {
	if len(src) != p.n {
		panic("counter: LoadBytes source length mismatch")
	}
	for w := range p.words {
		base := w * lanesPerWord
		end := base + lanesPerWord
		if end > p.n {
			end = p.n
		}
		var word uint64
		for i := base; i < end; i++ {
			word |= uint64(src[i]&3) << ((uint(i) & 31) << 1)
		}
		p.words[w] = word
	}
}
