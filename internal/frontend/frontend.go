// Package frontend models the timing of the decoupled front-end of
// Section 5 (Figure 4): the prophet produces predictions into the fetch
// target queue at 2 per cycle, the critic criticizes the oldest
// uncriticized entry at 1 per cycle once it has gathered its future bits
// (which are simply the younger FTQ entries), and the instruction cache
// consumes entries at the fetch rate. A disagreement overrides the
// prediction, flushes the uncriticized tail of the FTQ, and redirects the
// prophet — a flush confined to the FTQ.
//
// The account is per fetch block, in program order. Because the prophet
// produces predictions (2/cycle) much faster than the cache consumes them
// (one block of ~13 uops every ~2 cycles), the FTQ runs full and each
// prediction waits tens of cycles between production and consumption —
// "the prediction usually spends many cycles in the FTQ before it is
// consumed" — which is exactly the slack the critic uses. The paper's
// observable consequences reproduce directly: the FTQ is almost never
// empty, and far fewer than 1% of predictions are consumed before their
// critique completes.
package frontend

import "fmt"

// Config sets the front-end rates.
type Config struct {
	FTQCapacity int     // 32 (Table 2)
	ProphetRate float64 // predictions produced per cycle (2, Section 5)
	CriticRate  float64 // critiques per cycle (1, Section 5)
	FetchWidth  int     // uops consumed per cycle (6, Table 2)
}

// DefaultConfig is the paper's front-end configuration.
var DefaultConfig = Config{FTQCapacity: 32, ProphetRate: 2, CriticRate: 1, FetchWidth: 6}

// BlockEvent describes one fetch block fed through the front-end.
type BlockEvent struct {
	Uops       int
	FutureBits uint // future bits the critic wants for this entry
	Disagree   bool // the critic's critique disagrees with the prophet
}

// Timing is the front-end's account of one block.
type Timing struct {
	Produced   float64 // cycle the prophet inserted the prediction
	Criticized float64 // cycle the critique completed
	Consumed   float64 // cycle the cache finished consuming the block
	// CritiqueInTime reports whether the critique completed before
	// consumption began; when false the prophet's raw prediction was
	// used by the pipeline.
	CritiqueInTime bool
}

// Frontend simulates front-end timing over a stream of fetch blocks.
type Frontend struct {
	cfg Config

	prodClock   float64 // when the prophet can produce the next entry
	criticClock float64 // when the critic engine is next free
	consClock   float64 // when the cache can begin the next consumption

	// consTimes ring holds the consumption-completion times of the last
	// FTQCapacity blocks: production of block i must wait for block
	// i-FTQCapacity to be consumed (finite FTQ).
	consTimes []float64
	pos       int

	// stats
	blocks       uint64
	emptyPolls   uint64
	lateCrit     uint64
	ftqFlushes   uint64
	flushedPreds uint64
	occupancySum float64
}

// New returns a front-end with the given configuration.
func New(cfg Config) *Frontend {
	if cfg.FTQCapacity < 1 || cfg.ProphetRate <= 0 || cfg.CriticRate <= 0 || cfg.FetchWidth < 1 {
		panic(fmt.Sprintf("frontend: bad config %+v", cfg))
	}
	f := &Frontend{cfg: cfg, consTimes: make([]float64, cfg.FTQCapacity)}
	for i := range f.consTimes {
		f.consTimes[i] = -1e18 // initially unconstrained
	}
	return f
}

// Step feeds the next fetch block through the front-end and returns its
// timing. Blocks arrive in program (commit) order; the front-end runs
// ahead of consumption by up to FTQCapacity entries.
//
//pclint:hotpath
func (f *Frontend) Step(ev BlockEvent) Timing {
	f.blocks++

	// --- Produce. Production needs a free FTQ slot: block i waits for
	// block i-FTQCapacity to have been consumed.
	prod := f.prodClock
	if slotFree := f.consTimes[f.pos]; prod < slotFree {
		prod = slotFree
	}
	f.prodClock = prod + 1/f.cfg.ProphetRate

	// --- Consume. The cache picks the block up when it reaches the FTQ
	// head (its consumption turn) and not before it is produced.
	start := f.consClock
	if start < prod {
		f.emptyPolls++
		start = prod
	}
	perBlock := float64(ev.Uops) / float64(f.cfg.FetchWidth)
	cons := start + perBlock
	f.consClock = cons
	f.consTimes[f.pos] = cons
	if f.pos++; f.pos == len(f.consTimes) {
		f.pos = 0
	}

	// --- Criticize. The full critique needs FutureBits-1 younger
	// predictions, which the prophet produces at its production rate;
	// the critic engine completes one critique per cycle. If the full
	// future would not be gathered before the cache needs the
	// prediction, the critic issues a critique from the future bits
	// available at that point (Section 5: "we obtained the best results
	// by generating a critique using the future bits that were
	// available") — counted as a partial critique.
	futureReady := prod
	if ev.FutureBits > 1 {
		futureReady = prod + float64(ev.FutureBits-1)/f.cfg.ProphetRate
	}
	engineFree := f.criticClock
	if engineFree < prod {
		engineFree = prod
	}
	var crit float64
	if futureReady <= cons {
		crit = futureReady
		if engineFree > crit {
			crit = engineFree
		}
		crit += 1 / f.cfg.CriticRate
	} else {
		f.lateCrit++ // partial critique
		crit = engineFree + 1/f.cfg.CriticRate
		if crit > cons {
			crit = cons // issued just in time with whatever bits exist
		}
	}
	f.criticClock = crit

	// Occupancy observed at consumption: how long this entry waited in
	// the queue, expressed in queue entries at the consumption rate.
	occ := (start - prod) / perBlock
	if occ < 0 {
		occ = 0
	}
	if occ > float64(f.cfg.FTQCapacity) {
		occ = float64(f.cfg.FTQCapacity)
	}
	f.occupancySum += occ

	// The critique must be ready by the time the cache finishes the
	// block (when the direction steers the next fetch).
	inTime := crit <= cons

	// --- Override. On a disagreement the uncriticized tail of the FTQ
	// is flushed and the prophet redirected: production restarts at the
	// critique time, and the flushed slots free immediately.
	if ev.Disagree && inTime {
		f.ftqFlushes++
		f.flushedPreds += uint64(occ)
		if f.prodClock < crit {
			f.prodClock = crit
		}
		f.clearSlots()
	}

	return Timing{Produced: prod, Criticized: crit, Consumed: cons, CritiqueInTime: inTime}
}

//pclint:hotpath
func (f *Frontend) clearSlots() {
	for i := range f.consTimes {
		f.consTimes[i] = -1e18
	}
}

// Resteer redirects the front-end after a pipeline-level mispredict
// detected at cycle t: the FTQ is flushed and all engines restart no
// earlier than t.
//
//pclint:hotpath
func (f *Frontend) Resteer(t float64) {
	if f.prodClock < t {
		f.prodClock = t
	}
	if f.consClock < t {
		f.consClock = t
	}
	if f.criticClock < t {
		f.criticClock = t
	}
	f.clearSlots()
}

// ResetStats zeroes the block, empty-FTQ, partial-critique, flush and
// occupancy counts, so that the rates cover only the blocks that follow;
// the timing state is kept.
func (f *Frontend) ResetStats() {
	f.blocks, f.emptyPolls, f.lateCrit = 0, 0, 0
	f.ftqFlushes, f.flushedPreds, f.occupancySum = 0, 0, 0
}

// PartialCritiqueRate is the fraction of blocks whose critique was
// issued with fewer than the configured future bits because the cache
// required the prediction first (the <0.1% cases of Section 5).
func (f *Frontend) PartialCritiqueRate() float64 {
	if f.blocks == 0 {
		return 0
	}
	return float64(f.lateCrit) / float64(f.blocks)
}

// EmptyRate is the fraction of blocks that found the FTQ empty at
// consumption time.
func (f *Frontend) EmptyRate() float64 {
	if f.blocks == 0 {
		return 0
	}
	return float64(f.emptyPolls) / float64(f.blocks)
}

// MeanOccupancy is the average FTQ occupancy observed at consumption.
func (f *Frontend) MeanOccupancy() float64 {
	if f.blocks == 0 {
		return 0
	}
	return f.occupancySum / float64(f.blocks)
}

// Flushes returns the count of FTQ-confined override flushes and the
// total predictions they dropped.
func (f *Frontend) Flushes() (flushes, dropped uint64) {
	return f.ftqFlushes, f.flushedPreds
}
