// Package pipeline is the processor timing model used for the uPC results
// (Figures 9 and 10): a 6-wide out-of-order core derived from the Intel
// Pentium 4 configuration of Table 2, fed by the decoupled front-end of
// Section 5 and the memory hierarchy of internal/cache.
//
// The model is commit-order and cycle-accounted rather than fully
// event-driven: it walks the committed uop stream, tracks when each uop
// could be fetched (front-end timing, I-cache misses, window occupancy,
// mispredict resteers), when it completes (dependence chains, functional
// unit latencies, data-cache misses), and when it commits (6 per cycle,
// in order). Branch mispredicts stall fetch until the branch resolves,
// which — with the model's 25-stage fetch-to-execute depth — yields the
// ~30-cycle mispredict penalty of Table 2, and the uops that would have
// been fetched down the wrong path in that shadow are counted against
// the "uops fetched along both paths" metric of the abstract.
package pipeline

import (
	"prophetcritic/internal/bitutil"
	"prophetcritic/internal/btb"
	"prophetcritic/internal/cache"
	"prophetcritic/internal/core"
	"prophetcritic/internal/frontend"
	"prophetcritic/internal/program"
)

// Config is the machine configuration of Table 2.
type Config struct {
	FetchWidth        int // 6 uops
	RetireWidth       int // 6 uops
	MispredictPenalty int // minimum resteer depth, 30 cycles
	PipeDepth         int // fetch-to-execute depth contributing to the penalty
	WindowSize        int // 2048 uops
	FTQSize           int // 32
	BTBEntries        int // 4096
	BTBWays           int // 4
	IntLat            int // simple integer op latency
	FPLat             int // floating-point op latency
	MLP               int // memory-level parallelism divisor for overlapping misses
}

// DefaultConfig reproduces Table 2.
func DefaultConfig() Config {
	return Config{
		FetchWidth:        6,
		RetireWidth:       6,
		MispredictPenalty: 30,
		PipeDepth:         25,
		WindowSize:        2048,
		FTQSize:           32,
		BTBEntries:        4096,
		BTBWays:           4,
		IntLat:            1,
		FPLat:             4,
		MLP:               8,
	}
}

// Result aggregates the timing run over its measured window: the warmup
// trains the predictor, the BTB, the caches and the front-end, but none
// of its branches is counted, in the rates either.
type Result struct {
	Benchmark string
	Suite     string
	Config    string

	Cycles        float64
	Uops          uint64 // committed (correct-path) uops
	WrongPathUops uint64 // uops fetched in mispredict shadows
	Branches      uint64
	Mispredicts   uint64

	BTBMissRate     float64
	FTQEmptyRate    float64
	LateCritique    float64
	L1IMissRate     float64
	L1DMissRate     float64
	FTQFlushes      uint64
	FTQFlushedPreds uint64
}

// UPC returns committed uops per cycle, the paper's performance metric.
func (r Result) UPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Uops) / r.Cycles
}

// FetchedUops returns uops fetched along both correct and wrong paths.
func (r Result) FetchedUops() uint64 { return r.Uops + r.WrongPathUops }

// MispPerKuops returns mispredicts per thousand committed uops.
func (r Result) MispPerKuops() float64 {
	if r.Uops == 0 {
		return 0
	}
	return float64(r.Mispredicts) / float64(r.Uops) * 1000
}

// Options bounds the run length.
type Options struct {
	WarmupBranches  int
	MeasureBranches int
}

// DefaultOptions matches the functional simulator's measurement window
// scaled down: timing simulation is ~4x the cost per branch.
var DefaultOptions = Options{WarmupBranches: 20_000, MeasureBranches: 100_000}

// Run executes the timing simulation of hybrid h over program p. It is
// the one-hybrid case of RunMany.
func Run(p *program.Program, h *core.Hybrid, cfg Config, opt Options) Result {
	return RunMany(p, []*core.Hybrid{h}, cfg, opt)[0]
}

// RunMany executes the timing simulation of every hybrid over p in one
// pass of the committed stream and returns the results in hybrid order,
// each identical to a Run of that hybrid alone.
//
// One pass suffices because the BTB and the memory hierarchy never see
// a predictor's output: the BTB is looked up and filled at the committed
// branch address, the I-cache at the committed block address, and the
// D-cache at addresses synthesised from the block ID, the committed uop
// index and an rng seeded by the program. The caches count accesses,
// not cycles, so every hit, miss and prefetch comes out the same for
// every hybrid. RunMany therefore simulates them once per chunk of
// chunkBranches committed branches into a shared tape. Nor does any
// predictor see the timing: core's lanes (core.PlanLanes) step every
// hybrid over the tape's events and write each one's verdict per branch
// — the prophet's direction and whether an explicit critique disagreed
// — and each hybrid's accountant replays the tape and its verdicts
// through its own front-end, window ring and clocks. Chunks split at
// the warmup boundary, so each accountant snapshots its start values,
// and the BTB, caches and front-ends restart their counts, before the
// first measured branch.
//
// Hybrids that start with the same prophet state share one prophet lane
// and one speculative walk. From then on they share one prophet
// instance (see core.PlanLanes), as the hybrids of a sim.ManyStepper
// do: step them further only together, and restore them only as a set.
func RunMany(p *program.Program, hs []*core.Hybrid, cfg Config, opt Options) []Result {
	if opt.MeasureBranches <= 0 {
		opt = DefaultOptions
	}
	t := newTape(p, cfg)
	lanes := core.PlanLanes(p, hs, chunkBranches)
	verdicts := lanes.Verdicts()
	accs := make([]*accountant, len(hs))
	for i, h := range hs {
		accs[i] = newAccountant(h, cfg, verdicts[i])
	}

	var startUops uint64
	warm, total := opt.WarmupBranches, opt.WarmupBranches+opt.MeasureBranches
	for pos := 0; pos < total; {
		if pos == warm {
			startUops = t.uops
			t.bt.ResetStats()
			t.mem.ResetStats()
			for _, a := range accs {
				a.startMeasure()
			}
		}
		n := min(chunkBranches, total-pos)
		if pos < warm && warm < pos+n {
			n = warm - pos
		}
		if got := t.fill(n); got < n {
			// Replay ran past the recorded trace: raise the same panic
			// a branch-at-a-time run raises at that branch.
			t.run.CurrentAddr()
		}
		lanes.Step(t.evs[:t.n])
		for _, a := range accs {
			a.consume(t)
		}
		pos += n
	}

	out := make([]Result, len(hs))
	for i, a := range accs {
		flushes, flushed := a.fe.Flushes()
		out[i] = Result{
			Benchmark:       p.Name,
			Suite:           p.Suite,
			Config:          a.name,
			Cycles:          a.commitClock - a.startCycles,
			Uops:            t.uops - startUops,
			WrongPathUops:   a.measWrong - a.startWrong,
			Branches:        a.measBranches,
			Mispredicts:     a.measMisp,
			BTBMissRate:     t.bt.MissRate(),
			FTQEmptyRate:    a.fe.EmptyRate(),
			LateCritique:    a.fe.PartialCritiqueRate(),
			L1IMissRate:     t.mem.L1I.MissRate(),
			L1DMissRate:     t.mem.L1D.MissRate(),
			FTQFlushes:      flushes,
			FTQFlushedPreds: flushed,
		}
	}
	return out
}

// chunkBranches is the tape granularity, the same block size the
// functional simulator decodes in: memory stays O(chunk) however long
// the window is.
const chunkBranches = 256

// Per-uop tape flags.
const (
	uopChained  uint8 = 1 << iota // waits on the most recent chain head
	uopLongMiss                   // a data access that missed the L2
)

// tape is one chunk of the committed stream together with every timing
// input no predictor can change. It owns the run, the BTB and the
// memory hierarchy, and it is refilled in place chunk after chunk.
type tape struct {
	run  *program.Run
	bt   *btb.BTB
	mem  *cache.Hierarchy
	rng  uint64 // dataAddr's stream, advanced in commit order
	uops uint64 // committed uops so far: the next uop's index

	intLat, fpLat, l2Lat float64

	// Per branch of the current chunk.
	evs    []program.Event
	btbHit []bool    // the BTB identified the branch at fetch
	ilat   []float64 // I-fetch latency beyond the pipelined fetch
	n      int       // branches in the chunk

	// Per uop of the current chunk, in commit order.
	lat   []float64 // execution latency; a memory uop's is its data latency
	flags []uint8

	// fetchOff[u] is uop u's fetch offset within its block, u/FetchWidth
	// cycles, for u up to the program's largest block.
	fetchOff []float64
}

func newTape(p *program.Program, cfg Config) *tape {
	maxUops := 0
	for _, b := range p.Blocks() {
		maxUops = max(maxUops, b.Uops)
	}
	fetchOff := make([]float64, maxUops)
	for u := range fetchOff {
		fetchOff[u] = float64(u) / float64(cfg.FetchWidth)
	}
	mem := cache.NewHierarchy()
	return &tape{
		run:      p.NewRun(),
		bt:       btb.New(cfg.BTBEntries, cfg.BTBWays),
		mem:      mem,
		rng:      p.Seed() ^ 0x5bd1e995,
		intLat:   float64(cfg.IntLat),
		fpLat:    float64(cfg.FPLat),
		l2Lat:    float64(mem.L2Lat),
		evs:      make([]program.Event, chunkBranches),
		btbHit:   make([]bool, chunkBranches),
		ilat:     make([]float64, chunkBranches),
		lat:      make([]float64, chunkBranches*maxUops),
		flags:    make([]uint8, chunkBranches*maxUops),
		fetchOff: fetchOff,
	}
}

// fill commits the next n branches (fewer only when a replay runs past
// its trace) and records, in the order a branch-at-a-time run makes
// them, each branch's BTB lookup (inserting on a miss), its I-fetch and
// the data access of each memory uop.
//
//pclint:hotpath
func (t *tape) fill(n int) int {
	got := t.run.NextBlock(t.evs[:n])
	k := 0
	for i := 0; i < got; i++ {
		ev := &t.evs[i]
		// A BTB miss means the front-end does not know a branch ends
		// this block; the entry is allocated at commit.
		_, hit := t.bt.Lookup(ev.Addr)
		if !hit {
			t.bt.Insert(ev.Addr, 0)
		}
		t.btbHit[i] = hit
		// I-cache: one access per block (blocks are under a line).
		t.ilat[i] = float64(t.mem.Inst(ev.Addr))

		for u := 0; u < ev.Uops; u++ {
			// Execution latency by class; memory uops access the data
			// hierarchy at a synthetic per-block address stream.
			lat, f := t.intLat, uint8(0)
			switch {
			case u < ev.MemUops:
				lat = float64(t.mem.Data(dataAddr(ev.BlockID, t.uops, &t.rng)))
				if lat > t.l2Lat {
					f |= uopLongMiss
				}
			case u < ev.MemUops+ev.FPUops:
				lat = t.fpLat
			}
			// Dependence: a uop waits on the most recent chain head's
			// completion with probability ~0.3 (deterministic
			// pseudo-random), modelling the serialised fraction of the
			// dynamic dependence graph; chains carry across blocks the
			// way loads feed downstream address computation.
			if bitutil.Spread(t.uops)%10 < 3 {
				f |= uopChained
			}
			t.lat[k], t.flags[k] = lat, f
			k++
			t.uops++
		}
	}
	t.n = got
	return got
}

// accountant is one hybrid's view of the machine: its verdicts, its
// front-end, its instruction window and its clocks, advanced over the
// shared tape.
type accountant struct {
	name       string
	verdicts   []uint8 // the hybrid's core.Lanes verdicts for the chunk
	fe         *frontend.Frontend
	futureBits uint

	// ring holds the last WindowSize uop commit times, used to stall
	// fetch when the instruction window is full.
	ring    []float64
	ringPos int

	fetchWidth, pipeDepth, retire float64
	mlp, penalty                  float64

	fetchClock  float64 // when the next uop can be fetched
	commitClock float64 // when the last uop committed
	memClock    float64 // last outstanding-miss completion, for MLP
	chainReady  float64 // completion of the most recent chain head

	measWrong, measMisp, measBranches uint64
	startCycles                       float64
	startWrong                        uint64
}

func newAccountant(h *core.Hybrid, cfg Config, verdicts []uint8) *accountant {
	return &accountant{
		name:     h.Name(),
		verdicts: verdicts,
		fe: frontend.New(frontend.Config{
			FTQCapacity: cfg.FTQSize,
			ProphetRate: 2,
			CriticRate:  1,
			FetchWidth:  cfg.FetchWidth,
		}),
		futureBits: h.Config().FutureBits,
		ring:       make([]float64, cfg.WindowSize),
		fetchWidth: float64(cfg.FetchWidth),
		pipeDepth:  float64(cfg.PipeDepth),
		retire:     1 / float64(cfg.RetireWidth),
		mlp:        float64(cfg.MLP),
		penalty:    float64(cfg.MispredictPenalty),
	}
}

// startMeasure opens the measured window at the current branch.
func (a *accountant) startMeasure() {
	a.fe.ResetStats()
	a.startCycles = a.commitClock
	a.startWrong = a.measWrong
	a.measMisp = 0
	a.measBranches = 0
}

// consume times every branch of the tape's chunk from the hybrid's
// verdicts. The machine state lives in locals for the chunk and is
// written back once at its end.
//
//pclint:hotpath
func (a *accountant) consume(t *tape) {
	ring, ringPos := a.ring, a.ringPos
	fetchClock, commitClock := a.fetchClock, a.commitClock
	memClock, chainReady := a.memClock, a.chainReady
	measWrong, measMisp := a.measWrong, a.measMisp
	fetchWidth, pipeDepth, retire := a.fetchWidth, a.pipeDepth, a.retire
	mlp, penalty := a.mlp, a.penalty
	fetchOff := t.fetchOff
	verdicts := a.verdicts[:t.n]
	k := 0
	for i, v := range verdicts {
		ev := &t.evs[i]
		prophet := v&core.VerdictProphet != 0
		disagree := v&core.VerdictDisagree != 0

		// Front-end timing for this fetch block.
		ft := a.fe.Step(frontend.BlockEvent{
			Uops:       ev.Uops,
			FutureBits: a.futureBits,
			Disagree:   disagree,
		})
		// The final prediction is the prophet's, flipped by a
		// disagreeing critique; if the block was consumed before the
		// critique, the prophet's raw prediction reached the pipeline.
		finalPred := prophet
		if ft.CritiqueInTime {
			finalPred = prophet != disagree
		}
		if !t.btbHit[i] {
			finalPred = false // unidentified branches fall through
		}

		// Fetch the block's uops.
		blockFetch := fetchClock
		if ft.Consumed > blockFetch {
			blockFetch = ft.Consumed
		}
		if lat := t.ilat[i]; lat > 0 {
			blockFetch += lat
		}

		lats, flags := t.lat[k:k+ev.Uops], t.flags[k:k+ev.Uops]
		k += ev.Uops
		offs := fetchOff[:len(lats)]
		var lastReady float64
		for u, lat := range lats {
			// Window stall: cannot fetch past WindowSize in-flight uops.
			if w := ring[ringPos]; blockFetch < w {
				blockFetch = w
			}
			fetch := blockFetch + offs[u]

			f := flags[u]
			if f&uopLongMiss != 0 {
				// Long miss: overlap with other misses up to MLP.
				if memClock > fetch {
					lat /= mlp
				}
				memClock = fetch + lat
			}
			ready := fetch + pipeDepth
			if f&uopChained != 0 && chainReady > ready {
				ready = chainReady
			}
			ready += lat
			chainReady = ready
			lastReady = ready

			// Commit: in order, RetireWidth per cycle.
			c := commitClock + retire
			if ready > c {
				c = ready
			}
			commitClock = c
			ring[ringPos] = c
			if ringPos++; ringPos == len(ring) {
				ringPos = 0
			}
		}

		// Branch resolution: the last uop of the block is the branch.
		if finalPred != ev.Taken {
			measMisp++
			// Fetch stalls until the branch resolves plus the resteer
			// penalty floor; everything fetched in that shadow was
			// wrong-path work.
			resteer := lastReady
			if min := blockFetch + penalty; resteer < min {
				resteer = min
			}
			shadow := resteer - blockFetch
			measWrong += uint64(shadow * fetchWidth / 2)
			fetchClock = resteer
			a.fe.Resteer(resteer)
		} else {
			fetchClock = blockFetch
		}
	}
	a.ringPos = ringPos
	a.fetchClock, a.commitClock = fetchClock, commitClock
	a.memClock, a.chainReady = memClock, chainReady
	a.measWrong, a.measMisp = measWrong, measMisp
	a.measBranches += uint64(len(verdicts))
}

// dataAddr synthesises a load/store address for a block: mostly a stride
// stream private to the block (prefetcher-friendly), with occasional
// random accesses across an 8MB working set (cache-hostile).
//
//pclint:hotpath
func dataAddr(blockID int, uop uint64, rng *uint64) uint64 {
	*rng = *rng*6364136223846793005 + 1442695040888963407
	r := *rng >> 33
	base := uint64(blockID) << 14
	if r%8 == 0 {
		return 0x10_0000 + (bitutil.Spread(r)%(8<<20))&^7
	}
	return base + (uop%512)*64
}
