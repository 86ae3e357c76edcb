package program

import "fmt"

// Spec parameterises a synthetic benchmark: the static branch count, the
// region structure, the uop profile of its blocks, the mix of branch
// behaviour classes, and the parameter ranges within each class. Class
// weights are relative; they are normalised during generation.
//
// Programs are region-structured, like real applications: a program is a
// ring of regions (computation phases), each region a cluster of blocks
// with local loops and forward skips, ending in a sequencer branch that
// repeats the region a few times before moving to the next. Execution
// therefore covers the whole footprint with bursts of recurrence at
// region-working-set scale — the access pattern that makes pattern tables
// (and the critic's tagged contexts) behave the way they do on real code.
type Spec struct {
	Name  string
	Suite string
	Seed  uint64

	// Sites is the number of static conditional branches (basic blocks).
	Sites int
	// RegionSize is the number of blocks per region (default 64).
	RegionSize int
	// RegTripLo/Hi bound how many times a region repeats before the
	// program moves to the next region (default 4..16).
	RegTripLo, RegTripHi int

	// AvgUops is the mean uops per basic block; the paper reports a
	// conditional branch every ~13 uops on average across suites.
	AvgUops int
	// MemFrac and FPFrac are the fractions of block uops that are memory
	// accesses and floating-point operations (timing model inputs).
	MemFrac, FPFrac float64

	// Behaviour-class weights (normalised internally).
	//
	// WDeep is the deep-correlation class: branches deterministic in a
	// history bit beyond the prophet's reach. They are the persistent
	// prophet blind spot the critic exists to fix, and their depth
	// relative to the critic's BOR history window creates the
	// future-bit/history trade-off of Section 7.1.
	WBias, WLoop, WPattern, WHistCopy, WHistParity, WPhase, WLocal, WNoise, WDeep float64

	// Class parameter ranges.
	BiasLo, BiasHi     float64 // Biased: taken probability range
	LoopLo, LoopHi     int     // Loop: trip count range
	DepthLo, DepthHi   int     // HistCopy: correlation depth range
	DeepLo, DeepHi     int     // Deep class: correlation depth range
	ParityLo, ParityHi int     // HistParity: window range
	Noise              float64 // noise probability on correlated branches
	PhasePeriod        uint64  // Phase: executions per phase

	// MaxSkip bounds how far ahead a non-loop taken edge may jump; larger
	// skips produce longer-divergent wrong paths, so future bits stay
	// informative deeper into the prophecy.
	MaxSkip int
}

// normalise fills defaults for unset fields.
func (s Spec) normalise() Spec {
	if s.Sites <= 0 {
		s.Sites = 500
	}
	if s.RegionSize <= 0 {
		s.RegionSize = 64
	}
	if s.RegionSize > s.Sites {
		s.RegionSize = s.Sites
	}
	if s.RegTripHi == 0 {
		s.RegTripLo, s.RegTripHi = 4, 16
	}
	if s.AvgUops <= 0 {
		s.AvgUops = 13
	}
	if s.MemFrac <= 0 {
		s.MemFrac = 0.35
	}
	if s.BiasHi == 0 {
		s.BiasLo, s.BiasHi = 0.96, 0.998
	}
	if s.LoopHi == 0 {
		s.LoopLo, s.LoopHi = 3, 6
	}
	if s.DepthHi == 0 {
		s.DepthLo, s.DepthHi = 3, 8
	}
	if s.DeepHi == 0 {
		s.DeepLo, s.DeepHi = 13, 17
	}
	if s.ParityHi == 0 {
		s.ParityLo, s.ParityHi = 3, 6
	}
	if s.PhasePeriod == 0 {
		s.PhasePeriod = 3000
	}
	if s.MaxSkip <= 0 {
		s.MaxSkip = 4
	}
	total := s.WBias + s.WLoop + s.WPattern + s.WHistCopy + s.WHistParity + s.WPhase + s.WLocal + s.WNoise + s.WDeep
	if total == 0 {
		s.WBias, s.WLoop, s.WHistCopy = 0.4, 0.3, 0.3
	}
	return s
}

// Generate builds the program described by the spec. Generation is a pure
// function of the spec (including its seed).
func Generate(spec Spec) *Program {
	s := spec.normalise()
	rng := s.Seed*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	n := s.Sites
	p := &Program{Name: s.Name, Suite: s.Suite, blocks: make([]Block, n), seed: s.Seed}

	weights := []float64{s.WBias, s.WLoop, s.WPattern, s.WHistCopy, s.WHistParity, s.WPhase, s.WLocal, s.WNoise, s.WDeep}
	var totalW float64
	for _, w := range weights {
		totalW += w
	}

	// kernelMenu lists (trip, bodyLen) pairs whose period
	// trip*(bodyLen+1) lands in [14, 18]: loops long enough to straddle a
	// small prophet's history window yet short enough that an 18-bit BOR
	// context pins the iteration phase — the cleanly critic-fixable loop
	// band.
	kernelMenu := [][2]int{{7, 1}, {7, 1}, {14, 0}, {5, 2}, {8, 1}, {4, 3}, {9, 1}}

	// kernelBody marks blocks that belong to a kernel body (value = the
	// kernel's loop-branch index + 1); they are forced to safe classes so
	// a hot kernel cannot amplify a noisy branch. kernelLoop marks where
	// a kernel's loop branch must be placed: value = (trip << 32) |
	// head-block index + 1.
	kernelBody := make([]int, n)
	kernelLoop := make([]uint64, n)

	for i := 0; i < n; i++ {
		b := Block{ID: i, Addr: addrBase + uint64(i)*addrStride}

		// Uop profile: uniform in [avg/2, 3*avg/2], at least 2.
		b.Uops = rngRange(&rng, s.AvgUops/2, s.AvgUops*3/2)
		if b.Uops < 2 {
			b.Uops = 2
		}
		b.MemUops = int(float64(b.Uops) * s.MemFrac)
		b.FPUops = int(float64(b.Uops) * s.FPFrac)

		// Region geometry. Region r spans [regStart, regEnd]; the block
		// at regEnd is the region sequencer.
		regStart := (i / s.RegionSize) * s.RegionSize
		regEnd := regStart + s.RegionSize - 1
		if regEnd >= n {
			regEnd = n - 1
		}

		if kernelBody[i] != 0 {
			// Inside a kernel body: a tightly-biased continue/break
			// branch. Taken falls through the body; the rare not-taken
			// breaks out past the loop branch, mildly perturbing the
			// kernel's period the way data-dependent early exits do.
			loopPos := kernelBody[i] - 1
			b.Model = Biased{P: 0.985 + rngFloat(&rng)*0.014}
			b.TakenTo = i + 1
			b.NotTakenTo = loopPos + 1 // placement guarantees loopPos+1 <= regEnd
			p.blocks[i] = b
			continue
		}
		if kernelLoop[i] != 0 {
			// The kernel's loop branch: back to the body head.
			trip := int(kernelLoop[i] >> 32)
			head := int(kernelLoop[i]&0xffffffff) - 1
			b.Model = Loop{Trip: trip}
			b.TakenTo = head
			b.NotTakenTo = i + 1
			p.blocks[i] = b
			continue
		}

		if i == regEnd {
			// Sequencer: repeat the region RegTrip times, then move on.
			trip := rngRange(&rng, s.RegTripLo, s.RegTripHi)
			b.Model = Loop{Trip: trip}
			b.TakenTo = regStart
			b.NotTakenTo = (regEnd + 1) % n
			p.blocks[i] = b
			continue
		}

		// Behaviour class for an inner block.
		roll := rngFloat(&rng) * totalW
		var class int
		for k, w := range weights {
			if roll < w {
				class = k
				break
			}
			roll -= w
		}
		isLoop := false
		switch class {
		case 0: // biased (the program's entropy injectors)
			pTaken := s.BiasLo + rngFloat(&rng)*(s.BiasHi-s.BiasLo)
			if rngBool(&rng, 0.4) {
				pTaken = 1 - pTaken // some branches are not-taken biased
			}
			b.Model = Biased{P: pTaken}
		case 1: // loop
			// Half the loops become kernels: a small body plus a loop
			// branch whose combined period lands in [14, 18], straddling
			// a small prophet's history window while staying inside the
			// critic's BOR context — the loop-exit class the critic
			// fixes almost completely. The rest are tight self-loops.
			k := kernelMenu[int(splitmix64(&rng)%uint64(len(kernelMenu)))]
			trip, bodyLen := k[0], k[1]
			loopPos := i + bodyLen
			if rngBool(&rng, 0.5) && loopPos < regEnd {
				for j := i; j < loopPos; j++ {
					kernelBody[j] = loopPos + 1
				}
				kernelLoop[loopPos] = uint64(trip)<<32 | uint64(i+1)
				// Re-handle block i as the first body block.
				b.Model = Biased{P: 0.985 + rngFloat(&rng)*0.014}
				b.TakenTo = i + 1
				b.NotTakenTo = loopPos + 1
				p.blocks[i] = b
				continue
			}
			trip = rngRange(&rng, s.LoopLo, s.LoopHi)
			jitter := 0
			if rngBool(&rng, 0.1) {
				jitter = trip / 4
			}
			b.Model = Loop{Trip: trip, Jitter: jitter}
			isLoop = true
		case 2: // pattern
			period := uint(rngRange(&rng, 2, 5))
			b.Model = Pattern{Bits: splitmix64(&rng), Period: period}
		case 3: // history copy (shallow, within everyone's reach)
			depth := uint(rngRange(&rng, s.DepthLo, s.DepthHi))
			b.Model = HistCopy{Depth: depth, Invert: rngBool(&rng, 0.5), Noise: s.Noise}
		case 4: // history parity (linearly inseparable)
			w := uint(rngRange(&rng, s.ParityLo, s.ParityHi))
			b.Model = HistParity{Window: w, Noise: s.Noise}
		case 5: // phase
			b.Model = Phase{Period: s.PhasePeriod + splitmix64(&rng)%s.PhasePeriod, PHigh: 0.98, PLow: 0.02}
		case 6: // local periodic
			depth := uint(rngRange(&rng, 3, 6))
			b.Model = LocalPeriodic{LocalDepth: depth, Seed: splitmix64(&rng), Noise: s.Noise}
		case 7: // noise
			b.Model = Biased{P: 0.5}
		default: // deep correlation: the critic's raison d'être
			depth := uint(rngRange(&rng, s.DeepLo, s.DeepHi))
			b.Model = HistCopy{Depth: depth, Invert: rngBool(&rng, 0.5), Noise: s.Noise}
		}

		// Control flow, confined to the region. Loops take a back edge;
		// everything else skips forward on taken and falls through
		// otherwise, with occasional direction inversion so taken is not
		// uniformly "skip".
		next := i + 1 // regEnd check above guarantees i+1 <= regEnd
		if isLoop {
			// Tight (self-)loop: the branch spins on itself trip-1 times
			// and falls through. Keeping loop bodies to a single block
			// keeps the loop period within history reach and keeps each
			// block's dynamic frequency controlled by its own class, so
			// the spec's class weights translate into dynamic shares.
			b.TakenTo = i
			b.NotTakenTo = next
		} else {
			skip := i + 1 + rngRange(&rng, 1, s.MaxSkip)
			if skip > regEnd {
				skip = regEnd
			}
			if rngBool(&rng, 0.85) {
				b.TakenTo, b.NotTakenTo = skip, next
			} else {
				b.TakenTo, b.NotTakenTo = next, skip
			}
		}
		p.blocks[i] = b
	}
	return p
}

// Validate checks CFG invariants: every target in range and every block
// reachable from block 0 through some direction assignment. It returns an
// error describing the first violation. Trace-reconstructed programs may
// carry negative edge targets (never-observed edges, see FromTrace);
// those are legal there and simply end walks early.
func (p *Program) Validate() error {
	n := len(p.blocks)
	if n == 0 {
		return fmt.Errorf("program %q has no blocks", p.Name)
	}
	for i := range p.blocks {
		b := &p.blocks[i]
		if max(b.TakenTo, b.NotTakenTo) >= n || (min(b.TakenTo, b.NotTakenTo) < 0 && !p.IsReplay()) {
			return fmt.Errorf("block %d: target out of range (T=%d, N=%d, n=%d)", i, b.TakenTo, b.NotTakenTo, n)
		}
		if b.Uops < 1 {
			return fmt.Errorf("block %d: no uops", i)
		}
		if b.Model == nil && !p.IsReplay() {
			return fmt.Errorf("block %d: no model", i)
		}
	}
	// Reachability from the entry block (negative = no edge).
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 0
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, t := range []int{p.blocks[i].TakenTo, p.blocks[i].NotTakenTo} {
			if t >= 0 && !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	if count < n/2 {
		return fmt.Errorf("program %q: only %d of %d blocks reachable", p.Name, count, n)
	}
	return nil
}
