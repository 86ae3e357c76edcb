package sim

// One-pass multi-predictor execution: a ManyStepper drives N resident
// hybrids over a single walk of one program's committed stream. It is
// the simulator's only engine: Run, RunSegment and RunSharded are its
// N=1 case, and the service's stepped jobs, sharded windows, and cluster
// units all drive it in checkpoint-sized increments. The
// committed stream depends only on program state — never on any
// predictor — and the speculative CFG walk is bound to the Program, not
// the Run, so each hybrid evolves exactly as it would alone: per branch,
// every hybrid predicts (performing its own wrong-path future-bit walk),
// the branch commits once, and every hybrid resolves against the same
// outcome. RunMany over N builders is therefore byte-identical to N
// sequential Run calls while paying the stream cost (model stepping, or
// trace decode for replay programs) once instead of N times — the
// regime predictor sweeps and the service's batched jobs live in, where
// the walk and decode dominate.
//
// The equivalence is pinned by TestRunManyMatchesSequential across
// every registered family, both workload kinds, and the sharded
// variants; the inner loop is held to the hotpath wall and the 0-alloc
// perfguard gate.
//
// When a hybrid's (prophet × critic × filtered) combination has a
// registered specialization (core.SpecializeStep), that hybrid runs the
// devirtualized block loop: the committed stream is decoded in fixed
// blocks (program.Run.NextBlock) and each resident block is stepped by
// the monomorphic loop — byte-identical results, pinned by
// TestSpecializedMatchesGeneric. Unregistered combinations, and
// steppers forced generic (ForceGeneric, the equivalence oracle), take
// the per-branch interface path, which remains the reference semantics.

import (
	"context"
	"fmt"

	"prophetcritic/internal/core"
	"prophetcritic/internal/pool"
	"prophetcritic/internal/program"
)

// stepBlockEvents is the block-decode granularity: committed events
// decoded per NextBlock call and stepped per specialized-loop call. A
// block is 256 × 48 B = 12 KB — resident in L1 alongside the hot
// predictor tables, and large enough that per-block costs (decode call,
// loop setup, register write-back, obs bookkeeping) are amortized to
// noise per branch.
const stepBlockEvents = 256

// ManyStepper executes one program against N resident hybrids
// incrementally, mirroring RunSegment's windows: Skip fast-forwards the
// committed stream, Train predicts and resolves without measuring,
// Measure measures. All hybrids advance in lockstep over the same
// committed stream; increments may be interleaved with external work
// (per-predictor snapshots, progress reports), and the concatenation of
// all increments behaves exactly like one RunManySegment call with the
// same totals.
type ManyStepper struct {
	hs        []*core.Hybrid
	run       *program.Run
	walk      core.WalkFunc
	specs     []core.SpecializedStep // per-hybrid; nil entry = interface path
	buf       []program.Event        // block-decode buffer; nil = per-branch engine
	pos       int
	base      []Result
	baselines []core.Stats
	uops      uint64 // measured committed uops (stream-wide, shared)
	measuring bool
	closed    bool
}

// NewManyStepper opens one run of p for the hybrids, resolving each
// hybrid's specialized block loop where one is registered. Close
// releases the event stream of trace-replay runs. The hybrids may carry
// prior state (a resumed checkpoint); a fresh set gives
// RunSegment-equivalent behavior per hybrid.
func NewManyStepper(p *program.Program, hs []*core.Hybrid) *ManyStepper {
	base := make([]Result, len(hs))
	for i, h := range hs {
		base[i] = Result{Benchmark: p.Name, Suite: p.Suite, Config: h.Name()}
	}
	obsRunOpen()
	s := &ManyStepper{
		hs:        hs,
		run:       p.NewRun(),
		walk:      core.WalkFunc(p.Walk),
		specs:     make([]core.SpecializedStep, len(hs)),
		base:      base,
		baselines: make([]core.Stats, len(hs)),
	}
	any := false
	for i, h := range hs {
		if spec, ok := core.SpecializeStep(h, p); ok {
			s.specs[i] = spec
			any = true
		}
	}
	if any {
		s.buf = make([]program.Event, stepBlockEvents)
	}
	return s
}

// ForceGeneric discards every specialized loop so all hybrids take the
// per-branch interface path — the reference engine the equivalence wall
// and the hot-path benchmarks compare the specialized loops against.
// Call it before the first Train/Measure; results are byte-identical
// either way.
func (s *ManyStepper) ForceGeneric() {
	s.specs = make([]core.SpecializedStep, len(s.hs))
	s.buf = nil
}

// NumSpecialized reports how many resident hybrids are on the
// devirtualized block-loop path.
func (s *ManyStepper) NumSpecialized() int {
	n := 0
	for _, sp := range s.specs {
		if sp != nil {
			n++
		}
	}
	return n
}

// Close releases the underlying run.
func (s *ManyStepper) Close() error {
	if !s.closed {
		s.closed = true
		obsRunClose()
	}
	return s.run.Close()
}

// Pos returns the number of committed branches consumed so far.
func (s *ManyStepper) Pos() int { return s.pos }

// Skip fast-forwards n committed branches without predicting — program
// state depends only on the committed stream, so the stream after Skip
// is identical to a fully simulated run's.
func (s *ManyStepper) Skip(n int) {
	for i := 0; i < n; i++ {
		s.run.Next()
	}
	s.pos += n
}

// step is the one-pass inner loop: the branch at the stream cursor
// commits once, then every hybrid predicts it (each performing its own
// speculative walk) and resolves against the committed outcome. The
// commit may run before the predictions because no Predict input
// depends on it: Program.Walk is side-effect free over the static CFG,
// Run.Next mutates only Run state, and hybrids share no state — so
// each hybrid sees exactly the (addr, walk, own-state) inputs of its
// sequential run, and the fused core.Hybrid.Step call keeps the
// Prediction internal to the predictor instead of round-tripping it
// through a scratch slice per resident hybrid.
//
//pclint:hotpath
func (s *ManyStepper) step(measured bool) {
	addr := s.run.CurrentAddr()
	ev := s.run.Next()
	if ev.Addr != addr {
		panic(fmt.Sprintf("sim: committed branch %#x does not match predicted %#x", ev.Addr, addr)) //pclint:allow cold panic guard, never on the committed path
	}
	walk := s.walk
	for _, h := range s.hs {
		h.Step(addr, walk, ev.Taken)
	}
	if measured {
		s.uops += uint64(ev.Uops)
	}
	s.pos++
}

// advance drives n branches through whichever engine the stepper is on.
func (s *ManyStepper) advance(n int, measured bool) {
	nh := uint64(len(s.hs))
	if s.buf != nil {
		s.advanceBlocks(n, measured, nh)
		return
	}
	for i := 0; i < n; i++ {
		s.step(measured)
		if i&obsSampleMask == obsSampleMask {
			obsCommit(ObsSampleEvery, ObsSampleEvery*nh)
		}
	}
	tail := uint64(n & obsSampleMask)
	obsCommit(tail, tail*nh)
}

// advanceBlocks is the block-batched one-pass engine: a block of the
// committed stream is decoded once, then every resident hybrid iterates
// the resident block — specialized hybrids via their monomorphic loop,
// the rest via the interface path. Reordering branch-at-a-time × N into
// block-at-a-time × N is sound for exactly the reason step documents:
// the committed stream depends only on program state, the speculative
// walk is bound to the immutable Program, and hybrids share no state,
// so each hybrid sees the same (addr, walk, own-state) inputs in the
// same order as its sequential run.
func (s *ManyStepper) advanceBlocks(n int, measured bool, nh uint64) {
	var pending uint64
	for done := 0; done < n; {
		k := n - done
		if k > len(s.buf) {
			k = len(s.buf)
		}
		got := s.run.NextBlock(s.buf[:k])
		evs := s.buf[:got]
		for i, h := range s.hs {
			if sp := s.specs[i]; sp != nil {
				sp(evs)
				continue
			}
			walk := s.walk
			for j := range evs {
				h.Step(evs[j].Addr, walk, evs[j].Taken)
			}
		}
		if measured {
			for j := range evs {
				s.uops += uint64(evs[j].Uops)
			}
		}
		s.pos += got
		done += got
		pending += uint64(got)
		for pending >= ObsSampleEvery {
			obsCommit(ObsSampleEvery, ObsSampleEvery*nh)
			pending -= ObsSampleEvery
		}
		if got < k {
			// Replay ran past the recorded trace mid-window: surface the
			// identical past-the-end panic the per-branch path raises.
			s.run.CurrentAddr()
		}
	}
	obsCommit(pending, pending*nh)
}

// Train predicts and resolves n branches without measuring them.
func (s *ManyStepper) Train(n int) { s.advance(n, false) }

// Measure predicts, resolves, and measures n branches. The first call
// records every hybrid's stats baseline, so Results reports deltas over
// the measured window only, exactly as RunSegment does per hybrid.
func (s *ManyStepper) Measure(n int) {
	if !s.measuring {
		for i, h := range s.hs {
			s.baselines[i] = h.Stats()
		}
		s.measuring = true
	}
	s.advance(n, true)
}

// Results returns each hybrid's statistics over the window measured so
// far, in hybrid order. Before the first Measure call the results carry
// only identity fields. Counters are additive over disjoint windows, so
// a resumed run's results merged per hybrid (Result.Merge) with
// partials recorded before an interruption equal the uninterrupted
// run's results exactly.
func (s *ManyStepper) Results() []Result {
	out := make([]Result, len(s.hs))
	copy(out, s.base)
	if !s.measuring {
		return out
	}
	for i, h := range s.hs {
		final := h.Stats()
		out[i].Branches = final.Branches - s.baselines[i].Branches
		out[i].Uops = s.uops
		out[i].ProphetMisp = final.ProphetMispredict - s.baselines[i].ProphetMispredict
		out[i].FinalMisp = final.FinalMispredict - s.baselines[i].FinalMispredict
		for c := 0; c < len(out[i].Critiques); c++ {
			out[i].Critiques[c] = final.Critiques[c] - s.baselines[i].Critiques[c]
		}
	}
	return out
}

// RunManySegment drives the hybrids over one contiguous window of p's
// committed stream in a single pass, with RunSegment's window semantics.
// measure may be 0 (state building only).
func RunManySegment(p *program.Program, hs []*core.Hybrid, skip, train, measure int) []Result {
	st := NewManyStepper(p, hs)
	defer st.Close()
	st.Skip(skip)
	st.Train(train)
	if measure > 0 {
		st.Measure(measure)
	}
	return st.Results()
}

// buildAll constructs one fresh hybrid per builder.
func buildAll(builds []Builder) []*core.Hybrid {
	hs := make([]*core.Hybrid, len(builds))
	for i, b := range builds {
		hs[i] = b()
	}
	return hs
}

// RunMany simulates every builder's hybrid over p in one pass of the
// committed stream, returning results in builder order — byte-identical
// to calling Run once per builder, at one stream walk instead of N.
func RunMany(p *program.Program, builds []Builder, opt Options) []Result {
	if opt.MeasureBranches <= 0 {
		opt = DefaultOptions
	}
	return RunManySegment(p, buildAll(builds), 0, opt.WarmupBranches, opt.MeasureBranches)
}

// RunManySharded runs every builder over p with the measurement window
// split into so.Shards contiguous intervals (sim.ShardWindows), each
// interval simulated one-pass across all builders and merged per
// builder in interval order. WarmupFrac 1 is bit-identical to the
// sequential run of every builder.
func RunManySharded(p *program.Program, builds []Builder, opt Options, so ShardOptions) ([]Result, error) {
	ws, err := ShardWindows(opt, so)
	if err != nil {
		return nil, err
	}
	if len(ws) == 1 {
		w := ws[0]
		return RunManySegment(p, buildAll(builds), w.Skip, w.Train, w.Measure), nil
	}
	shards := make([][]Result, len(ws))
	err = pool.RunCtx(context.Background(), len(ws), func(i int) error {
		w := ws[i]
		shards[i] = RunManySegment(p, buildAll(builds), w.Skip, w.Train, w.Measure)
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged := shards[0]
	for _, sh := range shards[1:] {
		for k := range merged {
			merged[k].Merge(sh[k])
		}
	}
	return merged, nil
}

// RunManyPrograms runs every builder over every program, one pass per
// program, programs fanned out on the shared worker pool. results[pi][ci]
// is builder ci on program pi; each program gets fresh hybrids, as in
// the paper's per-LIT simulations.
func RunManyPrograms(progs []*program.Program, builds []Builder, opt Options) ([][]Result, error) {
	results := make([][]Result, len(progs))
	err := pool.Run(len(progs), func(i int) error {
		results[i] = RunMany(progs[i], builds, opt)
		return nil
	})
	return results, err
}
