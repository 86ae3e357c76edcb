package sim

// One-pass multi-predictor execution: a ManyStepper drives N resident
// hybrids over a single walk of one program's committed stream. It is
// the simulator's only engine: Run and RunSegment are its N=1 case,
// Matrix fans it out over programs and shard windows, and the service's
// window units drive it in checkpoint-sized increments. The committed
// stream depends only on program state — never on any predictor — and
// the speculative CFG walk is bound to the Program, not the Run, so each
// hybrid evolves exactly as it would alone. RunMany over N builders is
// therefore byte-identical to N sequential Run calls while paying the
// stream cost (model stepping, or the outcome lookup of replay programs)
// once instead of N times.
//
// The stream is decoded in fixed blocks (program.Run.NextBlock) and each
// block is stepped by core's lanes (core.PlanLanes): one prophet lane
// per distinct prophet state — so hybrids sharing a prophet share its
// prediction, speculative walk and training — and one critic lane per
// hybrid, every lane devirtualized for its concrete predictor type.
// The lanes are the only engine. Their reference semantics is a
// branch-at-a-time core.Hybrid Predict/Resolve loop that lives only in
// this package's tests (runOracle), where
// TestSpecializedMatchesGeneric and TestLanesMatchGeneric hold the lanes
// to it across every registered family, both workload kinds, the
// sharded variants and checkpoint resume.

import (
	"prophetcritic/internal/core"
	"prophetcritic/internal/pool"
	"prophetcritic/internal/program"
)

// stepBlockEvents is the block-decode granularity: committed events
// decoded per NextBlock call and stepped per lane call. A block is
// 256 × 48 B = 12 KB — resident in L1 alongside the hot predictor
// tables, and large enough that per-block costs (decode call, loop
// setup, register write-back, obs bookkeeping) are amortized to noise
// per branch.
const stepBlockEvents = 256

// ManyStepper executes one program against N resident hybrids
// incrementally, mirroring RunSegment's windows: Skip fast-forwards the
// committed stream, Train predicts and resolves without measuring,
// Measure measures. All hybrids advance in lockstep over the same
// committed stream; increments may be interleaved with external work
// (per-predictor snapshots, progress reports), and the concatenation of
// all increments behaves exactly like one RunManySegment call with the
// same totals.
//
// The lanes are planned at the first Train or Measure, after any
// restore into the hybrids. From then on, hybrids that share a prophet
// lane share one prophet instance (see core.PlanLanes): step them only
// together — through this stepper, or all of them through another lane
// stepper — and restore them only as a set.
type ManyStepper struct {
	prog      *program.Program
	hs        []*core.Hybrid
	run       *program.Run
	lanes     *core.Lanes // planned at the first Train/Measure
	buf       []program.Event
	pos       int
	base      []Result
	baselines []core.Stats
	uops      uint64 // measured committed uops (stream-wide, shared)
	measuring bool
	closed    bool
}

// NewManyStepper opens one run of p for the hybrids. The hybrids may carry prior state
// (a resumed checkpoint); a fresh set gives RunSegment-equivalent
// behavior per hybrid.
func NewManyStepper(p *program.Program, hs []*core.Hybrid) *ManyStepper {
	base := make([]Result, len(hs))
	for i, h := range hs {
		base[i] = Result{Benchmark: p.Name, Suite: p.Suite, Config: h.Name()}
	}
	obsRunOpen()
	return &ManyStepper{
		prog:      p,
		hs:        hs,
		run:       p.NewRun(),
		base:      base,
		baselines: make([]core.Stats, len(hs)),
	}
}

// NumProphetLanes reports how many prophet lanes the stepper runs — one
// per distinct prophet state among the hybrids — or 0 before the first
// Train/Measure.
func (s *ManyStepper) NumProphetLanes() int {
	if s.lanes == nil {
		return 0
	}
	return s.lanes.NumGroups()
}

// Close ends the stepper's count in the active-runs gauge; a second
// Close does nothing.
func (s *ManyStepper) Close() error {
	if !s.closed {
		s.closed = true
		obsRunClose()
	}
	return nil
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

// advance drives n branches through the lanes, planning them on first
// use: a block of the committed stream is decoded once, then the lanes
// step every resident hybrid over it. Stepping block-at-a-time × lanes
// instead of branch-at-a-time × N is sound because the committed stream
// depends only on program state, the speculative walk reads only the
// static CFG, and — the lane argument of core.PlanLanes — hybrids in one
// group hold the same prophet state at every branch, so one prophet
// serves them all.
func (s *ManyStepper) advance(n int, measured bool) {
	if s.lanes == nil {
		s.lanes = core.PlanLanes(s.prog, s.hs, stepBlockEvents)
		s.buf = make([]program.Event, stepBlockEvents)
	}
	nh := uint64(len(s.hs))
	var pending uint64
	for done := 0; done < n; {
		k := min(n-done, len(s.buf))
		got := s.run.NextBlock(s.buf[:k])
		evs := s.buf[:got]
		s.lanes.Step(evs)
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
			// Replay ran past the recorded trace mid-window: surface
			// Run.CurrentAddr's past-the-end panic.
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

// Matrix runs every (builder × program) cell of a simulation matrix and
// returns results[ci][bi] in input order: the one front door of every
// configurations-over-workloads run (the experiment harness, pcsim).
// Each program gets fresh hybrids, as in the paper's per-LIT
// simulations, and all builders share one pass of each window of its
// committed stream (RunManySegment), with cells bit-identical to
// per-cell Run calls. Trace-replay programs are safe here: one holds its
// recorded outcomes in memory and never reads the trace again, so any
// number of concurrent passes can replay it.
//
// The shard options so are checked by ShardWindows; their zero value is
// the unsharded run.
// Unsharded, programs fan out on the shared worker pool. Sharded, each
// program's ShardWindows run in parallel and merge per builder in
// window order, and programs run one after another: the parallelism
// budget belongs to the shards within each program, and nesting a
// sharded pool inside the program pool would oversubscribe the CPUs
// while warmup replay multiplies total work. WarmupFrac 1 keeps every
// cell bit-identical to its sequential run, so shard settings never
// change emitted tables.
func Matrix(builds []Builder, progs []*program.Program, opt Options, so ShardOptions) ([][]Result, error) {
	ws, err := ShardWindows(opt, so)
	if err != nil {
		return nil, err
	}
	results := make([][]Result, len(builds))
	for ci := range results {
		results[ci] = make([]Result, len(progs))
	}
	put := func(bi int, col []Result) {
		for ci, r := range col {
			results[ci][bi] = r
		}
	}
	run := func(p *program.Program, w Window) []Result {
		return RunManySegment(p, buildAll(builds), w.Skip, w.Train, w.Measure)
	}
	// The pool jobs below report no errors, so neither does the pool.
	if len(ws) == 1 {
		_ = pool.Run(len(progs), func(bi int) error {
			put(bi, run(progs[bi], ws[0]))
			return nil
		})
		return results, nil
	}
	for bi, p := range progs {
		shards := make([][]Result, len(ws))
		_ = pool.Run(len(ws), func(i int) error {
			shards[i] = run(p, ws[i])
			return nil
		})
		for _, sh := range shards[1:] {
			for k := range sh {
				shards[0][k].Merge(sh[k])
			}
		}
		put(bi, shards[0])
	}
	return results, nil
}
