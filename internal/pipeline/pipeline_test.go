package pipeline

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"prophetcritic/internal/bitutil"
	"prophetcritic/internal/btb"
	"prophetcritic/internal/budget"
	"prophetcritic/internal/cache"
	"prophetcritic/internal/core"
	"prophetcritic/internal/frontend"
	"prophetcritic/internal/program"
	"prophetcritic/internal/registry"
)

var testOpt = Options{WarmupBranches: 30_000, MeasureBranches: 50_000}

func alone(kb int) *core.Hybrid {
	return core.New(budget.MustLookup(budget.Gskew, kb).Build(), nil, core.Config{})
}

func hybrid(fb uint) *core.Hybrid {
	return core.New(
		budget.MustLookup(budget.Gskew, 8).Build(),
		budget.MustLookup(budget.TaggedGshare, 8).Build(),
		core.Config{FutureBits: fb, Filtered: true, BORLen: 18})
}

func TestUPCInPlausibleRange(t *testing.T) {
	r := Run(program.MustLoad("gcc"), alone(16), DefaultConfig(), testOpt)
	if upc := r.UPC(); upc < 0.5 || upc > 6 {
		t.Fatalf("uPC = %f outside plausible [0.5, 6]", upc)
	}
	if r.Cycles <= 0 || r.Uops == 0 {
		t.Fatal("timing run must produce cycles and uops")
	}
}

func TestDeterministic(t *testing.T) {
	a := Run(program.MustLoad("gzip"), hybrid(4), DefaultConfig(), testOpt)
	b := Run(program.MustLoad("gzip"), hybrid(4), DefaultConfig(), testOpt)
	if a != b {
		t.Fatalf("timing simulation must be deterministic:\n%+v\n%+v", a, b)
	}
}

func TestBetterPredictionGivesBetterUPC(t *testing.T) {
	// An oracle-grade predictor (always-right scripted via a huge
	// perceptron is overkill; compare strong vs deliberately weak).
	weak := core.New(budget.MustLookup(budget.Gshare, 2).Build(), nil, core.Config{})
	strong := alone(16)
	rw := Run(program.MustLoad("gcc"), weak, DefaultConfig(), testOpt)
	rs := Run(program.MustLoad("gcc"), strong, DefaultConfig(), testOpt)
	if rs.Mispredicts >= rw.Mispredicts {
		t.Fatalf("16KB gskew (%d misp) must mispredict less than 2KB gshare (%d)", rs.Mispredicts, rw.Mispredicts)
	}
	if rs.UPC() <= rw.UPC() {
		t.Fatalf("fewer mispredicts must give higher uPC: %.3f vs %.3f", rs.UPC(), rw.UPC())
	}
	if rs.WrongPathUops >= rw.WrongPathUops {
		t.Fatal("fewer mispredicts must fetch fewer wrong-path uops")
	}
}

func TestHybridImprovesUPC(t *testing.T) {
	base := Run(program.MustLoad("gcc"), core.New(budget.MustLookup(budget.Gskew, 8).Build(), nil, core.Config{}), DefaultConfig(), testOpt)
	hyb := Run(program.MustLoad("gcc"), hybrid(1), DefaultConfig(), testOpt)
	if hyb.Mispredicts >= base.Mispredicts {
		t.Fatalf("hybrid must reduce mispredicts: %d vs %d", hyb.Mispredicts, base.Mispredicts)
	}
	if hyb.UPC() <= base.UPC() {
		t.Fatalf("hybrid must improve uPC: %.3f vs %.3f", hyb.UPC(), base.UPC())
	}
}

// TestRatesCoverMeasuredWindow: the BTB, cache and front-end rates
// count only the measured window's branches, not the warmup's. The BTB,
// L1I and front-end see one event per branch, so runs with no warmup
// over [0, warm) and [0, warm+meas) give the window's counts; the L1D's
// come from a tape filled directly.
func TestRatesCoverMeasuredWindow(t *testing.T) {
	p, cfg := program.MustLoad("gcc"), DefaultConfig()
	const warm, meas = 20_000, 10_000
	got := Run(p, hybrid(8), cfg, Options{WarmupBranches: warm, MeasureBranches: meas})
	head := Run(p, hybrid(8), cfg, Options{MeasureBranches: warm})
	all := Run(p, hybrid(8), cfg, Options{MeasureBranches: warm + meas})
	window := func(head, all float64) float64 {
		return (math.Round(all*(warm+meas)) - math.Round(head*warm)) / meas
	}

	tp := newTape(p, cfg)
	fill := func(n int) {
		for ; n > 0; n -= chunkBranches {
			tp.fill(min(n, chunkBranches))
		}
	}
	fill(warm)
	a0, m0 := tp.mem.L1D.Accesses(), tp.mem.L1D.Misses()
	fill(meas)

	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"BTB miss rate", got.BTBMissRate, window(head.BTBMissRate, all.BTBMissRate)},
		{"L1I miss rate", got.L1IMissRate, window(head.L1IMissRate, all.L1IMissRate)},
		{"FTQ empty rate", got.FTQEmptyRate, window(head.FTQEmptyRate, all.FTQEmptyRate)},
		{"partial critiques", got.LateCritique, window(head.LateCritique, all.LateCritique)},
		{"L1D miss rate", got.L1DMissRate, float64(tp.mem.L1D.Misses()-m0) / float64(tp.mem.L1D.Accesses()-a0)},
	} {
		if c.got != c.want {
			t.Errorf("%s = %.6f, want %.6f over the measured window", c.name, c.got, c.want)
		}
	}
}

func TestFrontEndHealthMetrics(t *testing.T) {
	r := Run(program.MustLoad("parser"), hybrid(8), DefaultConfig(), testOpt)
	if r.FTQEmptyRate > 0.10 {
		t.Fatalf("FTQ empty rate %f too high (paper: FTQ nearly always full)", r.FTQEmptyRate)
	}
	// Partial critiques cluster right after mispredict resteers, when the
	// FTQ is refilling; the paper's <0.1% figure counts predictions with
	// no critique at all, which the partial-critique policy avoids.
	if r.LateCritique > 0.12 {
		t.Fatalf("partial critique rate %f too high", r.LateCritique)
	}
	if r.BTBMissRate > 0.05 {
		t.Fatalf("BTB miss rate %f too high for a footprint under 4K branches", r.BTBMissRate)
	}
	if r.L1IMissRate > 0.5 {
		t.Fatalf("implausible L1I miss rate %f", r.L1IMissRate)
	}
}

func TestDerivedMetrics(t *testing.T) {
	r := Result{Uops: 1000, Cycles: 500, WrongPathUops: 100, Mispredicts: 10}
	if r.UPC() != 2 {
		t.Fatal("UPC arithmetic wrong")
	}
	if r.FetchedUops() != 1100 {
		t.Fatal("FetchedUops arithmetic wrong")
	}
	if r.MispPerKuops() != 10 {
		t.Fatal("MispPerKuops arithmetic wrong")
	}
	var zero Result
	if zero.UPC() != 0 || zero.MispPerKuops() != 0 {
		t.Fatal("zero-value result must not divide by zero")
	}
}

func TestDefaultOptionsApplied(t *testing.T) {
	r := Run(program.MustLoad("swim"), alone(2), DefaultConfig(), Options{})
	if r.Branches != uint64(DefaultOptions.MeasureBranches) {
		t.Fatalf("zero Options must fall back to defaults, measured %d", r.Branches)
	}
}

// runOracle is the branch-at-a-time timing loop that RunMany replaced:
// it rebuilds the BTB and the memory hierarchy for every hybrid. It
// stays here, and only here, as the reference semantics the one-pass
// engine must reproduce exactly.
func runOracle(p *program.Program, h *core.Hybrid, cfg Config, opt Options) Result {
	if opt.MeasureBranches <= 0 {
		opt = DefaultOptions
	}
	run := p.NewRun()
	walk := core.WalkFunc(p.Walk)
	fe := frontend.New(frontend.Config{
		FTQCapacity: cfg.FTQSize,
		ProphetRate: 2,
		CriticRate:  1,
		FetchWidth:  cfg.FetchWidth,
	})
	bt := btb.New(cfg.BTBEntries, cfg.BTBWays)
	mem := cache.NewHierarchy()

	res := Result{Benchmark: p.Name, Suite: p.Suite, Config: h.Name()}

	// commitTimes is a ring of the last WindowSize uop commit times, used
	// to stall fetch when the instruction window is full.
	ring := make([]float64, cfg.WindowSize)
	ringPos := 0

	var (
		fetchClock  float64 // when the next uop can be fetched
		commitClock float64 // when the last uop committed
		uopIndex    uint64
		startCycles float64
		startUops   uint64
		startWrong  uint64
		memClock    float64 // last outstanding-miss completion, for MLP
		chainReady  float64 // completion of the most recent chain head
		rng         = p.Seed() ^ 0x5bd1e995
	)

	total := opt.WarmupBranches + opt.MeasureBranches
	var measWrong, measMisp, measBranches uint64

	for i := 0; i < total; i++ {
		if i == opt.WarmupBranches {
			startCycles = commitClock
			startUops = uopIndex
			startWrong = measWrong
			measMisp = 0
			measBranches = 0
			bt.ResetStats()
			mem.ResetStats()
			fe.ResetStats()
		}

		addr := run.CurrentAddr()

		// BTB identification. A miss means the front-end does not know
		// a branch ends this block; the branch is effectively predicted
		// not-taken and the entry is allocated at commit.
		_, btbHit := bt.Lookup(addr)

		pr := h.Predict(addr, walk)
		ev := run.Next()

		finalPred := pr.Final
		// Front-end timing for this fetch block.
		ft := fe.Step(frontend.BlockEvent{
			Uops:       ev.Uops,
			FutureBits: h.Config().FutureBits,
			Disagree:   pr.CriticUsed && pr.Critic != pr.Prophet,
		})
		if !ft.CritiqueInTime {
			// Prediction consumed before the critique: the prophet's
			// raw prediction reached the pipeline.
			finalPred = pr.Prophet
		}
		if !btbHit {
			finalPred = false // unidentified branches fall through
			bt.Insert(addr, 0)
		}
		h.Resolve(pr, ev.Taken)
		measBranches++

		// Fetch the block's uops.
		blockFetch := fetchClock
		if ft.Consumed > blockFetch {
			blockFetch = ft.Consumed
		}
		// I-cache: one access per block (blocks are under a line).
		if lat := mem.Inst(ev.Addr); lat > 0 {
			blockFetch += float64(lat)
		}

		// Window stall: cannot fetch past WindowSize in-flight uops.
		var lastReady float64
		memOps := ev.MemUops
		fpOps := ev.FPUops
		for u := 0; u < ev.Uops; u++ {
			if w := ring[ringPos]; blockFetch < w {
				blockFetch = w
			}
			fetch := blockFetch + float64(u)/float64(cfg.FetchWidth)

			// Execution latency by class; memory uops access the data
			// hierarchy at a synthetic per-block address stream.
			lat := float64(cfg.IntLat)
			switch {
			case u < memOps:
				daddr := dataAddr(ev.BlockID, uopIndex, &rng)
				l := float64(mem.Data(daddr))
				if l > float64(mem.L2Lat) {
					// Long miss: overlap with other misses up to MLP.
					overlapped := l / float64(cfg.MLP)
					if memClock > fetch {
						l = overlapped
					}
					memClock = fetch + l
				}
				lat = l
			case u < memOps+fpOps:
				lat = float64(cfg.FPLat)
			}

			// Dependence: a uop waits on the most recent chain head's
			// completion with probability ~0.3 (deterministic
			// pseudo-random), modelling the serialised fraction of the
			// dynamic dependence graph; chains carry across blocks the
			// way loads feed downstream address computation.
			ready := fetch + float64(cfg.PipeDepth)
			if bitutil.Spread(uopIndex)%10 < 3 && chainReady > ready {
				ready = chainReady
			}
			ready += lat
			chainReady = ready
			lastReady = ready

			// Commit: in order, RetireWidth per cycle.
			c := commitClock + 1/float64(cfg.RetireWidth)
			if ready > c {
				c = ready
			}
			commitClock = c
			ring[ringPos] = c
			ringPos = (ringPos + 1) % cfg.WindowSize
			uopIndex++
		}

		// Branch resolution: the last uop of the block is the branch.
		if finalPred != ev.Taken {
			measMisp++
			// Fetch stalls until the branch resolves plus the resteer
			// penalty floor; everything fetched in that shadow was
			// wrong-path work.
			resteer := lastReady
			if min := blockFetch + float64(cfg.MispredictPenalty); resteer < min {
				resteer = min
			}
			shadow := resteer - blockFetch
			measWrong += uint64(shadow * float64(cfg.FetchWidth) / 2)
			fetchClock = resteer
			fe.Resteer(resteer)
		} else {
			fetchClock = blockFetch
		}
	}

	res.Cycles = commitClock - startCycles
	res.Uops = uopIndex - startUops
	res.WrongPathUops = measWrong - startWrong
	res.Branches = measBranches
	res.Mispredicts = measMisp
	res.BTBMissRate = bt.MissRate()
	res.FTQEmptyRate = fe.EmptyRate()
	res.LateCritique = fe.PartialCritiqueRate()
	res.L1IMissRate = mem.L1I.MissRate()
	res.L1DMissRate = mem.L1D.MissRate()
	res.FTQFlushes, res.FTQFlushedPreds = fe.Flushes()
	return res
}

// equivHybrids is the wall's configuration matrix: every registered
// family as prophet, alone and with a tagged-gshare and a
// filtered-perceptron critic at 1, 4 and 12 future bits.
func equivHybrids(t *testing.T) (names []string, builds []func() *core.Hybrid) {
	t.Helper()
	kinds := []budget.Kind{
		budget.Gshare, budget.Perceptron, budget.Gskew, budget.TaggedGshare,
		budget.FilteredPerceptron, budget.Bimodal, budget.Local,
		budget.Tournament, budget.YAGS,
	}
	if len(kinds) != len(registry.All()) {
		t.Fatalf("wall covers %d families, registry has %d", len(kinds), len(registry.All()))
	}
	for _, pk := range kinds {
		pc := budget.MustResolve(pk, 4)
		names = append(names, string(pk))
		builds = append(builds, func() *core.Hybrid { return core.New(pc.Build(), nil, core.Config{}) })
		for _, ck := range []budget.Kind{budget.TaggedGshare, budget.FilteredPerceptron} {
			cc := budget.MustLookup(ck, 8)
			for _, fb := range []uint{1, 4, 12} {
				names = append(names, fmt.Sprintf("%s+%s-fb%d", pk, ck, fb))
				builds = append(builds, func() *core.Hybrid {
					return core.New(pc.Build(), cc.Build(),
						core.Config{FutureBits: fb, Filtered: cc.IsCritic(), BORLen: cc.BORSize()})
				})
			}
		}
	}
	return names, builds
}

// recordTrace records bench's first branches through internal/trace
// and loads them back as a replay program.
func recordTrace(t *testing.T, bench string, branches int) *program.Program {
	t.Helper()
	return recordProgram(t, program.MustLoad(bench), branches)
}

// TestRunManyMatchesRun is the one-pass equivalence wall: for every
// configuration, workload and window, RunMany at N=1 and at N=15
// returns exactly the Result of the branch-at-a-time oracle.
func TestRunManyMatchesRun(t *testing.T) {
	const measure = 2_000
	windows := []Options{
		{WarmupBranches: 0, MeasureBranches: measure},
		{WarmupBranches: 1000 + 777, MeasureBranches: measure},
	}
	names, builds := equivHybrids(t)
	workloads := map[string]*program.Program{
		"gcc":       program.MustLoad("gcc"),
		"swim":      program.MustLoad("swim"),
		"tpcc":      program.MustLoad("tpcc"),
		"gcc-trace": recordTrace(t, "gcc", 1000+777+measure),
	}
	cfg := DefaultConfig()
	for wl, p := range workloads {
		for _, opt := range windows {
			t.Run(fmt.Sprintf("%s/warmup%d", wl, opt.WarmupBranches), func(t *testing.T) {
				want := make([]Result, len(builds))
				for i, b := range builds {
					want[i] = runOracle(p, b(), cfg, opt)
				}
				for i, b := range builds {
					if got := RunMany(p, []*core.Hybrid{b()}, cfg, opt)[0]; !reflect.DeepEqual(got, want[i]) {
						t.Errorf("N=1 %s:\n got %+v\nwant %+v", names[i], got, want[i])
					}
				}
				for lo := 0; lo < len(builds); lo += 15 {
					hi := min(lo+15, len(builds))
					hs := make([]*core.Hybrid, 0, hi-lo)
					for _, b := range builds[lo:hi] {
						hs = append(hs, b())
					}
					for j, got := range RunMany(p, hs, cfg, opt) {
						if !reflect.DeepEqual(got, want[lo+j]) {
							t.Errorf("N=%d %s:\n got %+v\nwant %+v", len(hs), names[lo+j], got, want[lo+j])
						}
					}
				}
			})
		}
	}
}

// TestRunManyPastTraceEndPanicsLikeRun: a window longer than the
// recorded trace panics with the oracle's message.
func TestRunManyPastTraceEndPanicsLikeRun(t *testing.T) {
	p := recordTrace(t, "gcc", 3_000)
	opt := Options{WarmupBranches: 1000 + 777, MeasureBranches: 2_000}
	panicOf := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	want := panicOf(func() { runOracle(p, hybrid(4), DefaultConfig(), opt) })
	if want == nil {
		t.Fatal("oracle must panic past the trace's end")
	}
	for _, n := range []int{1, 15} {
		hs := make([]*core.Hybrid, n)
		for i := range hs {
			hs[i] = hybrid(4)
		}
		if got := panicOf(func() { RunMany(p, hs, DefaultConfig(), opt) }); got != want {
			t.Errorf("N=%d panic %v, want %v", n, got, want)
		}
	}
}

// TestChunkAllocatesNothing pins the steady state of the one-pass
// engine: filling a chunk's tape, stepping the lanes over it with
// verdicts on, and replaying it through every accountant allocates
// nothing.
func TestChunkAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig()
	p := program.MustLoad("gcc")
	tp := newTape(p, cfg)
	// A prophet alone, a filtered and an unfiltered critic, and a pair
	// sharing a prophet lane.
	unfiltered := func(fb uint) *core.Hybrid {
		return core.New(budget.MustLookup(budget.Gskew, 8).Build(), budget.MustLookup(budget.Perceptron, 8).Build(),
			core.Config{FutureBits: fb, BORLen: 18})
	}
	hs := []*core.Hybrid{alone(16), hybrid(8), hybrid(1), unfiltered(4)}
	lanes := core.PlanLanes(p, hs, chunkBranches)
	vs := lanes.Verdicts()
	accs := make([]*accountant, len(hs))
	for i, h := range hs {
		accs[i] = newAccountant(h, cfg, vs[i])
	}
	chunk := func() {
		tp.fill(chunkBranches)
		lanes.Step(tp.evs[:tp.n])
		for _, a := range accs {
			a.consume(tp)
		}
	}
	chunk()
	if n := testing.AllocsPerRun(20, chunk); n != 0 {
		t.Fatalf("steady-state chunk allocates %.1f times, want 0", n)
	}
}
