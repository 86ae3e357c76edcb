// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation as a testing.B benchmark, using the
// Fast measurement windows (see EXPERIMENTS.md for full-window results):
//
//	go test -bench=. -benchmem
//
// Each benchmark reports domain metrics via b.ReportMetric in addition to
// wall-clock time: misp/Kuops for accuracy experiments, uPC for the
// performance experiments.
package repro

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/core"
	"prophetcritic/internal/experiments"
	"prophetcritic/internal/metrics"
	"prophetcritic/internal/pipeline"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
	"prophetcritic/internal/trace"
)

// runExperiment drives one registered experiment end to end per iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, experiments.Fast); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1SuiteInventory(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkTable2MachineConfig(b *testing.B)  { runExperiment(b, "table2") }
func BenchmarkTable3Budgets(b *testing.B)        { runExperiment(b, "table3") }
func BenchmarkTable4FilterRates(b *testing.B)    { runExperiment(b, "table4") }

func BenchmarkFig5FutureBits(b *testing.B)                { runExperiment(b, "fig5") }
func BenchmarkFig6aGskewPerceptron(b *testing.B)          { runExperiment(b, "fig6a") }
func BenchmarkFig6bGshareFilteredPerceptron(b *testing.B) { runExperiment(b, "fig6b") }
func BenchmarkFig6cPerceptronTaggedGshare(b *testing.B)   { runExperiment(b, "fig6c") }
func BenchmarkFig7a16KB(b *testing.B)                     { runExperiment(b, "fig7a") }
func BenchmarkFig7b32KB(b *testing.B)                     { runExperiment(b, "fig7b") }
func BenchmarkFig8CritiqueDistribution(b *testing.B)      { runExperiment(b, "fig8") }
func BenchmarkFig9UPC(b *testing.B)                       { runExperiment(b, "fig9") }
func BenchmarkFig10UPCSuites(b *testing.B)                { runExperiment(b, "fig10") }
func BenchmarkHeadline(b *testing.B)                      { runExperiment(b, "headline") }

// ---- microbenchmarks of the core machinery ----

// BenchmarkHybridPredictResolve measures the per-branch cost of the
// 8KB+8KB hybrid including the 8-future-bit CFG walk.
func BenchmarkHybridPredictResolve(b *testing.B) {
	prog := program.MustLoad("gcc")
	h := core.New(
		budget.MustLookup(budget.Gskew, 8).Build(),
		budget.MustLookup(budget.TaggedGshare, 8).Build(),
		core.Config{FutureBits: 8, Filtered: true, BORLen: 18})
	run := prog.NewRun()
	walk := core.WalkFunc(prog.Walk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := run.CurrentAddr()
		pr := h.Predict(addr, walk)
		ev := run.Next()
		h.Resolve(pr, ev.Taken)
	}
}

// BenchmarkProphetAlone is the conventional-predictor baseline cost.
func BenchmarkProphetAlone(b *testing.B) {
	prog := program.MustLoad("gcc")
	h := core.New(budget.MustLookup(budget.Gskew, 16).Build(), nil, core.Config{})
	run := prog.NewRun()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := run.CurrentAddr()
		pr := h.Predict(addr, nil)
		ev := run.Next()
		h.Resolve(pr, ev.Taken)
	}
}

// BenchmarkFunctionalSimGcc reports misp/Kuops for the headline hybrid as
// a custom metric.
func BenchmarkFunctionalSimGcc(b *testing.B) {
	prog := program.MustLoad("gcc")
	opt := sim.Options{WarmupBranches: 20_000, MeasureBranches: 50_000}
	var last sim.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := core.New(
			budget.MustLookup(budget.Gskew, 8).Build(),
			budget.MustLookup(budget.TaggedGshare, 8).Build(),
			core.Config{FutureBits: 1, Filtered: true, BORLen: 18})
		last = sim.Run(prog, h, opt)
	}
	b.ReportMetric(last.MispPerKuops(), "misp/Kuops")
}

// BenchmarkTimingSimGcc reports uPC as a custom metric.
func BenchmarkTimingSimGcc(b *testing.B) {
	prog := program.MustLoad("gcc")
	opt := pipeline.Options{WarmupBranches: 10_000, MeasureBranches: 30_000}
	var last pipeline.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := core.New(
			budget.MustLookup(budget.Gskew, 8).Build(),
			budget.MustLookup(budget.TaggedGshare, 8).Build(),
			core.Config{FutureBits: 1, Filtered: true, BORLen: 18})
		last = pipeline.Run(prog, h, pipeline.DefaultConfig(), opt)
	}
	b.ReportMetric(last.UPC(), "uPC")
}

// ---- ablation benches for the design choices DESIGN.md calls out ----

// BenchmarkAblationFilteredVsUnfiltered compares the filtered critic
// protocol against criticizing every branch, reporting both rates.
func BenchmarkAblationFilteredVsUnfiltered(b *testing.B) {
	prog := program.MustLoad("gcc")
	opt := sim.Options{WarmupBranches: 20_000, MeasureBranches: 50_000}
	var filtered, unfiltered sim.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hf := core.New(budget.MustLookup(budget.Gskew, 8).Build(),
			budget.MustLookup(budget.TaggedGshare, 8).Build(),
			core.Config{FutureBits: 8, Filtered: true, BORLen: 18})
		filtered = sim.Run(prog, hf, opt)
		hu := core.New(budget.MustLookup(budget.Gskew, 8).Build(),
			budget.MustLookup(budget.Perceptron, 8).Build(),
			core.Config{FutureBits: 8, BORLen: 28})
		unfiltered = sim.Run(prog, hu, opt)
	}
	b.ReportMetric(filtered.MispPerKuops(), "filtered-misp/Ku")
	b.ReportMetric(unfiltered.MispPerKuops(), "unfiltered-misp/Ku")
}

// BenchmarkAblationFutureBits reports the fb=0 vs fb=1 delta — the
// paper's key mechanism — as custom metrics.
func BenchmarkAblationFutureBits(b *testing.B) {
	opt := sim.Options{WarmupBranches: 20_000, MeasureBranches: 50_000}
	mk := func(fb uint) sim.Builder {
		return func() *core.Hybrid {
			return core.New(budget.MustLookup(budget.Gskew, 8).Build(),
				budget.MustLookup(budget.TaggedGshare, 8).Build(),
				core.Config{FutureBits: fb, Filtered: true, BORLen: 18})
		}
	}
	progs := []*program.Program{program.MustLoad("gcc"), program.MustLoad("unzip"), program.MustLoad("flash")}
	var m0, m1 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := sim.Matrix([]sim.Builder{mk(0), mk(1)}, progs, opt, sim.ShardOptions{})
		if err != nil {
			b.Fatal(err)
		}
		m0, m1 = metrics.MeanMispPerKuops(rs[0]), metrics.MeanMispPerKuops(rs[1])
	}
	b.ReportMetric(m0, "fb0-misp/Ku")
	b.ReportMetric(m1, "fb1-misp/Ku")
}

// ---- one-pass multi-predictor engine ----

// runManyWindow is the shared window of the engine benchmarks: large
// enough that trace decode and predictor work both register, small
// enough for a paired benchmark to take 25 pairs in seconds.
var runManyWindow = sim.Options{WarmupBranches: 20_000, MeasureBranches: 50_000}

// runManyBuilders returns n prophet-alone configurations — bimodal at
// 1..n KB, so per-branch predictor cost stays uniform (and near the
// family floor) and the N-scaling of the one-pass engine is what's
// measured.
func runManyBuilders(b *testing.B, n int) []sim.Builder {
	b.Helper()
	builds := make([]sim.Builder, n)
	for i := range builds {
		cfg, err := budget.Resolve(budget.Bimodal, i+1)
		if err != nil {
			b.Fatal(err)
		}
		builds[i] = func() *core.Hybrid { return core.New(cfg.Build(), nil, core.Config{}) }
	}
	return builds
}

// recordedGcc records a gcc trace covering runManyWindow and reloads it
// as a replay workload, so the benches measure the regime the result
// cache and batch API target: stream decode shared, predictors resident.
func recordedGcc(b *testing.B) *program.Program {
	b.Helper()
	p := program.MustLoad("gcc")
	path := filepath.Join(b.TempDir(), "gcc.trc")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := trace.Record(p, runManyWindow.WarmupBranches, runManyWindow.MeasureBranches, f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	tp, err := trace.Load(path)
	if err != nil {
		b.Fatal(err)
	}
	return tp
}

// BenchmarkManyStepperStep measures the one-pass inner loop per branch
// with 8 resident hybrids. TestManyStepperMeasureZeroAllocs in
// internal/sim holds the same shape at 0 allocs.
func BenchmarkManyStepperStep(b *testing.B) {
	prog := program.MustLoad("gcc")
	builds := runManyBuilders(b, 8)
	hs := make([]*core.Hybrid, len(builds))
	for i, mk := range builds {
		hs[i] = mk()
	}
	st := sim.NewManyStepper(prog, hs)
	defer st.Close()
	st.Train(runManyWindow.WarmupBranches)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Measure(1)
	}
}

// hotPathBuilders returns n copies of the paper's headline hybrid — a
// gskew prophet with a filtered tagged-gshare critic at 8 future bits —
// at prophet/critic budgets cycling 2/4/8/16 KB, so the N=8 mix spans
// the Table 3 budget column instead of hammering one table size.
func hotPathBuilders(b *testing.B, n int) []sim.Builder {
	b.Helper()
	kbs := []int{2, 4, 8, 16}
	builds := make([]sim.Builder, n)
	for i := range builds {
		kb := kbs[i%len(kbs)]
		builds[i] = func() *core.Hybrid {
			cc := budget.MustLookup(budget.TaggedGshare, kb)
			return core.New(budget.MustLookup(budget.Gskew, kb).Build(), cc.Build(),
				core.Config{FutureBits: 8, Filtered: true, BORLen: cc.BORSize()})
		}
	}
	return builds
}

// BenchmarkStepperStep measures the single-hybrid block loop per
// branch: a one-hybrid ManyStepper, the engine every Run, RunSegment
// and single-spec service job takes. TestManyStepperMeasureZeroAllocs
// in internal/sim holds the same shape at 0 allocs and one prophet
// lane.
func BenchmarkStepperStep(b *testing.B) {
	prog := program.MustLoad("gcc")
	st := sim.NewManyStepper(prog, []*core.Hybrid{hotPathBuilders(b, 1)[0]()})
	defer st.Close()
	st.Train(runManyWindow.WarmupBranches)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Measure(1)
	}
}

// ---- paired gates ----
//
// A paired benchmark times the two sides of one comparison back to
// back in every iteration, so load drift on a shared host hits both
// alike, and fails itself when the median ratio crosses the gate
// declared next to it:
//
//	go test -run '^$' -bench Paired -benchtime=25x .

// minGatedPairs is the fewest pairs a paired benchmark gates on, so
// the b.N=1 probe of -bench . cannot fail on a few pairs.
const minGatedPairs = 10

// pairedRatio runs pairsPerOp pairs of num and den per iteration and
// reports the median of the per-pair ratios num/den as unit. It
// alternates which side runs first: on a 2-vCPU VM the first side of a
// pair pays about 2-3%, which alone would move a 1.02 gate. gated
// reports whether there were at least minGatedPairs pairs.
func pairedRatio(b *testing.B, unit string, pairsPerOp int, num, den func()) (median float64, gated bool) {
	b.Helper()
	timed := func(f func()) float64 {
		s := time.Now()
		f()
		return float64(time.Since(s))
	}
	ratios := make([]float64, pairsPerOp*b.N)
	b.ResetTimer()
	for i := range ratios {
		var tNum, tDen float64
		if i%2 == 0 {
			tNum = timed(num)
			tDen = timed(den)
		} else {
			tDen = timed(den)
			tNum = timed(num)
		}
		ratios[i] = tNum / tDen
	}
	b.StopTimer()
	slices.Sort(ratios)
	n := len(ratios)
	median = (ratios[(n-1)/2] + ratios[n/2]) / 2
	b.ReportMetric(median, unit)
	return median, n >= minGatedPairs
}

// runManyN8Max bounds one RunMany pass of 8 resident predictors over
// the recorded gcc trace, in single-predictor passes: decode is shared
// once, so seven extra resident predictors must cost well under two
// extra passes.
const runManyN8Max = 3.0

// BenchmarkPairedRunManyN8OverSingle pairs one N=8 RunMany over the
// recorded gcc trace with one single-predictor pass and gates n8/n1
// below runManyN8Max.
func BenchmarkPairedRunManyN8OverSingle(b *testing.B) {
	prog := recordedGcc(b)
	b8, b1 := runManyBuilders(b, 8), runManyBuilders(b, 1)
	r, gated := pairedRatio(b, "n8/n1", 1,
		func() { sim.RunMany(prog, b8, runManyWindow) },
		func() { sim.RunMany(prog, b1, runManyWindow) })
	if gated && r >= runManyN8Max {
		b.Fatalf("RunMany N=8 takes %.2fx a single pass (median of %d pairs), must be < %.1fx", r, b.N, runManyN8Max)
	}
}

// runEngine runs one fresh hybrid per builder over prog's runManyWindow
// in a single pass — on the lanes (sim.RunManySegment), or with oracle
// set on a branch-at-a-time Predict/Resolve loop through the predictor
// interfaces: the oracle the lanes replaced, kept here only as the
// baseline of BenchmarkPairedLanesOverOracle.
func runEngine(prog *program.Program, builds []sim.Builder, oracle bool) {
	hs := make([]*core.Hybrid, len(builds))
	for i, mk := range builds {
		hs[i] = mk()
	}
	if !oracle {
		sim.RunManySegment(prog, hs, 0, runManyWindow.WarmupBranches, runManyWindow.MeasureBranches)
		return
	}
	run := prog.NewRun()
	walk := core.WalkFunc(prog.Walk)
	for i := runManyWindow.WarmupBranches + runManyWindow.MeasureBranches; i > 0; i-- {
		addr := run.CurrentAddr()
		taken := run.Next().Taken
		for _, h := range hs {
			h.Resolve(h.Predict(addr, walk), taken)
		}
	}
}

// lanesOverOracleMin is how many times faster than the Predict/Resolve
// loop the prophet/critic lanes must run the N=8 headline-hybrid mix.
const lanesOverOracleMin = 1.3

// BenchmarkPairedLanesOverOracle pairs the N=8 headline-hybrid mix over
// the recorded gcc trace on the Predict/Resolve loop with the same mix
// on the lanes, and gates oracle/lanes at or above lanesOverOracleMin.
func BenchmarkPairedLanesOverOracle(b *testing.B) {
	prog := recordedGcc(b)
	builds := hotPathBuilders(b, 8)
	r, gated := pairedRatio(b, "oracle/lanes", 1,
		func() { runEngine(prog, builds, true) },
		func() { runEngine(prog, builds, false) })
	if gated && r < lanesOverOracleMin {
		b.Fatalf("the lanes run only %.2fx the Predict/Resolve loop (median of %d pairs), must be >= %.1fx", r, b.N, lanesOverOracleMin)
	}
}

// obsOverheadMax bounds what the sampled throughput counters cost the
// simulator: a gcc window with obs on may take at most 2% longer than
// with obs off.
const obsOverheadMax = 1.02

// obsPairsPerOp sets how many pairs of ~5 ms windows one iteration
// takes. On a 2-vCPU VM the median of 25 such pairs spreads by about
// 1.3% between runs, too close to a 2% gate; 100 pairs narrow that to
// about 0.6%.
const obsPairsPerOp = 4

// BenchmarkPairedObsOverhead pairs one single-predictor gcc window with
// obs on with the same window with obs off, and gates on/off at or
// below obsOverheadMax.
func BenchmarkPairedObsOverhead(b *testing.B) {
	prog := program.MustLoad("gcc")
	mk := runManyBuilders(b, 1)[0]
	defer sim.EnableObs(false)
	r, gated := pairedRatio(b, "on/off", obsPairsPerOp,
		func() { sim.EnableObs(true); sim.Run(prog, mk(), runManyWindow) },
		func() { sim.EnableObs(false); sim.Run(prog, mk(), runManyWindow) })
	if gated && r > obsOverheadMax {
		b.Fatalf("obs on takes %.3fx obs off (median of %d pairs), must be <= %.2fx", r, obsPairsPerOp*b.N, obsOverheadMax)
	}
}
