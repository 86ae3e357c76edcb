package repro

import (
	"testing"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/core"
	"prophetcritic/internal/metrics"
	"prophetcritic/internal/pipeline"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
)

// Integration tests exercising the whole stack — workload substrate,
// predictor zoo, prophet/critic core, functional and timing simulators —
// against the paper's qualitative claims. Windows are kept moderate so
// `go test ./...` stays under a few minutes; EXPERIMENTS.md holds the
// full-window numbers.

var integOpt = sim.Options{WarmupBranches: 100_000, MeasureBranches: 150_000}

func build(pk budget.Kind, pkb int, ck budget.Kind, ckb int, fb uint) sim.Builder {
	return func() *core.Hybrid {
		p := budget.MustLookup(pk, pkb).Build()
		if ckb == 0 {
			return core.New(p, nil, core.Config{})
		}
		cc := budget.MustLookup(ck, ckb)
		c := cc.Build()
		bor := cc.BORSize()
		if bor == 0 {
			bor = c.HistoryLen()
		}
		return core.New(p, c, core.Config{FutureBits: fb, Filtered: cc.IsCritic(), BORLen: bor})
	}
}

// runAll runs every builder over every benchmark through sim.Matrix:
// one result row per builder, in benchmark order.
func runAll(t *testing.T, builds ...sim.Builder) [][]sim.Result {
	t.Helper()
	var progs []*program.Program
	for _, n := range program.Names() {
		progs = append(progs, program.MustLoad(n))
	}
	rs, err := sim.Matrix(builds, progs, integOpt, sim.ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// Claim (abstract): the prophet/critic hybrid has fewer mispredicts than
// a 2Bc-gskew of the same total budget, and the distance between pipeline
// flushes grows.
func TestClaimHybridBeatsEqualBudgetGskew(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	rs := runAll(t, build(budget.Gskew, 16, "", 0, 0),
		build(budget.Gskew, 8, budget.TaggedGshare, 8, 1))
	base, hyb := rs[0], rs[1]
	b, h := metrics.PooledMispPerKuops(base), metrics.PooledMispPerKuops(hyb)
	if red := metrics.Reduction(b, h); red < 5 {
		t.Fatalf("hybrid must cut pooled mispredicts by at least 5%%, got %.1f%% (%.3f -> %.3f)", red, b, h)
	}
	if metrics.PooledUopsPerFlush(hyb) <= metrics.PooledUopsPerFlush(base) {
		t.Fatal("flush distance must grow with the hybrid")
	}
}

// Claim (§7.1): "adding just one future bit decreases the mispredict
// rate" — the fb=0 conventional-hybrid organisation loses to fb=1.
func TestClaimOneFutureBitHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	rs := runAll(t, build(budget.Perceptron, 8, budget.TaggedGshare, 8, 0),
		build(budget.Perceptron, 8, budget.TaggedGshare, 8, 1))
	fb0, fb1 := rs[0], rs[1]
	m0, m1 := metrics.MeanMispPerKuops(fb0), metrics.MeanMispPerKuops(fb1)
	// The paper reports ~15% for this step; on our substrate the
	// fully-context-tagged critic already captures most of it at 0 fb,
	// leaving a smaller but still positive margin (EXPERIMENTS.md Fig 5).
	if red := metrics.Reduction(m0, m1); red <= 0 {
		t.Fatalf("one future bit must not hurt mean misp/Kuops, got %.1f%% (%.3f -> %.3f)", red, m0, m1)
	}
}

// Claim (§7.2): larger critics give lower mispredict rates.
func TestClaimLargerCriticHelpsMore(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	rs := runAll(t, build(budget.Gskew, 4, budget.Perceptron, 2, 4),
		build(budget.Gskew, 4, budget.Perceptron, 32, 4))
	small, large := rs[0], rs[1]
	if metrics.MeanMispPerKuops(large) >= metrics.MeanMispPerKuops(small) {
		t.Fatalf("a 32KB critic (%.3f) must beat a 2KB critic (%.3f)",
			metrics.MeanMispPerKuops(large), metrics.MeanMispPerKuops(small))
	}
}

// Claim (§7.3): for a filtered critic, the number of incorrect_disagree
// critiques (fixes) exceeds correct_disagree (breakages).
func TestClaimFixesExceedBreakages(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	rs := runAll(t, build(budget.Perceptron, 4, budget.TaggedGshare, 8, 1))[0]
	var fix, breakage uint64
	for _, r := range rs {
		fix += r.Critiques[core.IncorrectDisagree]
		breakage += r.Critiques[core.CorrectDisagree]
	}
	if fix <= breakage {
		t.Fatalf("incorrect_disagree (%d) must exceed correct_disagree (%d)", fix, breakage)
	}
}

// Claim (§7.4): better prediction translates into higher uPC on the
// timing model.
func TestClaimUPCImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := pipeline.DefaultConfig()
	topt := pipeline.Options{WarmupBranches: 60_000, MeasureBranches: 100_000}
	var upcBase, upcHyb float64
	for _, bench := range []string{"gcc", "unzip", "flash", "facerec"} {
		p := program.MustLoad(bench)
		b := pipeline.Run(p, build(budget.Gskew, 16, "", 0, 0)(), cfg, topt)
		h := pipeline.Run(p, build(budget.Gskew, 8, budget.TaggedGshare, 8, 1)(), cfg, topt)
		upcBase += b.UPC()
		upcHyb += h.UPC()
	}
	if upcHyb <= upcBase {
		t.Fatalf("hybrid uPC (%.3f) must beat equal-budget conventional (%.3f) in aggregate", upcHyb/4, upcBase/4)
	}
}

// End-to-end determinism: the entire stack (generation, prediction,
// timing) must be bit-for-bit reproducible.
func TestEndToEndDeterminism(t *testing.T) {
	run := func() (sim.Result, pipeline.Result) {
		p := program.MustLoad("crafty")
		f := sim.Run(p, build(budget.Gskew, 8, budget.TaggedGshare, 8, 8)(), sim.Options{WarmupBranches: 10_000, MeasureBranches: 20_000})
		tm := pipeline.Run(program.MustLoad("crafty"), build(budget.Gskew, 8, budget.TaggedGshare, 8, 8)(), pipeline.DefaultConfig(), pipeline.Options{WarmupBranches: 5_000, MeasureBranches: 10_000})
		return f, tm
	}
	f1, t1 := run()
	f2, t2 := run()
	if f1 != f2 {
		t.Fatal("functional simulation must be deterministic end to end")
	}
	if t1 != t2 {
		t.Fatal("timing simulation must be deterministic end to end")
	}
}
