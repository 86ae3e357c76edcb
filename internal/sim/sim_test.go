package sim

import (
	"testing"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/core"
	"prophetcritic/internal/program"
)

var testOpt = Options{WarmupBranches: 80_000, MeasureBranches: 120_000}

func gskewAlone(kb int) Builder {
	return func() *core.Hybrid {
		return core.New(budget.MustLookup(budget.Gskew, kb).Build(), nil, core.Config{})
	}
}

func hybridGskewTagged(prophetKB, criticKB int, fb uint) Builder {
	return func() *core.Hybrid {
		p := budget.MustLookup(budget.Gskew, prophetKB).Build()
		c := budget.MustLookup(budget.TaggedGshare, criticKB).Build()
		return core.New(p, c, core.Config{FutureBits: fb, Filtered: true})
	}
}

func TestRunProducesSaneMetrics(t *testing.T) {
	p := program.MustLoad("gzip")
	h := gskewAlone(8)()
	r := Run(p, h, testOpt)
	if r.Branches != uint64(testOpt.MeasureBranches) {
		t.Fatalf("measured %d branches, want %d", r.Branches, testOpt.MeasureBranches)
	}
	if r.Uops < r.Branches*2 {
		t.Fatalf("uops (%d) implausibly low for %d branches", r.Uops, r.Branches)
	}
	if r.FinalMisp == 0 || r.FinalMisp > r.Branches/2 {
		t.Fatalf("mispredicts %d out of plausible range", r.FinalMisp)
	}
	if r.ProphetMisp != r.FinalMisp {
		t.Fatal("prophet-alone: prophet and final mispredicts must match")
	}
	if r.MispPerKuops() <= 0 || r.UopsPerFlush() <= 0 || r.MispRate() <= 0 {
		t.Fatal("derived metrics must be positive")
	}
}

func TestWarmupExcluded(t *testing.T) {
	p := program.MustLoad("gzip")
	// With warmup, measured accuracy must be better than measuring from
	// cold start (cold-start mispredicts excluded).
	warm := Run(p, gskewAlone(8)(), Options{WarmupBranches: 20_000, MeasureBranches: 30_000})
	cold := Run(program.MustLoad("gzip"), gskewAlone(8)(), Options{WarmupBranches: 0, MeasureBranches: 30_000})
	if warm.MispRate() >= cold.MispRate() {
		t.Fatalf("warmed-up run (%.4f) should beat cold run (%.4f)", warm.MispRate(), cold.MispRate())
	}
}

func TestDeterministicResults(t *testing.T) {
	a := Run(program.MustLoad("parser"), hybridGskewTagged(8, 8, 8)(), testOpt)
	b := Run(program.MustLoad("parser"), hybridGskewTagged(8, 8, 8)(), testOpt)
	if a != b {
		t.Fatalf("simulation must be deterministic:\n%+v\n%+v", a, b)
	}
}

// The paper's central claim, in miniature: an 8KB+8KB prophet/critic
// hybrid beats the 8KB prophet alone, and the critic reduces rather than
// increases mispredicts.
func TestHybridBeatsProphetAlone(t *testing.T) {
	for _, bench := range []string{"gcc", "gzip", "unzip", "msvc7"} {
		alone := Run(program.MustLoad(bench), gskewAlone(8)(), testOpt)
		hyb := Run(program.MustLoad(bench), hybridGskewTagged(8, 8, 1)(), testOpt)
		if hyb.FinalMisp >= alone.FinalMisp {
			t.Errorf("%s: hybrid (%d misp) must beat prophet alone (%d misp)", bench, hyb.FinalMisp, alone.FinalMisp)
		}
		if hyb.FinalMisp >= hyb.ProphetMisp {
			t.Errorf("%s: critic must reduce the prophet's mispredicts (%d -> %d)", bench, hyb.ProphetMisp, hyb.FinalMisp)
		}
	}
}

// Headline shape: the 8KB+8KB hybrid should also beat the *16KB* prophet
// alone (same total budget) on correlation-rich benchmarks, at this
// substrate's optimal future-bit count of 1 (see EXPERIMENTS.md).
func TestHybridBeatsEqualBudgetProphet(t *testing.T) {
	var aloneTotal, hybTotal uint64
	for _, bench := range []string{"gcc", "unzip", "crafty", "msvc7", "premiere"} {
		alone := Run(program.MustLoad(bench), gskewAlone(16)(), testOpt)
		hyb := Run(program.MustLoad(bench), hybridGskewTagged(8, 8, 1)(), testOpt)
		aloneTotal += alone.FinalMisp
		hybTotal += hyb.FinalMisp
	}
	if hybTotal >= aloneTotal {
		t.Fatalf("8KB+8KB hybrid (%d misp) must beat 16KB prophet alone (%d misp) in aggregate", hybTotal, aloneTotal)
	}
}

func TestFutureBitsHelp(t *testing.T) {
	// 1 future bit must beat 0 future bits (the conventional-hybrid
	// degenerate case) in aggregate, on the paper's Figure 5 pairing
	// (perceptron prophet + tagged gshare critic) over the benchmarks
	// where the first future bit carries the gain (EXPERIMENTS.md).
	build := func(fb uint) *core.Hybrid {
		return core.New(
			budget.MustLookup(budget.Perceptron, 8).Build(),
			budget.MustLookup(budget.TaggedGshare, 8).Build(),
			core.Config{FutureBits: fb, Filtered: true, BORLen: 18})
	}
	var fb0, fb1 uint64
	for _, bench := range []string{"flash", "unzip", "premiere", "facerec"} {
		r0 := Run(program.MustLoad(bench), build(0), testOpt)
		r1 := Run(program.MustLoad(bench), build(1), testOpt)
		fb0 += r0.FinalMisp
		fb1 += r1.FinalMisp
	}
	if fb1 >= fb0 {
		t.Fatalf("1 future bit (%d misp) must beat 0 future bits (%d misp)", fb1, fb0)
	}
}

func TestCritiqueDistributionRecorded(t *testing.T) {
	r := Run(program.MustLoad("gcc"), hybridGskewTagged(8, 8, 8)(), testOpt)
	if r.Critiques[core.CorrectNone] == 0 {
		t.Fatal("filtered critic must produce correct_none critiques")
	}
	if r.Critiques[core.IncorrectDisagree] == 0 {
		t.Fatal("critic must fix some mispredicts (incorrect_disagree)")
	}
	c, i, total := r.FilteredFrac()
	if total <= 0 || total > 1 || c < i {
		t.Fatalf("filtered fractions implausible: correct=%.3f incorrect=%.3f", c, i)
	}
}

func TestDefaultOptionsApplied(t *testing.T) {
	r := Run(program.MustLoad("gzip"), gskewAlone(2)(), Options{})
	if r.Branches != uint64(DefaultOptions.MeasureBranches) {
		t.Fatalf("zero options must fall back to defaults, measured %d", r.Branches)
	}
}
