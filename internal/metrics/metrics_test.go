package metrics

import (
	"math"
	"strings"
	"testing"

	"prophetcritic/internal/core"
	"prophetcritic/internal/sim"
)

func mk(bench, suite string, misp, uops uint64) sim.Result {
	return sim.Result{Benchmark: bench, Suite: suite, FinalMisp: misp, Uops: uops, Branches: uops / 10}
}

func TestMeanVsPooled(t *testing.T) {
	rs := []sim.Result{
		mk("a", "X", 10, 1000),  // 10 misp/Ku
		mk("b", "Y", 10, 10000), // 1 misp/Ku
	}
	if got := MeanMispPerKuops(rs); got != 5.5 {
		t.Fatalf("mean = %f, want 5.5", got)
	}
	want := 20.0 / 11000 * 1000
	if got := PooledMispPerKuops(rs); math.Abs(got-want) > 1e-9 {
		t.Fatalf("pooled = %f, want %f", got, want)
	}
	// Empty input is "no data", which must be NaN — a 0 would read as a
	// perfect predictor.
	if !math.IsNaN(MeanMispPerKuops(nil)) || !math.IsNaN(MeanMispPerKuops([]sim.Result{})) {
		t.Fatal("empty mean must be NaN")
	}
	if !math.IsNaN(PooledMispPerKuops(nil)) {
		t.Fatal("empty pooled misp/Kuops must be NaN")
	}
	if !math.IsNaN(PooledMispPerKuops([]sim.Result{mk("a", "X", 0, 0)})) {
		t.Fatal("zero measured uops must be NaN, not a division by zero")
	}
}

func TestPooledUopsPerFlush(t *testing.T) {
	rs := []sim.Result{mk("a", "X", 5, 1000), mk("b", "X", 5, 1000)}
	if got := PooledUopsPerFlush(rs); got != 200 {
		t.Fatalf("uops/flush = %f, want 200", got)
	}
	if !math.IsInf(PooledUopsPerFlush([]sim.Result{mk("a", "X", 0, 1000)}), 1) {
		t.Fatal("no mispredicts means infinite flush distance")
	}
	if !math.IsNaN(PooledUopsPerFlush(nil)) {
		t.Fatal("no data means NaN, not an infinite flush distance")
	}
}

func TestReduction(t *testing.T) {
	if Reduction(2.0, 1.0) != 50 {
		t.Fatal("50% reduction expected")
	}
	if Reduction(1.0, 1.5) != -50 {
		t.Fatal("negative reduction for regressions")
	}
	// A zero baseline has no defined reduction; 0 would claim "no
	// improvement" where the question is meaningless.
	if !math.IsNaN(Reduction(0, 1)) {
		t.Fatal("zero base must yield NaN")
	}
}

func TestFmt(t *testing.T) {
	if got := Fmt(3.14159, 8, 2); got != "    3.14" {
		t.Fatalf("Fmt = %q", got)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := Fmt(v, 8, 2); got != "     n/a" {
			t.Fatalf("Fmt(%v) = %q, want right-aligned n/a", v, got)
		}
	}
	if got := Fmt(math.NaN(), 1, 1); got != "n/a" {
		t.Fatalf("Fmt small width = %q", got)
	}
}

func TestFind(t *testing.T) {
	rs := []sim.Result{mk("a", "X", 1, 100)}
	if _, err := Find(rs, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find(rs, "zzz"); err == nil {
		t.Fatal("missing benchmark must error")
	}
}

// Critique tallies must be sized by the exported class counts so a new
// critique class widens every array in lockstep.
func TestCritiqueArraySizing(t *testing.T) {
	if len(sim.Result{}.Critiques) != core.NumCritiques {
		t.Fatalf("sim.Result.Critiques holds %d classes, want core.NumCritiques = %d",
			len(sim.Result{}.Critiques), core.NumCritiques)
	}
	if len(core.Stats{}.Critiques) != core.NumCritiques {
		t.Fatalf("core.Stats.Critiques holds %d classes, want %d", len(core.Stats{}.Critiques), core.NumCritiques)
	}
	if core.NumExplicitCritiques != int(core.IncorrectDisagree)+1 {
		t.Fatal("explicit critique classes must be the prefix before the None classes")
	}
	// Every class, explicit and implicit, must have a paper name.
	for c := core.Critique(0); int(c) < core.NumCritiques; c++ {
		if s := c.String(); s == "" || strings.HasPrefix(s, "Critique(") {
			t.Errorf("critique class %d has no name", int(c))
		}
	}
}
