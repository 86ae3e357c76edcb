// Shootout compares every predictor family at an equal hardware budget
// over the full workload inventory: the conventional zoo (gshare,
// 2Bc-gskew, perceptron, plus a McFarling tournament baseline) against
// equal-total-budget prophet/critic hybrids — the Figure 7 story.
//
//	go run ./examples/shootout [budgetKB]
package main

import (
	"fmt"
	"os"
	"strconv"

	"prophetcritic/internal/bimodal"
	"prophetcritic/internal/budget"
	"prophetcritic/internal/core"
	"prophetcritic/internal/gshare"
	"prophetcritic/internal/metrics"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
	"prophetcritic/internal/tournament"
)

func main() {
	kb := 16
	if len(os.Args) > 1 {
		if v, err := strconv.Atoi(os.Args[1]); err == nil {
			kb = v
		}
	}
	half := kb / 2
	opt := sim.Options{WarmupBranches: 100_000, MeasureBranches: 200_000}

	type entry struct {
		name  string
		build sim.Builder
	}
	entries := []entry{
		{fmt.Sprintf("%dKB gshare", kb), func() *core.Hybrid {
			return core.New(budget.MustLookup(budget.Gshare, kb).Build(), nil, core.Config{})
		}},
		{fmt.Sprintf("%dKB 2Bc-gskew", kb), func() *core.Hybrid {
			return core.New(budget.MustLookup(budget.Gskew, kb).Build(), nil, core.Config{})
		}},
		{fmt.Sprintf("%dKB perceptron", kb), func() *core.Hybrid {
			return core.New(budget.MustLookup(budget.Perceptron, kb).Build(), nil, core.Config{})
		}},
		{fmt.Sprintf("%dKB tournament(bimodal,gshare)", kb), func() *core.Hybrid {
			// A McFarling hybrid at the same budget: half bimodal, half
			// gshare, chooser folded in.
			bi := bimodal.New(uint(10+log2(kb)), 2)
			gs := budget.MustLookup(budget.Gshare, half).Build().(*gshare.Gshare)
			return core.New(tournament.New(bi, gs, 12, false, 0), nil, core.Config{})
		}},
		{fmt.Sprintf("%d+%dKB gskew + t.gshare (1fb)", half, half), func() *core.Hybrid {
			return core.New(
				budget.MustLookup(budget.Gskew, half).Build(),
				budget.MustLookup(budget.TaggedGshare, half).Build(),
				core.Config{FutureBits: 1, Filtered: true, BORLen: 18})
		}},
		{fmt.Sprintf("%d+%dKB gshare + f.perceptron (1fb)", half, half), func() *core.Hybrid {
			cc := budget.MustLookup(budget.FilteredPerceptron, half)
			return core.New(
				budget.MustLookup(budget.Gshare, half).Build(),
				cc.Build(),
				core.Config{FutureBits: 1, Filtered: true, BORLen: cc.BORSize()})
		}},
		{fmt.Sprintf("%d+%dKB perceptron + t.gshare (1fb)", half, half), func() *core.Hybrid {
			return core.New(
				budget.MustLookup(budget.Perceptron, half).Build(),
				budget.MustLookup(budget.TaggedGshare, half).Build(),
				core.Config{FutureBits: 1, Filtered: true, BORLen: 18})
		}},
	}

	// Every entry runs in one pass of each benchmark's committed stream.
	builds := make([]sim.Builder, len(entries))
	for i, e := range entries {
		builds[i] = e.build
	}
	progs := make([]*program.Program, 0, len(program.Names()))
	for _, n := range program.Names() {
		progs = append(progs, program.MustLoad(n))
	}
	matrix, err := sim.Matrix(builds, progs, opt, sim.ShardOptions{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("equal-budget shootout at %dKB over all benchmarks\n\n", kb)
	fmt.Printf("%-40s %12s %12s\n", "predictor", "mean misp/Ku", "uops/flush")
	for i, e := range entries {
		rs := matrix[i]
		fmt.Printf("%-40s %s %s\n", e.name, metrics.Fmt(metrics.MeanMispPerKuops(rs), 12, 3), metrics.Fmt(metrics.PooledUopsPerFlush(rs), 12, 0))
	}
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
