// Pipeline runs the full timing simulation (decoupled front-end, BTB,
// FTQ, caches, out-of-order backend) and reports uPC, flush distance and
// wrong-path fetch work — the Figure 9 / Figure 10 machinery on a single
// benchmark.
//
//	go run ./examples/pipeline [benchmark]
package main

import (
	"fmt"
	"os"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/core"
	"prophetcritic/internal/pipeline"
	"prophetcritic/internal/program"
)

func main() {
	bench := "gcc"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	prog, err := program.Load(bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := pipeline.DefaultConfig()
	opt := pipeline.Options{WarmupBranches: 60_000, MeasureBranches: 120_000}
	fmt.Println("workload:", prog)
	fmt.Printf("machine: %d-wide, %d-uop window, %d-cycle mispredict penalty\n\n",
		cfg.FetchWidth, cfg.WindowSize, cfg.MispredictPenalty)

	configs := []struct {
		name string
		h    func() *core.Hybrid
	}{
		{"16KB 2Bc-gskew alone", func() *core.Hybrid {
			return core.New(budget.MustLookup(budget.Gskew, 16).Build(), nil, core.Config{})
		}},
		{"8+8KB hybrid (1 future bit)", func() *core.Hybrid {
			return core.New(budget.MustLookup(budget.Gskew, 8).Build(),
				budget.MustLookup(budget.TaggedGshare, 8).Build(),
				core.Config{FutureBits: 1, Filtered: true, BORLen: 18})
		}},
		{"8+8KB hybrid (8 future bits)", func() *core.Hybrid {
			return core.New(budget.MustLookup(budget.Gskew, 8).Build(),
				budget.MustLookup(budget.TaggedGshare, 8).Build(),
				core.Config{FutureBits: 8, Filtered: true, BORLen: 18})
		}},
	}

	// One pass over the committed stream times every configuration: the
	// caches and the BTB are simulated once and shared.
	hs := make([]*core.Hybrid, len(configs))
	for i, c := range configs {
		hs[i] = c.h()
	}
	rs := pipeline.RunMany(prog, hs, cfg, opt)

	fmt.Printf("%-30s %7s %9s %10s %12s %10s %9s\n",
		"configuration", "uPC", "misp/Ku", "uops/flush", "wrong-path", "FTQ empty", "late crit")
	for i, c := range configs {
		r := rs[i]
		flushDist := 0.0
		if r.Mispredicts > 0 {
			flushDist = float64(r.Uops) / float64(r.Mispredicts)
		}
		fmt.Printf("%-30s %7.3f %9.3f %10.0f %11.1f%% %9.2f%% %8.2f%%\n",
			c.name, r.UPC(), r.MispPerKuops(), flushDist,
			float64(r.WrongPathUops)/float64(r.Uops)*100,
			r.FTQEmptyRate*100, r.LateCritique*100)
	}
}
