package experiments

import (
	"fmt"
	"io"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/metrics"
	"prophetcritic/internal/pipeline"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
)

func meanUPC(rs []pipeline.Result) float64 {
	var sum float64
	for _, r := range rs {
		sum += r.UPC()
	}
	return sum / float64(len(rs))
}

// fig9FutureBits is the future-bit sweep shared by Figures 9 and 10.
var fig9FutureBits = []uint{1, 4, 8, 12}

// Fig9 reports average uPC for 16KB conventional predictors against
// 8KB+8KB prophet/critic hybrids using 1, 4, 8 and 12 future bits (the
// paper plots 4/8/12; 1 is added because this reproduction's workloads
// peak earlier — see EXPERIMENTS.md). All 15 timing configurations × all
// benchmarks run as one concurrent matrix.
func Fig9(w io.Writer, opt Options) error {
	prophetKinds, err := opt.ProphetKinds([]budget.Kind{budget.Gshare, budget.Gskew, budget.Perceptron})
	if err != nil {
		return err
	}
	if err := validateKindBudgets(prophetKinds, 16, 8); err != nil {
		return err
	}
	var specs []timingSpec
	for _, pk := range prophetKinds {
		specs = append(specs, timingSpec{pk, 16, "", 0, 0})
		for _, fb := range fig9FutureBits {
			specs = append(specs, timingSpec{pk, 8, budget.TaggedGshare, 8, fb})
		}
	}
	progs, err := opt.Programs(program.Names())
	if err != nil {
		return err
	}
	matrix, err := runTimingMatrix(specs, progs, opt)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Figure 9. Average uPC: 16KB prophet alone vs 8KB+8KB prophet/critic (tagged gshare critic).")
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s %10s\n", "prophet", "16KB alone", "1 fb", "4 fb", "8 fb", "12 fb")
	i := 0
	for _, pk := range prophetKinds {
		fmt.Fprintf(w, "%-12s %10.3f", pk, meanUPC(matrix[i]))
		i++
		for range fig9FutureBits {
			fmt.Fprintf(w, " %10.3f", meanUPC(matrix[i]))
			i++
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig10 reports per-suite uPC for the 2Bc-gskew + tagged gshare hybrid.
func Fig10(w io.Writer, opt Options) error {
	specs := []timingSpec{{budget.Gskew, 16, "", 0, 0}}
	for _, fb := range fig9FutureBits {
		specs = append(specs, timingSpec{budget.Gskew, 8, budget.TaggedGshare, 8, fb})
	}
	progs, err := opt.Programs(program.Names())
	if err != nil {
		return err
	}
	matrix, err := runTimingMatrix(specs, progs, opt)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Figure 10. Average uPC per suite (prophet: 8KB 2Bc-gskew; critic: 8KB tagged gshare).")
	fmt.Fprintf(w, "%-8s %10s %10s %10s %10s %10s\n", "suite", "16KB alone", "1 fb", "4 fb", "8 fb", "12 fb")
	perSuite := map[string][]float64{} // suite -> [alone, fb1, fb4, fb8, fb12]
	counts := map[string]int{}
	add := func(col int, rs []pipeline.Result) {
		for _, r := range rs {
			if perSuite[r.Suite] == nil {
				perSuite[r.Suite] = make([]float64, 5)
			}
			perSuite[r.Suite][col] += r.UPC()
			if col == 0 {
				counts[r.Suite]++
			}
		}
	}
	for col, rs := range matrix {
		add(col, rs)
	}
	for _, s := range program.SuiteOrder {
		if counts[s] == 0 {
			continue
		}
		fmt.Fprintf(w, "%-8s", s)
		for col := 0; col < 5; col++ {
			fmt.Fprintf(w, " %10.3f", perSuite[s][col]/float64(counts[s]))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Headline reproduces the abstract's comparison: an 8KB+8KB 2Bc-gskew +
// tagged gshare prophet/critic hybrid against a 16KB 2Bc-gskew, reporting
// the mispredict reduction, the distance between pipeline flushes, gcc's
// mispredict rate, uPC, and uops fetched along both paths. The functional
// matrix (baseline + three future-bit candidates) runs concurrently, then
// the timing matrix for the winning configuration.
func Headline(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Headline (abstract): 8KB+8KB 2Bc-gskew + tagged gshare vs 16KB 2Bc-gskew.")

	headlineFBs := []uint{1, 4, 8}
	builds := []sim.Builder{hybridBuilder(budget.Gskew, 16, "", 0, 0, false)}
	for _, fb := range headlineFBs {
		builds = append(builds, hybridBuilder(budget.Gskew, 8, budget.TaggedGshare, 8, fb, false))
	}
	progs, err := opt.Programs(benchmarkNames())
	if err != nil {
		return err
	}
	matrix, err := sim.Matrix(builds, progs, opt.Functional, opt.Shards)
	if err != nil {
		return err
	}
	baseRs := matrix[0]
	bestFB, bestRs := uint(0), baseRs
	bestMisp := 1e18
	for i, fb := range headlineFBs {
		rs := matrix[i+1]
		if m := metrics.PooledMispPerKuops(rs); m < bestMisp {
			bestMisp, bestFB, bestRs = m, fb, rs
		}
	}

	basePooled := metrics.PooledMispPerKuops(baseRs)
	fmt.Fprintf(w, "  pooled misp/Kuops:      %.3f -> %.3f  (%s%% fewer mispredicts, best at %d future bits)\n",
		basePooled, bestMisp, metrics.Fmt(metrics.Reduction(basePooled, bestMisp), 1, 1), bestFB)
	fmt.Fprintf(w, "  uops between flushes:   %s -> %s\n",
		metrics.Fmt(metrics.PooledUopsPerFlush(baseRs), 1, 0),
		metrics.Fmt(metrics.PooledUopsPerFlush(bestRs), 1, 0))

	// gcc's headline rows only exist when gcc is in the workload set
	// (it is not when -trace overrides the benchmarks).
	gccBase, errBase := metrics.Find(baseRs, "gcc")
	gccHyb, errHyb := metrics.Find(bestRs, "gcc")
	if errBase == nil && errHyb == nil {
		fmt.Fprintf(w, "  gcc mispredicted:       %.2f%% -> %.2f%% of branches\n",
			gccBase.MispRate()*100, gccHyb.MispRate()*100)
	}

	timing, err := runTimingMatrix([]timingSpec{
		{budget.Gskew, 16, "", 0, 0},
		{budget.Gskew, 8, budget.TaggedGshare, 8, bestFB},
	}, progs, opt)
	if err != nil {
		return err
	}
	baseT, hybT := timing[0], timing[1]
	var baseFetched, hybFetched uint64
	gccBaseU, gccHybU := 0.0, 0.0
	for i := range baseT {
		baseFetched += baseT[i].FetchedUops()
		hybFetched += hybT[i].FetchedUops()
		if baseT[i].Benchmark == "gcc" {
			gccBaseU, gccHybU = baseT[i].UPC(), hybT[i].UPC()
		}
	}
	up0, up1 := meanUPC(baseT), meanUPC(hybT)
	fmt.Fprintf(w, "  average uPC:            %.3f -> %.3f  (%+.1f%%)\n", up0, up1, (up1/up0-1)*100)
	if gccBaseU > 0 {
		fmt.Fprintf(w, "  gcc uPC:                %.3f -> %.3f  (%+.1f%%)\n", gccBaseU, gccHybU, (gccHybU/gccBaseU-1)*100)
	}
	fmt.Fprintf(w, "  uops fetched (both paths): %d -> %d  (%+.1f%%)\n",
		baseFetched, hybFetched, (float64(hybFetched)/float64(baseFetched)-1)*100)
	return nil
}
