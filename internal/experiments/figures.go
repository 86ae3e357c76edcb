package experiments

import (
	"fmt"
	"io"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/core"
	"prophetcritic/internal/metrics"
	"prophetcritic/internal/sim"
)

// fig5Benchmarks are the six benchmarks the paper selects to show the
// different future-bit sensitivities.
var fig5Benchmarks = []string{"unzip", "premiere", "msvc7", "flash", "facerec", "tpcc"}

// fig5FutureBits is the sweep of Figure 5.
var fig5FutureBits = []uint{0, 1, 4, 8, 12}

// Fig5 sweeps the number of future bits for an 8KB perceptron prophet
// with an 8KB tagged gshare critic on the six selected benchmarks. The
// full (future bits × benchmark) matrix runs concurrently.
func Fig5(w io.Writer, opt Options) error {
	builds := make([]sim.Builder, len(fig5FutureBits))
	for i, fb := range fig5FutureBits {
		builds[i] = hybridBuilder(budget.Perceptron, 8, budget.TaggedGshare, 8, fb, false)
	}
	progs, err := opt.Programs(fig5Benchmarks)
	if err != nil {
		return err
	}
	rs, err := sim.Matrix(builds, progs, opt.Functional, opt.Shards)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Figure 5. misp/Kuops vs number of future bits")
	fmt.Fprintln(w, "(prophet: 8KB perceptron; critic: 8KB tagged gshare).")
	fmt.Fprintf(w, "%-10s", "bench")
	for _, fb := range fig5FutureBits {
		fmt.Fprintf(w, " %8dfb", fb)
	}
	fmt.Fprintln(w)
	avg := make([]float64, len(fig5FutureBits))
	for bi, p := range progs {
		fmt.Fprintf(w, "%-10s", p.Name)
		for i := range fig5FutureBits {
			m := rs[i][bi].MispPerKuops()
			avg[i] += m
			fmt.Fprintf(w, " %10.3f", m)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s", "AVG")
	for i := range fig5FutureBits {
		fmt.Fprintf(w, " %10.3f", avg[i]/float64(len(progs)))
	}
	fmt.Fprintln(w)
	return nil
}

// fig6 runs one Figure 6 subfigure: a prophet family against a critic
// family over prophet sizes {4,16}KB × critic sizes {2,8,32}KB × future
// bits {none,1,4,8,12}, mean misp/Kuops over all benchmarks. All 26
// configurations × all benchmarks execute as one concurrent job matrix.
func fig6(w io.Writer, opt Options, title string, prophetKind budget.Kind, criticKind budget.Kind, unfiltered bool) error {
	means, err := meanMispMatrix(fig6Builds(prophetKind, criticKind, unfiltered), opt)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-26s %9s %9s %9s %9s %9s\n", "configuration", "no critic", "1 fb", "4 fb", "8 fb", "12 fb")
	i := 0
	for _, pkb := range fig6ProphetKBs {
		alone := means[i]
		i++
		for _, ckb := range fig6CriticKBs {
			fmt.Fprintf(w, "%2dKB prophet + %2dKB critic %9.3f", pkb, ckb, alone)
			for range fig6FutureBits {
				fmt.Fprintf(w, " %9.3f", means[i])
				i++
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// The Figure 6 axes.
var (
	fig6ProphetKBs = []int{4, 16}
	fig6CriticKBs  = []int{2, 8, 32}
	fig6FutureBits = []uint{1, 4, 8, 12}
)

// fig6Builds returns a Figure 6 subfigure's 26 configurations in table
// order: per prophet size, the prophet alone, then each critic size at
// each future-bit count.
func fig6Builds(prophetKind, criticKind budget.Kind, unfiltered bool) []sim.Builder {
	var builds []sim.Builder
	for _, pkb := range fig6ProphetKBs {
		builds = append(builds, hybridBuilder(prophetKind, pkb, "", 0, 0, false))
		for _, ckb := range fig6CriticKBs {
			for _, fb := range fig6FutureBits {
				builds = append(builds, hybridBuilder(prophetKind, pkb, criticKind, ckb, fb, unfiltered))
			}
		}
	}
	return builds
}

// Fig6a is 2Bc-gskew + unfiltered perceptron.
func Fig6a(w io.Writer, opt Options) error {
	return fig6(w, opt, "Figure 6(a). Prophet: 2Bc-gskew; Critic: perceptron (unfiltered). Mean misp/Kuops.",
		budget.Gskew, budget.Perceptron, true)
}

// Fig6b is gshare + filtered perceptron.
func Fig6b(w io.Writer, opt Options) error {
	return fig6(w, opt, "Figure 6(b). Prophet: gshare; Critic: filtered perceptron. Mean misp/Kuops.",
		budget.Gshare, budget.FilteredPerceptron, false)
}

// Fig6c is perceptron + tagged gshare.
func Fig6c(w io.Writer, opt Options) error {
	return fig6(w, opt, "Figure 6(c). Prophet: perceptron; Critic: tagged gshare. Mean misp/Kuops.",
		budget.Perceptron, budget.TaggedGshare, false)
}

// fig7 compares conventional predictors at kb KB against half-size
// prophets paired with half-size critics, at the paper's 8 future bits
// and at this reproduction's optimum of 1 future bit. The prophet kind
// set is overridable with Options.Kinds, opening the comparison to any
// registered family (solver-sized at these budgets when off-table).
func fig7(w io.Writer, opt Options, kb int) error {
	half := kb / 2
	prophetKinds, err := opt.ProphetKinds([]budget.Kind{budget.Gshare, budget.Gskew, budget.Perceptron})
	if err != nil {
		return err
	}
	if err := validateKindBudgets(prophetKinds, kb, half); err != nil {
		return err
	}
	criticKinds := []budget.Kind{budget.FilteredPerceptron, budget.TaggedGshare}

	var builds []sim.Builder
	for _, pk := range prophetKinds {
		builds = append(builds, hybridBuilder(pk, kb, "", 0, 0, false))
		for _, ck := range criticKinds {
			builds = append(builds, hybridBuilder(pk, half, ck, half, 8, false))
			builds = append(builds, hybridBuilder(pk, half, ck, half, 1, false))
		}
	}
	means, err := meanMispMatrix(builds, opt)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Figure 7 (%dKB). Mean misp/Kuops; reductions relative to the %dKB conventional predictor.\n", kb, kb)
	fmt.Fprintf(w, "%-34s %9s %11s %11s\n", "configuration", "misp/Ku", "red.@8fb", "red.@1fb")
	i := 0
	for _, pk := range prophetKinds {
		base := means[i]
		i++
		fmt.Fprintf(w, "%2dKB %-29s %9.3f %11s %11s\n", kb, pk, base, "-", "-")
		for _, ck := range criticKinds {
			m8 := means[i]
			i++
			m1 := means[i]
			i++
			fmt.Fprintf(w, "  %dKB %s + %dKB %-14s %9.3f %s%% %s%%\n",
				half, pk, half, ck, m8,
				metrics.Fmt(metrics.Reduction(base, m8), 10, 1),
				metrics.Fmt(metrics.Reduction(base, m1), 10, 1))
		}
	}
	return nil
}

// Fig7a is the 16KB comparison; Fig7b the 32KB one.
func Fig7a(w io.Writer, opt Options) error { return fig7(w, opt, 16) }
func Fig7b(w io.Writer, opt Options) error { return fig7(w, opt, 32) }

// fig8FutureBits is the sweep of Figure 8.
var fig8FutureBits = []uint{1, 4, 8, 12}

// Fig8 prints the distribution of explicit critiques as the number of
// future bits varies (prophet: 4KB perceptron; critic: 8KB tagged
// gshare), pooled over all benchmarks.
func Fig8(w io.Writer, opt Options) error {
	builds := make([]sim.Builder, len(fig8FutureBits))
	for i, fb := range fig8FutureBits {
		builds[i] = hybridBuilder(budget.Perceptron, 4, budget.TaggedGshare, 8, fb, false)
	}
	progs, err := opt.Programs(benchmarkNames())
	if err != nil {
		return err
	}
	rs, err := sim.Matrix(builds, progs, opt.Functional, opt.Shards)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Figure 8. Distribution of critiques (prophet: 4KB perceptron; critic: 8KB tagged gshare).")
	fmt.Fprintf(w, "%-4s %14s %16s %15s %18s %12s\n", "fb", "correct_agree", "correct_disagree", "incorrect_agree", "incorrect_disagree", "total")
	for i, fb := range fig8FutureBits {
		// Pool the explicit critique classes, iterated by named constant
		// so a new critique class cannot be silently dropped.
		var c [core.NumExplicitCritiques]uint64
		var total uint64
		for _, r := range rs[i] {
			for k := core.CorrectAgree; k <= core.IncorrectDisagree; k++ {
				c[k] += r.Critiques[k]
				total += r.Critiques[k]
			}
		}
		fmt.Fprintf(w, "%-4d %14d %16d %15d %18d %12d\n",
			fb, c[core.CorrectAgree], c[core.CorrectDisagree], c[core.IncorrectAgree], c[core.IncorrectDisagree], total)
	}
	return nil
}
