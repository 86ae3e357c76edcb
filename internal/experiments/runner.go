package experiments

// The unified experiment runner: every figure and table assembles its
// full (configuration × benchmark) job matrix up front and hands it to
// sim.Matrix (runTimingMatrix for the timing model), which runs every
// configuration in one pass per workload with the workloads fanned out
// on the shared worker pool. Formatting
// happens strictly after the matrix completes, iterating the result
// slices in declaration order, which keeps the emitted tables
// byte-identical to the sequential implementation regardless of how the
// jobs were scheduled.

import (
	"prophetcritic/internal/budget"
	"prophetcritic/internal/core"
	"prophetcritic/internal/metrics"
	"prophetcritic/internal/pipeline"
	"prophetcritic/internal/pool"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
)

// benchmarkNames returns the full workload inventory in definition
// order, the row order every pooled reduction iterates in.
func benchmarkNames() []string { return program.Names() }

// loadPrograms resolves benchmark names through the memoized loader.
func loadPrograms(names []string) ([]*program.Program, error) {
	progs := make([]*program.Program, len(names))
	for i, n := range names {
		p, err := program.Load(n)
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}
	return progs, nil
}

// meanMispMatrix runs every builder over every workload concurrently
// and returns the per-builder mean misp/Kuops in builder order.
func meanMispMatrix(builds []sim.Builder, opt Options) ([]float64, error) {
	progs, err := opt.Programs(benchmarkNames())
	if err != nil {
		return nil, err
	}
	rs, err := sim.Matrix(builds, progs, opt.Functional, opt.Shards)
	if err != nil {
		return nil, err
	}
	means := make([]float64, len(rs))
	for i, row := range rs {
		means[i] = metrics.MeanMispPerKuops(row)
	}
	return means, nil
}

// timingSpec names one timing-simulator configuration: prophet
// (kind, KB) + critic (kind, KB) at fb future bits; criticKB = 0 is the
// prophet alone.
type timingSpec struct {
	prophetKind budget.Kind
	prophetKB   int
	criticKind  budget.Kind
	criticKB    int
	fb          uint
}

// runTimingMatrix runs every timing configuration over every workload:
// one pipeline.RunMany pass per workload, with fresh hybrids for every
// configuration, workloads fanned out on the shared worker pool.
// results[ci][bi] follows input order.
func runTimingMatrix(specs []timingSpec, progs []*program.Program, opt Options) ([][]pipeline.Result, error) {
	cfg := pipeline.DefaultConfig()
	results := make([][]pipeline.Result, len(specs))
	for ci := range results {
		results[ci] = make([]pipeline.Result, len(progs))
	}
	err := pool.Run(len(progs), func(bi int) error {
		hs := make([]*core.Hybrid, len(specs))
		for ci, s := range specs {
			hs[ci] = hybridBuilder(s.prophetKind, s.prophetKB, s.criticKind, s.criticKB, s.fb, false)()
		}
		for ci, r := range pipeline.RunMany(progs[bi], hs, cfg, opt.Timing) {
			results[ci][bi] = r
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
