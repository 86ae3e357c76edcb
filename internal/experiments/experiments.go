// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7) plus the abstract's headline numbers, mapping
// each artefact to the modules that implement it (see DESIGN.md for the
// per-experiment index).
//
// Each experiment writes a plain-text table to the supplied writer. All
// experiments are deterministic: same options, same output.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/core"
	"prophetcritic/internal/pipeline"
	"prophetcritic/internal/program"
	"prophetcritic/internal/service"
	"prophetcritic/internal/sim"
)

// Options scales the measurement windows. Fast is used by tests and
// benches; Full is the EXPERIMENTS.md configuration.
type Options struct {
	Functional sim.Options
	Timing     pipeline.Options

	// Workloads, when non-empty, replaces every experiment's benchmark
	// set with the given programs — the hook `cmd/experiments -trace`
	// uses to run the paper's figures over recorded traces instead of
	// the synthetic inventory. Formatters label rows by program name.
	Workloads []*program.Program

	// Shards splits every functional simulation into parallel
	// measurement intervals (sim.Matrix) when Shards.Shards > 1.
	// WarmupFrac 1 is full-warmup replay, which keeps every emitted
	// table byte-identical to the sequential run; 0 measures from cold
	// predictors, as everywhere in sim. The zero value is the
	// sequential run. Timing experiments are inherently sequential and
	// ignore it.
	Shards sim.ShardOptions

	// Kinds, when non-empty, replaces the prophet families of the
	// kind-sweeping experiments (fig7a/b, fig9) with the named registry
	// kinds — the hook `cmd/experiments -kinds` uses to sweep families
	// outside Table 3 (bimodal, local, tournament, yags, ...), whose
	// configurations come from the registry's budget solvers. Empty
	// keeps the paper's kind sets and byte-identical output.
	Kinds []string
}

// ProphetKinds resolves the -kinds override against the predictor
// registry (canonicalising names and aliases), or returns the
// experiment's default kind set when no override is given.
func (o Options) ProphetKinds(def []budget.Kind) ([]budget.Kind, error) {
	if len(o.Kinds) == 0 {
		return def, nil
	}
	kinds := make([]budget.Kind, 0, len(o.Kinds))
	for _, n := range o.Kinds {
		k, err := budget.CanonicalKind(n)
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// Programs resolves an experiment's workload set: the explicit override
// when set, else the experiment's default benchmark names.
func (o Options) Programs(def []string) ([]*program.Program, error) {
	if len(o.Workloads) > 0 {
		return o.Workloads, nil
	}
	return loadPrograms(def)
}

// Full is the configuration used to produce EXPERIMENTS.md.
var Full = Options{
	Functional: sim.Options{WarmupBranches: 120_000, MeasureBranches: 250_000},
	Timing:     pipeline.Options{WarmupBranches: 60_000, MeasureBranches: 120_000},
}

// Fast is a reduced configuration for smoke tests and benchmarks.
var Fast = Options{
	Functional: sim.Options{WarmupBranches: 12_000, MeasureBranches: 25_000},
	Timing:     pipeline.Options{WarmupBranches: 8_000, MeasureBranches: 15_000},
}

// Experiment is one regenerable paper artefact.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, opt Options) error
}

var registry = []Experiment{
	{"table1", "Table 1 — simulated benchmark suites", Table1},
	{"table2", "Table 2 — simulation parameters", Table2},
	{"table3", "Table 3 — prophet and critic configurations", Table3},
	{"table4", "Table 4 — fraction of prophet predictions filtered by the critic", Table4},
	{"fig5", "Figure 5 — mispredict rate vs number of future bits (selected benchmarks)", Fig5},
	{"fig6a", "Figure 6(a) — 2Bc-gskew prophet + unfiltered perceptron critic", Fig6a},
	{"fig6b", "Figure 6(b) — gshare prophet + filtered perceptron critic", Fig6b},
	{"fig6c", "Figure 6(c) — perceptron prophet + tagged gshare critic", Fig6c},
	{"fig7a", "Figure 7(a) — 16KB conventional predictors vs 8KB+8KB hybrids", Fig7a},
	{"fig7b", "Figure 7(b) — 32KB conventional predictors vs 16KB+16KB hybrids", Fig7b},
	{"fig8", "Figure 8 — distribution of critiques", Fig8},
	{"fig9", "Figure 9 — uPC of 16KB predictors vs 8KB+8KB hybrids", Fig9},
	{"fig10", "Figure 10 — uPC per benchmark suite", Fig10},
	{"headline", "Abstract — headline comparison vs 16KB 2Bc-gskew", Headline},
}

// All returns every experiment in paper order.
func All() []Experiment { return append([]Experiment(nil), registry...) }

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}

// ---- shared builders ----

// hybridBuilder builds prophet(kind,kb) + critic(kind,kb) hybrids
// through the shared construction path (service.NewHybrid). critic
// kb = 0 means prophet alone. Filtered follows the critic kind unless
// forceUnfiltered. Configurations resolve through the registry —
// pinned Table 3 cells at published budgets, solver geometry elsewhere —
// so experiments driven by a -kinds override must pre-validate their
// (kind, budget) pairs with budget.Resolve before building a matrix.
func hybridBuilder(prophetKind budget.Kind, prophetKB int, criticKind budget.Kind, criticKB int, fb uint, forceUnfiltered bool) sim.Builder {
	return func() *core.Hybrid {
		pc := budget.MustResolve(prophetKind, prophetKB)
		if criticKB == 0 {
			return service.NewHybrid(pc, nil, 0, false)
		}
		cc := budget.MustResolve(criticKind, criticKB)
		return service.NewHybrid(pc, &cc, fb, forceUnfiltered)
	}
}

// validateKindBudgets resolves every (kind, budget) pair up front so a
// bad -kinds override fails with a clean error instead of a panic deep
// inside a worker.
func validateKindBudgets(kinds []budget.Kind, kbs ...int) error {
	for _, k := range kinds {
		for _, kb := range kbs {
			if _, err := budget.Resolve(k, kb); err != nil {
				return err
			}
		}
	}
	return nil
}
