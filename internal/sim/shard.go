package sim

// Interval-sharded simulation: one long workload is split into K
// contiguous measurement intervals that run in parallel on the shared
// worker pool, each shard warming a private predictor over a
// configurable prefix of its interval before measuring — the standard
// batch-orchestration trick of large-scale predictor evaluation
// harnesses. PR 1 parallelized *across* experiment configurations; this
// parallelizes *within* a single (workload, configuration) run, which is
// what a single long trace needs.
//
// With WarmupFrac = 1 every shard replays (and trains on) its entire
// prefix, so its predictor state at the interval boundary is exactly the
// sequential run's state there, and the merged Result is bit-identical
// to the sequential Result — the property the shard-merge golden tests
// pin. Smaller fractions trade exactness for speed: each shard trains on
// only the newest fraction of its prefix (the rest is fast-forwarded
// without prediction), which approximates the asymptotic state the same
// way the paper's post-startup LIT snapshots do. See EXPERIMENTS.md for
// the accuracy caveats.

import (
	"fmt"
	"math"
	"runtime"
)

// MaxShardsPerCPU caps -shards-style fan-out relative to the machine:
// shards beyond a small multiple of the CPU count cannot run in
// parallel and only multiply the warmup-replay overhead.
const MaxShardsPerCPU = 16

// ShardOptions configures interval-sharded simulation.
type ShardOptions struct {
	// Shards is the number of parallel measurement intervals K. 1 (or 0)
	// degenerates to the sequential runner.
	Shards int
	// WarmupFrac is the fraction of each shard's prefix that is replayed
	// through the predictor (training it) before measurement begins, in
	// [0, 1]. 1 replays the full prefix and reproduces the sequential
	// run bit for bit; 0 measures from completely cold predictors.
	// NOTE: the zero value therefore selects cold-state measurement —
	// callers wanting the exact mode must say WarmupFrac: 1 explicitly
	// (the CLIs default their -warmup-frac flag to 1).
	WarmupFrac float64
}

// Validate rejects nonsense shard configurations with a clean error:
// zero/negative shard counts (a silent no-op or a panic downstream
// otherwise), shard counts out of proportion to the machine (validated
// against runtime.NumCPU), and warmup fractions outside [0, 1].
func (so ShardOptions) Validate() error {
	if so.Shards <= 0 {
		return fmt.Errorf("sim: shard count must be positive, got %d", so.Shards)
	}
	if limit := MaxShardsPerCPU * runtime.NumCPU(); so.Shards > limit {
		return fmt.Errorf("sim: %d shards exceeds %d (%d CPUs × %d); more shards than that only multiply warmup overhead",
			so.Shards, limit, runtime.NumCPU(), MaxShardsPerCPU)
	}
	if math.IsNaN(so.WarmupFrac) || so.WarmupFrac < 0 || so.WarmupFrac > 1 {
		return fmt.Errorf("sim: warmup fraction must be in [0, 1], got %v", so.WarmupFrac)
	}
	return nil
}

// Merge accumulates another result's counters into r (identity fields
// keep r's values). The sharded runner sums per-shard windows with it;
// all Result counters are additive over disjoint measurement windows.
func (r *Result) Merge(s Result) {
	r.Branches += s.Branches
	r.Uops += s.Uops
	r.ProphetMisp += s.ProphetMisp
	r.FinalMisp += s.FinalMisp
	for c := range r.Critiques {
		r.Critiques[c] += s.Critiques[c]
	}
}

// Window is one contiguous execution window of a workload's committed
// stream, in RunSegment's terms: Skip branches fast-forwarded, Train
// branches predicted but unmeasured, Measure branches measured.
type Window struct {
	Skip, Train, Measure int
}

// ShardWindows returns the per-shard windows Matrix executes for the
// given options, after validating them: shard i's prefix is everything
// before its measurement interval, with the newest WarmupFrac of it
// trained and the rest fast-forwarded. The service scheduler uses the
// same windows to run shards durably, which keeps its merged results
// bit-identical to Matrix's.
func ShardWindows(opt Options, so ShardOptions) ([]Window, error) {
	if opt.MeasureBranches <= 0 {
		opt = DefaultOptions
	}
	if so.Shards == 0 {
		so.Shards = 1
	}
	if err := so.Validate(); err != nil {
		return nil, err
	}
	k := so.Shards
	if k > opt.MeasureBranches {
		k = opt.MeasureBranches // never hand a shard an empty interval
	}
	warmup, measure := opt.WarmupBranches, opt.MeasureBranches
	if k == 1 {
		return []Window{{Skip: 0, Train: warmup, Measure: measure}}, nil
	}
	ws := make([]Window, k)
	for i := range ws {
		start := warmup + i*measure/k
		end := warmup + (i+1)*measure/k
		// The shard's prefix is everything before its interval; the
		// newest WarmupFrac of it trains the predictor, the rest only
		// advances the committed stream.
		train := int(so.WarmupFrac * float64(start))
		if train > start {
			train = start
		}
		ws[i] = Window{Skip: start - train, Train: train, Measure: end - start}
	}
	return ws, nil
}
