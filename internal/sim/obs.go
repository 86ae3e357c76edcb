package sim

// Gated throughput instrumentation for the simulator core. The service
// wants branches/sec and committed-stream progress for a live fleet,
// but the per-branch inner loops are held to a 0-alloc, ≤2%-overhead
// wall (the root BenchmarkPairedObsOverhead gate) — so nothing here
// touches shared state per branch. Instead the window loops keep a
// loop-local sample clock and publish one fixed quantum (ObsSampleEvery
// committed branches) per flush; even the enabled check happens only at sample
// boundaries, and the flush itself is two atomic adds. Counters are
// therefore accurate to within one sample quantum per in-flight
// window, which is plenty for throughput telemetry.
//
// obsCommit carries the //pclint:hotpath annotation and sync/atomic is
// on the analyzer's allowlist (atomic ops are compiler intrinsics and
// never allocate), so the instrumentation itself is held to the same
// wall as the loops it measures — the obsgood/obsbad analyzer goldens
// pin that a sampled flush passes and a naive per-branch histogram
// observe does not.
//
// Enabling is process-wide (EnableObs); the counters are package-level
// atomics read by any number of obs registries via ReadObs, so the
// scheduler's and a worker's registry can both export them without
// owning them.

import "sync/atomic"

const (
	obsSampleShift = 14
	// ObsSampleEvery is the sample quantum: committed branches between
	// counter flushes in every simulation window loop.
	ObsSampleEvery = 1 << obsSampleShift
)

var (
	obsOn          atomic.Bool
	obsBranches    atomic.Uint64
	obsPredictions atomic.Uint64
	obsActiveRuns  atomic.Int64
)

// EnableObs turns throughput counting on or off process-wide. Off (the
// default) reduces the instrumentation to a loop-local count per
// block; nothing shared is touched.
func EnableObs(on bool) { obsOn.Store(on) }

// ObsSnapshot is a point-in-time read of the simulator's throughput
// counters.
type ObsSnapshot struct {
	// Branches is the number of committed stream branches simulated
	// (skip fast-forwards are not counted; a ManyStepper pass counts
	// its shared stream once).
	Branches uint64
	// Predictions is the number of hybrid predictions resolved — for a
	// one-pass ManyStepper run this advances len(hybrids) per branch.
	Predictions uint64
	// ActiveRuns is the number of simulation windows currently open.
	ActiveRuns int64
}

// ReadObs returns the current counter values. Branches/Predictions are
// sampled (see ObsSampleEvery); ActiveRuns is exact.
func ReadObs() ObsSnapshot {
	return ObsSnapshot{
		Branches:    obsBranches.Load(),
		Predictions: obsPredictions.Load(),
		ActiveRuns:  obsActiveRuns.Load(),
	}
}

// obsCommit publishes one flush of the sampled counters. It sits on
// the per-branch path only at sample boundaries, and it is held to the
// hotpath wall because window loops call it between branch steps.
//
//pclint:hotpath
func obsCommit(branches, predictions uint64) {
	if !obsOn.Load() {
		return
	}
	obsBranches.Add(branches)
	obsPredictions.Add(predictions)
}

// obsRunOpen/obsRunClose maintain the active-window gauge. They run
// once per window (cold), never per branch, and are unconditional so
// the gauge stays balanced across EnableObs toggles.
func obsRunOpen()  { obsActiveRuns.Add(1) }
func obsRunClose() { obsActiveRuns.Add(-1) }
