// Package sim is the functional branch-prediction simulator: it executes a
// synthetic program in commit order, drives a prophet/critic hybrid (or a
// conventional predictor wrapped as a prophet-alone hybrid) over the
// committed branch stream, and reports accuracy metrics.
//
// The essential fidelity property (Section 6 of the paper) is wrong-path
// future-bit generation: for every branch, the hybrid performs a
// speculative walk of the program's control-flow graph along the
// *predicted* directions. When the prophet mispredicts, that walk leaves
// the correct path, and the future bits inserted into the critic's BOR are
// genuine wrong-path prophecies — "Generating these bits while traversing
// a (correct-path only) instruction trace provides the critic with oracle
// information, which it does not actually have."
package sim

import (
	"fmt"

	"prophetcritic/internal/core"
	"prophetcritic/internal/program"
)

// Options controls a simulation.
type Options struct {
	// WarmupBranches are executed and trained on but not measured,
	// mirroring the paper's use of post-startup LIT snapshots.
	WarmupBranches int
	// MeasureBranches is the measured window length.
	MeasureBranches int
}

// DefaultOptions is the measurement window used by the experiment
// harness: large enough for stable misp/Kuops on every benchmark, small
// enough that full figure sweeps finish in minutes.
var DefaultOptions = Options{WarmupBranches: 30_000, MeasureBranches: 120_000}

// ValidateWindow is the one window rule of every front end (the
// command-line tools and pcserved): warmup >= 0 and measure > 0, and a
// replay program must hold warmup+measure recorded events. A
// non-positive measure would be silently replaced by the defaults
// (DefaultOptions here, pipeline.DefaultOptions in the timing model),
// dropping the warmup with it; a negative warmup would measure fewer
// branches, from branch 0; and a replay run past its trace's end panics
// mid-run.
func ValidateWindow(p *program.Program, warmup, measure int) error {
	if warmup < 0 {
		return fmt.Errorf("-warmup must be positive or zero, got %d", warmup)
	}
	if measure <= 0 {
		return fmt.Errorf("-measure must be positive, got %d", measure)
	}
	if total := uint64(warmup) + uint64(measure); p.IsReplay() && total > p.TraceEvents() {
		return fmt.Errorf("window of %d branches exceeds the trace's %d recorded events", total, p.TraceEvents())
	}
	return nil
}

// Result holds the measured statistics of one (benchmark, predictor) run.
type Result struct {
	Benchmark string
	Suite     string
	Config    string

	Branches uint64 // measured committed conditional branches
	Uops     uint64 // measured committed uops

	ProphetMisp uint64 // prophet mispredicts in the window
	FinalMisp   uint64 // final (post-critique) mispredicts

	// Critiques is the measured critique distribution, indexed by
	// core.Critique and sized by core.NumCritiques so a new critique
	// class cannot silently truncate counts.
	Critiques [core.NumCritiques]uint64
}

// MispPerKuops is the paper's primary accuracy metric.
func (r Result) MispPerKuops() float64 {
	if r.Uops == 0 {
		return 0
	}
	return float64(r.FinalMisp) / float64(r.Uops) * 1000
}

// ProphetMispPerKuops is the same metric for the prophet alone.
func (r Result) ProphetMispPerKuops() float64 {
	if r.Uops == 0 {
		return 0
	}
	return float64(r.ProphetMisp) / float64(r.Uops) * 1000
}

// MispRate is the fraction of branches mispredicted (gcc's headline is
// quoted this way: 3.11% -> 1.23%).
func (r Result) MispRate() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.FinalMisp) / float64(r.Branches)
}

// UopsPerFlush is the mean distance between pipeline flushes in uops (the
// abstract quotes 418 -> 680 uops). Infinite (returned as 0) if there were
// no mispredicts.
func (r Result) UopsPerFlush() float64 {
	if r.FinalMisp == 0 {
		return 0
	}
	return float64(r.Uops) / float64(r.FinalMisp)
}

// FilteredFrac returns the fraction of branches that received no explicit
// critique, split (correct, incorrect, total) as in Table 4.
func (r Result) FilteredFrac() (correct, incorrect, total float64) {
	if r.Branches == 0 {
		return
	}
	c := float64(r.Critiques[core.CorrectNone]) / float64(r.Branches)
	i := float64(r.Critiques[core.IncorrectNone]) / float64(r.Branches)
	return c, i, c + i
}

// Run simulates one hybrid over one program — the N=1 case of RunMany.
func Run(p *program.Program, h *core.Hybrid, opt Options) Result {
	if opt.MeasureBranches <= 0 {
		opt = DefaultOptions
	}
	return RunSegment(p, h, 0, opt.WarmupBranches, opt.MeasureBranches)
}

// RunSegment drives h over one contiguous window of p's committed
// stream: skip branches are fast-forwarded (committed without the
// predictor seeing them), train branches are predicted and resolved but
// not measured, and measure branches are measured. Run is
// RunSegment(p, h, 0, warmup, measure); the sharded runner uses the skip
// prefix to position each shard, and the checkpoint tooling uses it to
// resume a restored predictor mid-workload. measure may be 0 (state
// building only; the Result then carries no measured window). It is the
// N=1 case of RunManySegment.
func RunSegment(p *program.Program, h *core.Hybrid, skip, train, measure int) Result {
	return RunManySegment(p, []*core.Hybrid{h}, skip, train, measure)[0]
}

// Builder constructs a fresh hybrid for one benchmark run. Each run gets
// its own predictor state, as in the paper's per-LIT simulations.
type Builder func() *core.Hybrid
