package sim_test

// Shard-merge determinism and checkpoint-resume exactness — the
// acceptance gates of the sharded runner: with full-warmup replay a
// K-way sharded run must produce metrics identical to the sequential
// run, for every Table 3 predictor kind, and a hybrid restored from a
// snapshot must continue exactly where the original left off.

import (
	"bytes"
	"testing"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/core"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
)

// shardOpt is the small deterministic window shared by these tests.
var shardOpt = sim.Options{WarmupBranches: 3000, MeasureBranches: 8000}

// runSharded runs one builder over one program through Matrix.
func runSharded(p *program.Program, build sim.Builder, opt sim.Options, so sim.ShardOptions) (sim.Result, error) {
	rs, err := sim.Matrix([]sim.Builder{build}, []*program.Program{p}, opt, so)
	if err != nil {
		return sim.Result{}, err
	}
	return rs[0][0], nil
}

// builders covering all five Table 3 predictor kinds across the prophet
// and critic roles.
func shardConfigs() map[string]sim.Builder {
	mk := func(pk budget.Kind, ck budget.Kind, fb uint) sim.Builder {
		return func() *core.Hybrid {
			p := budget.MustLookup(pk, 2).Build()
			if ck == "" {
				return core.New(p, nil, core.Config{})
			}
			cc := budget.MustLookup(ck, 2)
			return core.New(p, cc.Build(), core.Config{FutureBits: fb, Filtered: true, BORLen: cc.BORSize()})
		}
	}
	return map[string]sim.Builder{
		"gshare-alone":               mk(budget.Gshare, "", 0),
		"perceptron+tagged-gshare":   mk(budget.Perceptron, budget.TaggedGshare, 8),
		"gskew+filtered-perceptron":  mk(budget.Gskew, budget.FilteredPerceptron, 4),
		"gshare+tagged-gshare":       mk(budget.Gshare, budget.TaggedGshare, 1),
		"gskew+tagged-gshare-deepfb": mk(budget.Gskew, budget.TaggedGshare, 12),
	}
}

// TestShardedMatchesSequential pins the exactness property on gcc and
// unzip: K>=4 shards with full-warmup replay merge to the sequential
// Result, bit for bit, for every predictor kind.
func TestShardedMatchesSequential(t *testing.T) {
	for _, bench := range []string{"gcc", "unzip"} {
		p := program.MustLoad(bench)
		for name, build := range shardConfigs() {
			t.Run(bench+"/"+name, func(t *testing.T) {
				t.Parallel()
				seq := sim.Run(p, build(), shardOpt)
				for _, k := range []int{4, 7} {
					got, err := runSharded(p, build, shardOpt, sim.ShardOptions{Shards: k, WarmupFrac: 1})
					if err != nil {
						t.Fatal(err)
					}
					if got != seq {
						t.Errorf("K=%d sharded result diverged from sequential:\n got %+v\nwant %+v", k, got, seq)
					}
				}
			})
		}
	}
}

// TestShardedSingleShardIsSequential: K=1 must take the sequential path.
func TestShardedSingleShardIsSequential(t *testing.T) {
	p := program.MustLoad("gcc")
	build := shardConfigs()["gshare+tagged-gshare"]
	seq := sim.Run(p, build(), shardOpt)
	got, err := runSharded(p, build, shardOpt, sim.ShardOptions{Shards: 1, WarmupFrac: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != seq {
		t.Fatalf("K=1 diverged: %+v vs %+v", got, seq)
	}
}

// TestShardedPartialWarmupRuns: fractional warmup is approximate by
// design, but must still produce a full-sized measurement window.
func TestShardedPartialWarmupRuns(t *testing.T) {
	p := program.MustLoad("unzip")
	build := shardConfigs()["gshare+tagged-gshare"]
	got, err := runSharded(p, build, shardOpt, sim.ShardOptions{Shards: 4, WarmupFrac: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	seq := sim.Run(p, build(), shardOpt)
	if got.Branches != seq.Branches {
		t.Fatalf("partial warmup measured %d branches, want %d", got.Branches, seq.Branches)
	}
	if got.Uops != seq.Uops {
		t.Fatalf("partial warmup measured %d uops, want %d", got.Uops, seq.Uops)
	}
}

func TestShardOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		so   sim.ShardOptions
		ok   bool
	}{
		{"one", sim.ShardOptions{Shards: 1, WarmupFrac: 1}, true},
		{"typical", sim.ShardOptions{Shards: 8, WarmupFrac: 0.5}, true},
		{"zero", sim.ShardOptions{Shards: 0, WarmupFrac: 1}, false},
		{"negative", sim.ShardOptions{Shards: -4, WarmupFrac: 1}, false},
		{"absurd", sim.ShardOptions{Shards: 1 << 30, WarmupFrac: 1}, false},
		{"frac-negative", sim.ShardOptions{Shards: 2, WarmupFrac: -0.1}, false},
		{"frac-above-one", sim.ShardOptions{Shards: 2, WarmupFrac: 1.5}, false},
	}
	for _, c := range cases {
		if err := c.so.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	if _, err := runSharded(program.MustLoad("gcc"), shardConfigs()["gshare-alone"], shardOpt,
		sim.ShardOptions{Shards: -1}); err == nil {
		t.Error("Matrix must reject negative shard counts")
	}
}

// TestCheckpointResumeExact: building predictor state over a prefix,
// snapshotting through the codec, and resuming in a fresh hybrid must
// reproduce the uninterrupted run's measurements and state bit for bit.
func TestCheckpointResumeExact(t *testing.T) {
	p := program.MustLoad("gcc")
	for name, build := range shardConfigs() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			warm, meas := shardOpt.WarmupBranches, shardOpt.MeasureBranches

			// Uninterrupted reference run.
			ref := build()
			want := sim.RunSegment(p, ref, 0, warm, meas)

			// Interrupted run: warm up, snapshot, restore, resume.
			h1 := build()
			sim.RunSegment(p, h1, 0, warm, 0)
			enc := checkpoint.NewEncoder()
			h1.Snapshot(enc)

			h2 := build()
			if err := h2.Restore(checkpoint.NewDecoder(enc.Bytes())); err != nil {
				t.Fatal(err)
			}
			got := sim.RunSegment(p, h2, warm, 0, meas)
			if got != want {
				t.Fatalf("resumed run diverged:\n got %+v\nwant %+v", got, want)
			}

			// Final predictor state must match the reference bit for bit.
			e1, e2 := checkpoint.NewEncoder(), checkpoint.NewEncoder()
			ref.Snapshot(e1)
			h2.Snapshot(e2)
			if !bytes.Equal(e1.Bytes(), e2.Bytes()) {
				t.Fatal("final predictor state diverged from the uninterrupted run")
			}
		})
	}
}

// TestShardedColdWarmupIsReachable: WarmupFrac 0 must actually measure
// from cold predictors — a distinct (worse) result than full warmup,
// not a silent alias for it.
func TestShardedColdWarmupIsReachable(t *testing.T) {
	p := program.MustLoad("gcc")
	build := shardConfigs()["gshare+tagged-gshare"]
	so := sim.ShardOptions{Shards: 4} // zero WarmupFrac = cold state
	cold, err := runSharded(p, build, shardOpt, so)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := runSharded(p, build, shardOpt, sim.ShardOptions{Shards: 4, WarmupFrac: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cold == exact {
		t.Fatal("cold-state sharding produced the full-warmup result; WarmupFrac 0 is being normalised away")
	}
	if cold.Branches != exact.Branches || cold.Uops != exact.Uops {
		t.Fatalf("cold sharding changed the measured window: %+v vs %+v", cold, exact)
	}
}

func TestShardWindowsValidate(t *testing.T) {
	if _, err := sim.ShardWindows(sim.Options{}, sim.ShardOptions{Shards: -1, WarmupFrac: 1}); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := sim.ShardWindows(sim.Options{}, sim.ShardOptions{Shards: 2, WarmupFrac: 1.5}); err == nil {
		t.Error("warmup fraction > 1 accepted")
	}
	ws, err := sim.ShardWindows(sim.Options{WarmupBranches: 100, MeasureBranches: 1000}, sim.ShardOptions{WarmupFrac: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 || ws[0] != (sim.Window{Skip: 0, Train: 100, Measure: 1000}) {
		t.Errorf("degenerate shard windows %+v", ws)
	}
}
