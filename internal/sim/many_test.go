package sim_test

// The one-pass engine's acceptance gate: RunMany over N builders must be
// byte-identical to N sequential Run calls — for every registered
// predictor family, for synthetic and trace-replay workloads, and
// through the sharded and stepped variants. The equivalence rests on
// two facts the sequential runner already pins: the committed stream
// depends only on program state (never on any predictor), and the
// speculative CFG walk is bound to the Program, so N resident hybrids
// fed from one stream evolve exactly as they would alone.

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/core"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
	"prophetcritic/internal/trace"
)

var manyOpt = sim.Options{WarmupBranches: 3000, MeasureBranches: 8000}

// familyBuilders returns one prophet-alone builder per registered
// family (solver-resolved at 2KB), in deterministic order.
func familyBuilders(t *testing.T) (names []string, builds []sim.Builder) {
	t.Helper()
	kinds := []budget.Kind{
		budget.Gshare, budget.Perceptron, budget.Gskew, budget.TaggedGshare,
		budget.FilteredPerceptron, budget.Bimodal, budget.Local,
		budget.Tournament, budget.YAGS,
	}
	for _, k := range kinds {
		cfg, err := budget.Resolve(k, 2)
		if err != nil {
			t.Fatalf("resolving %s: %v", k, err)
		}
		names = append(names, string(k))
		builds = append(builds, func() *core.Hybrid { return core.New(cfg.Build(), nil, core.Config{}) })
	}
	return names, builds
}

// hybridBuilder returns a full prophet+critic builder with future bits —
// the configuration whose predictions exercise the wrong-path walk.
func hybridBuilder(pk, ck budget.Kind, fb uint) sim.Builder {
	return func() *core.Hybrid {
		cc := budget.MustLookup(ck, 2)
		return core.New(budget.MustLookup(pk, 2).Build(), cc.Build(),
			core.Config{FutureBits: fb, Filtered: true, BORLen: cc.BORSize()})
	}
}

// recordTrace records a gcc trace covering manyOpt's window and loads it
// back as a replay program.
func recordTrace(t *testing.T, bench string) *program.Program {
	t.Helper()
	p := program.MustLoad(bench)
	path := filepath.Join(t.TempDir(), bench+".trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Record(p, manyOpt.WarmupBranches, manyOpt.MeasureBranches, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tp, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestRunManyMatchesSequential: every registered family plus hybrid
// configurations, over a synthetic benchmark and a recorded trace — the
// one-pass results must equal the sequential results bit for bit.
func TestRunManyMatchesSequential(t *testing.T) {
	names, builds := familyBuilders(t)
	names = append(names, "gskew+tagged-gshare-fb8", "perceptron+tagged-gshare-fb4")
	builds = append(builds,
		hybridBuilder(budget.Gskew, budget.TaggedGshare, 8),
		hybridBuilder(budget.Perceptron, budget.TaggedGshare, 4))

	workloads := map[string]*program.Program{
		"gcc":       program.MustLoad("gcc"),
		"unzip":     program.MustLoad("unzip"),
		"gcc-trace": recordTrace(t, "gcc"),
	}
	for wl, p := range workloads {
		t.Run(wl, func(t *testing.T) {
			got := sim.RunMany(p, builds, manyOpt)
			if len(got) != len(builds) {
				t.Fatalf("RunMany returned %d results for %d builders", len(got), len(builds))
			}
			for i, build := range builds {
				want := sim.Run(p, build(), manyOpt)
				if got[i] != want {
					t.Errorf("%s: one-pass result diverged from sequential:\n got %+v\nwant %+v", names[i], got[i], want)
				}
			}
		})
	}
}

// TestManyStepperMatchesSegment: incremental Measure calls interleaved
// with Results snapshots must concatenate to exactly one RunManySegment.
func TestManyStepperMatchesSegment(t *testing.T) {
	_, builds := familyBuilders(t)
	p := program.MustLoad("gcc")

	want := sim.RunManySegment(p, buildAllTest(builds), 0, manyOpt.WarmupBranches, manyOpt.MeasureBranches)

	st := sim.NewManyStepper(p, buildAllTest(builds))
	defer st.Close()
	st.Skip(0)
	st.Train(manyOpt.WarmupBranches)
	left := manyOpt.MeasureBranches
	for _, chunk := range []int{1, 999, 2000} {
		st.Measure(chunk)
		left -= chunk
		st.Results() // interleaved snapshots must not disturb the run
	}
	st.Measure(left)
	if pos := st.Pos(); pos != manyOpt.WarmupBranches+manyOpt.MeasureBranches {
		t.Fatalf("Pos() = %d, want %d", pos, manyOpt.WarmupBranches+manyOpt.MeasureBranches)
	}
	got := st.Results()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("builder %d: stepped results diverged:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// stepperSets are the resident-hybrid counts the stepper tests cover:
// the single-hybrid case every Run/RunSegment call takes, and a
// three-hybrid pass mixing a prophet+critic hybrid with prophets alone.
func stepperSets() map[string][]sim.Builder {
	gskewTagged := func() *core.Hybrid {
		return core.New(
			budget.MustLookup(budget.Gskew, 8).Build(),
			budget.MustLookup(budget.TaggedGshare, 8).Build(),
			core.Config{FutureBits: 2, Filtered: true, BORLen: 18})
	}
	alone := func(k budget.Kind) sim.Builder {
		return func() *core.Hybrid { return core.New(budget.MustLookup(k, 4).Build(), nil, core.Config{}) }
	}
	return map[string][]sim.Builder{
		"N=1": {gskewTagged},
		"N=3": {gskewTagged, alone(budget.Perceptron), alone(budget.Gshare)},
	}
}

// A stepper run in one Skip/Train/Measure sequence must reproduce
// RunManySegment exactly, whatever the chunking.
func TestStepperMatchesRunSegment(t *testing.T) {
	p := program.MustLoad("gcc")
	const skip, train, measure = 500, 3_000, 12_000
	for name, builds := range stepperSets() {
		t.Run(name, func(t *testing.T) {
			want := sim.RunManySegment(p, buildAllTest(builds), skip, train, measure)
			if len(builds) == 1 {
				if r := sim.RunSegment(p, builds[0](), skip, train, measure); r != want[0] {
					t.Fatalf("RunSegment %+v != RunManySegment %+v", r, want[0])
				}
			}
			for _, chunk := range []int{measure, 5_000, 1_000, 137} {
				st := sim.NewManyStepper(p, buildAllTest(builds))
				st.Skip(skip)
				st.Train(train)
				for done := 0; done < measure; {
					n := min(chunk, measure-done)
					st.Measure(n)
					done += n
				}
				got := st.Results()
				st.Close()
				if !reflect.DeepEqual(got, want) {
					t.Errorf("chunk %d: stepper results %+v != RunManySegment %+v", chunk, got, want)
				}
				if wantPos := skip + train + measure; st.Pos() != wantPos {
					t.Errorf("chunk %d: pos %d, want %d", chunk, st.Pos(), wantPos)
				}
			}
		})
	}
}

// A stepper resumed from checkpointed hybrids mid-measurement must, when
// its partial counters are merged with the pre-interruption partials,
// reproduce the uninterrupted run bit for bit — the service's
// kill-and-restart invariant at the sim layer.
func TestStepperCheckpointResume(t *testing.T) {
	p := program.MustLoad("unzip")
	const train, measure, cut = 2_000, 10_000, 4_000
	for name, builds := range stepperSets() {
		t.Run(name, func(t *testing.T) {
			want := sim.RunManySegment(p, buildAllTest(builds), 0, train, measure)

			// First leg: measure `cut` branches, then snapshot every hybrid.
			hs := buildAllTest(builds)
			st := sim.NewManyStepper(p, hs)
			st.Train(train)
			st.Measure(cut)
			partials := st.Results()
			bufs := make([][]byte, len(hs))
			for i, h := range hs {
				enc := checkpoint.NewEncoder()
				h.Snapshot(enc)
				bufs[i] = append([]byte(nil), enc.Bytes()...)
			}
			pos := st.Pos()
			st.Close()

			// "Restart": fresh hybrids restored from the snapshots, a fresh
			// stepper fast-forwarded to the recorded position.
			hs2 := buildAllTest(builds)
			for i, h := range hs2 {
				if err := h.Restore(checkpoint.NewDecoder(bufs[i])); err != nil {
					t.Fatal(err)
				}
			}
			st2 := sim.NewManyStepper(p, hs2)
			st2.Skip(pos)
			st2.Measure(measure - cut)
			got := st2.Results()
			st2.Close()
			for i := range got {
				got[i].Merge(partials[i])
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("resumed results %+v != uninterrupted %+v", got, want)
			}
		})
	}
}

func buildAllTest(builds []sim.Builder) []*core.Hybrid {
	hs := make([]*core.Hybrid, len(builds))
	for i, b := range builds {
		hs[i] = b()
	}
	return hs
}

// TestRunManyEightSpecsGCC is the PR's acceptance case verbatim: eight
// specs over gcc in one pass, byte-identical to eight sequential runs.
func TestRunManyEightSpecsGCC(t *testing.T) {
	_, fams := familyBuilders(t)
	builds := fams[:7]
	builds = append(builds, hybridBuilder(budget.Gskew, budget.TaggedGshare, 8))
	if len(builds) != 8 {
		t.Fatalf("want 8 builders, have %d", len(builds))
	}
	p := program.MustLoad("gcc")
	got := sim.RunMany(p, builds, manyOpt)
	for i, build := range builds {
		if want := sim.Run(p, build(), manyOpt); got[i] != want {
			t.Errorf("spec %d diverged from its sequential run", i)
		}
	}
}

// segmentsOf is the one-builder reference of a sharded cell: p's
// ShardWindows run one by one with RunSegment and merged in window
// order.
func segmentsOf(t *testing.T, p *program.Program, build sim.Builder, opt sim.Options, so sim.ShardOptions) sim.Result {
	t.Helper()
	ws, err := sim.ShardWindows(opt, so)
	if err != nil {
		t.Fatal(err)
	}
	merged := sim.RunSegment(p, build(), ws[0].Skip, ws[0].Train, ws[0].Measure)
	for _, w := range ws[1:] {
		merged.Merge(sim.RunSegment(p, build(), w.Skip, w.Train, w.Measure))
	}
	return merged
}

// TestMatrixMatchesSim: every Matrix cell equals its builder run alone
// over its program — unsharded and exact-sharded cells equal the
// sequential Run, and WarmupFrac 0.25 cells equal the same shard
// windows run one builder at a time — with cells in (builder, program)
// order, over synthetic and trace-replay programs.
func TestMatrixMatchesSim(t *testing.T) {
	_, fams := familyBuilders(t)
	builds := append([]sim.Builder{hybridBuilder(budget.Gskew, budget.TaggedGshare, 1)}, fams[:3]...)
	progs := []*program.Program{program.MustLoad("gcc"), program.MustLoad("unzip"), recordTrace(t, "gcc")}
	for _, so := range []sim.ShardOptions{{}, {Shards: 3, WarmupFrac: 1}, {Shards: 4, WarmupFrac: 0.25}} {
		got, err := sim.Matrix(builds, progs, manyOpt, so)
		if err != nil {
			t.Fatal(err)
		}
		for ci, build := range builds {
			for bi, p := range progs {
				want := sim.Run(p, build(), manyOpt)
				if so.WarmupFrac < 1 && so.Shards > 1 {
					want = segmentsOf(t, p, build, manyOpt, so)
				}
				if got[ci][bi] != want {
					t.Errorf("%+v: cell (builder %d, %s) = %+v, want %+v", so, ci, p.Name, got[ci][bi], want)
				}
			}
		}
	}
}

// TestValidateWindow: the one window rule accepts a zero or positive
// warmup with a positive measure, rejects a negative warmup and a
// non-positive measure, which the simulators would otherwise run as a
// different window without a word, and holds a replay program to its
// recorded events.
func TestValidateWindow(t *testing.T) {
	gcc := program.MustLoad("gcc")
	for _, w := range [][2]int{{30_000, 120_000}, {0, 1000}} {
		if err := sim.ValidateWindow(gcc, w[0], w[1]); err != nil {
			t.Errorf("window %v: %v", w, err)
		}
	}
	for _, w := range [][2]int{{-5, 1000}, {-5000, 20_000}, {1000, 0}, {20_000, 0}, {1000, -1}} {
		if err := sim.ValidateWindow(gcc, w[0], w[1]); err == nil {
			t.Errorf("window %v must be rejected", w)
		}
	}
	tp := inferredTrace(t, "gcc", 10_000)
	for _, w := range [][2]int{{2000, 8000}, {0, 10_000}} {
		if err := sim.ValidateWindow(tp, w[0], w[1]); err != nil {
			t.Errorf("trace window %v: %v", w, err)
		}
	}
	err := sim.ValidateWindow(tp, 30_000, 120_000)
	if err == nil || !strings.Contains(err.Error(), "150000") || !strings.Contains(err.Error(), "10000") {
		t.Errorf("a window past the trace's end must be rejected naming both counts, got %v", err)
	}
}
