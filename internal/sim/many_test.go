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

// TestRunManyShardedMatchesRunSharded: the sharded one-pass variant must
// match per-builder RunSharded at shards 1, 4, and 7 — exactly at
// WarmupFrac 1 (where both equal the sequential run) and also at a
// partial warmup fraction, where the two sharded runners must still
// agree with each other.
func TestRunManyShardedMatchesRunSharded(t *testing.T) {
	_, builds := familyBuilders(t)
	p := program.MustLoad("gcc")
	for _, frac := range []float64{1, 0.25} {
		for _, k := range []int{1, 4, 7} {
			so := sim.ShardOptions{Shards: k, WarmupFrac: frac}
			got, err := sim.RunManySharded(p, builds, manyOpt, so)
			if err != nil {
				t.Fatal(err)
			}
			for i, build := range builds {
				want, err := sim.RunSharded(p, build, manyOpt, so)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want {
					t.Errorf("K=%d frac=%g builder %d: one-pass sharded diverged:\n got %+v\nwant %+v", k, frac, i, got[i], want)
				}
				if frac == 1 {
					if seq := sim.Run(p, build(), manyOpt); got[i] != seq {
						t.Errorf("K=%d builder %d: sharded one-pass diverged from sequential", k, i)
					}
				}
			}
		}
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

// TestRunManyPrograms: program fan-out keeps (program, builder) order.
func TestRunManyPrograms(t *testing.T) {
	_, builds := familyBuilders(t)
	builds = builds[:3]
	progs := []*program.Program{program.MustLoad("gcc"), program.MustLoad("unzip")}
	got, err := sim.RunManyPrograms(progs, builds, manyOpt)
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range progs {
		for ci, build := range builds {
			if want := sim.Run(p, build(), manyOpt); got[pi][ci] != want {
				t.Errorf("prog %s builder %d diverged", p.Name, ci)
			}
		}
	}
}
