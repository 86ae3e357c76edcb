package sim_test

// The devirtualization equivalence wall: the lanes planned by
// core.PlanLanes must be *byte-identical* to the generic interface
// engine — same Results, same checkpoint bytes — for every registered
// family, over synthetic and trace-replay workloads, through the
// sequential, sharded, and one-pass runners, and across a crash-resume
// boundary in either direction (a checkpoint written on lanes restored
// into a generic run, and vice versa).
// The generic engine (ManyStepper.ForceGeneric) is the reference
// semantics; the wall proves the lanes never leave it.

import (
	"reflect"
	"testing"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/core"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
)

// runGeneric is RunManySegment on the generic interface engine: every
// hybrid forced onto the per-branch reference loop.
func runGeneric(p *program.Program, hs []*core.Hybrid, skip, train, measure int) []sim.Result {
	st := sim.NewManyStepper(p, hs)
	defer st.Close()
	st.ForceGeneric()
	st.Skip(skip)
	st.Train(train)
	if measure > 0 {
		st.Measure(measure)
	}
	return st.Results()
}

// runShardedGeneric is runSharded on the generic engine: the same
// ShardWindows, each run generic, merged in interval order.
func runShardedGeneric(t *testing.T, p *program.Program, build sim.Builder, opt sim.Options, so sim.ShardOptions) sim.Result {
	t.Helper()
	ws, err := sim.ShardWindows(opt, so)
	if err != nil {
		t.Fatal(err)
	}
	var merged sim.Result
	for i, w := range ws {
		r := runGeneric(p, []*core.Hybrid{build()}, w.Skip, w.Train, w.Measure)[0]
		if i == 0 {
			merged = r
		} else {
			merged.Merge(r)
		}
	}
	return merged
}

func snapBytes(t *testing.T, h *core.Hybrid) []byte {
	t.Helper()
	enc := checkpoint.NewEncoder()
	h.Snapshot(enc)
	return append([]byte(nil), enc.Bytes()...)
}

func restoreBytes(t *testing.T, h *core.Hybrid, buf []byte) {
	t.Helper()
	if err := h.Restore(checkpoint.NewDecoder(buf)); err != nil {
		t.Fatal(err)
	}
}

// equivBuilders is the wall's configuration matrix: every registered
// family prophet-alone, plus filtered and unfiltered hybrid pairs so
// all three critic lane shapes (alone/unfiltered/filtered) and the
// wrong-path walk are exercised.
func equivBuilders(t *testing.T) (names []string, builds []sim.Builder) {
	t.Helper()
	names, builds = familyBuilders(t)
	names = append(names, "gskew+tagged-gshare-fb8", "perceptron+filtered-perceptron-fb4")
	builds = append(builds,
		hybridBuilder(budget.Gskew, budget.TaggedGshare, 8),
		hybridBuilder(budget.Perceptron, budget.FilteredPerceptron, 4))
	return names, builds
}

// TestSpecializationCoverage pins the devirtualization surface: every
// registered family runs on lanes as a prophet and as an unfiltered
// critic, and every predictor.Tagged family as a filtered critic — the
// full cross product resolves to lanes, one prophet lane per family —
// and every configuration in the wall's matrix does too (a silently
// generic pairing would make the walls vacuous).
func TestSpecializationCoverage(t *testing.T) {
	all, tagged, _, _ := registered(t)
	var hs []*core.Hybrid
	for _, prophet := range all {
		hs = append(hs, pair(prophet, nil, 0, false))
		for _, critic := range all {
			hs = append(hs, pair(prophet, critic, 4, false))
		}
		for _, critic := range tagged {
			hs = append(hs, pair(prophet, critic, 4, true))
		}
	}
	p := program.MustLoad("gcc")
	st := sim.NewManyStepper(p, hs)
	if n := st.NumSpecialized(); n != len(hs) {
		t.Errorf("NumSpecialized() = %d of %d (prophet × critic × filtered) pairs, want all", n, len(hs))
	}
	st.Train(1)
	if n := st.NumProphetLanes(); n != len(all) {
		t.Errorf("NumProphetLanes() = %d, want one per registered family (%d)", n, len(all))
	}
	st.Close()

	names, builds := equivBuilders(t)
	for i, build := range builds {
		st := sim.NewManyStepper(p, []*core.Hybrid{build()})
		if st.NumSpecialized() != 1 {
			t.Errorf("%s: not on lanes", names[i])
		}
		st.Close()
	}
}

// TestSpecializedMatchesGeneric is the wall itself: for every
// configuration × workload × runner, the specialized engine's Results
// and final checkpoint bytes equal the generic engine's.
func TestSpecializedMatchesGeneric(t *testing.T) {
	names, builds := equivBuilders(t)
	workloads := map[string]*program.Program{
		"gcc":       program.MustLoad("gcc"),
		"gcc-trace": recordTrace(t, "gcc"),
	}
	for wl, p := range workloads {
		t.Run(wl, func(t *testing.T) {
			t.Run("sequential", func(t *testing.T) {
				for i, build := range builds {
					hs, hg := build(), build()
					rs := sim.Run(p, hs, manyOpt)
					rg := runGeneric(p, []*core.Hybrid{hg}, 0, manyOpt.WarmupBranches, manyOpt.MeasureBranches)[0]
					if !reflect.DeepEqual(rs, rg) {
						t.Errorf("%s: specialized result diverged:\n got %+v\nwant %+v", names[i], rs, rg)
					}
					if !reflect.DeepEqual(snapBytes(t, hs), snapBytes(t, hg)) {
						t.Errorf("%s: checkpoint bytes diverged between engines", names[i])
					}
				}
			})
			t.Run("sharded", func(t *testing.T) {
				so := sim.ShardOptions{Shards: 4, WarmupFrac: 0.25}
				for i, build := range builds {
					rs, err := runSharded(p, build, manyOpt, so)
					if err != nil {
						t.Fatal(err)
					}
					rg := runShardedGeneric(t, p, build, manyOpt, so)
					if !reflect.DeepEqual(rs, rg) {
						t.Errorf("%s: sharded specialized diverged:\n got %+v\nwant %+v", names[i], rs, rg)
					}
				}
			})
			t.Run("many", func(t *testing.T) {
				hsS, hsG := buildAllTest(builds), buildAllTest(builds)
				rs := sim.RunManySegment(p, hsS, 0, manyOpt.WarmupBranches, manyOpt.MeasureBranches)
				rg := runGeneric(p, hsG, 0, manyOpt.WarmupBranches, manyOpt.MeasureBranches)
				for i := range builds {
					if !reflect.DeepEqual(rs[i], rg[i]) {
						t.Errorf("%s: one-pass specialized diverged:\n got %+v\nwant %+v", names[i], rs[i], rg[i])
					}
					if !reflect.DeepEqual(snapBytes(t, hsS[i]), snapBytes(t, hsG[i])) {
						t.Errorf("%s: one-pass checkpoint bytes diverged", names[i])
					}
				}
			})
		})
	}
}

// TestSpecializedCheckpointCrossRestore runs the kill-and-restart
// invariant across engines: a checkpoint written mid-measurement by one
// engine, restored and finished by the other, must reproduce the
// uninterrupted run bit for bit — in both directions.
func TestSpecializedCheckpointCrossRestore(t *testing.T) {
	p := program.MustLoad("gcc")
	build := hybridBuilder(budget.Gskew, budget.TaggedGshare, 8)
	const train, measure, cut = 2_000, 8_000, 3_000
	want := sim.RunSegment(p, build(), 0, train, measure)
	wantSnap := func() []byte {
		h := build()
		sim.RunSegment(p, h, 0, train, measure)
		return snapBytes(t, h)
	}()

	for _, dir := range []struct {
		name          string
		firstGeneric  bool
		secondGeneric bool
	}{
		{"specialized-then-generic", false, true},
		{"generic-then-specialized", true, false},
	} {
		t.Run(dir.name, func(t *testing.T) {
			h := build()
			st := sim.NewManyStepper(p, []*core.Hybrid{h})
			if dir.firstGeneric {
				st.ForceGeneric()
			} else if st.NumSpecialized() != 1 {
				t.Fatal("first leg unexpectedly generic")
			}
			st.Train(train)
			st.Measure(cut)
			partial := st.Results()[0]
			buf := snapBytes(t, h)
			pos := st.Pos()
			st.Close()

			h2 := build()
			restoreBytes(t, h2, buf)
			st2 := sim.NewManyStepper(p, []*core.Hybrid{h2})
			if dir.secondGeneric {
				st2.ForceGeneric()
			} else if st2.NumSpecialized() != 1 {
				t.Fatal("second leg unexpectedly generic")
			}
			st2.Skip(pos)
			st2.Measure(measure - cut)
			got := st2.Results()[0]
			st2.Close()
			got.Merge(partial)

			if !reflect.DeepEqual(got, want) {
				t.Errorf("cross-restored result %+v != uninterrupted %+v", got, want)
			}
			if !reflect.DeepEqual(snapBytes(t, h2), wantSnap) {
				t.Error("cross-restored final checkpoint bytes diverged from uninterrupted run")
			}
		})
	}
}
