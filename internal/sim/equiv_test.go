package sim_test

// The devirtualization equivalence wall: the lanes planned by
// core.PlanLanes must be *byte-identical* to the branch-at-a-time
// oracle — same Results, same checkpoint bytes — for every registered
// family, over synthetic and trace-replay workloads, through the
// sequential, sharded, and one-pass runners, and across a crash-resume
// boundary in either direction (a checkpoint written on lanes restored
// into an oracle run, and vice versa).
// The oracle (runOracle, core.Hybrid's Predict and Resolve) is the
// reference semantics; the wall proves the lanes never leave it.

import (
	"reflect"
	"testing"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/core"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
)

// runOracle is the branch-at-a-time engine the lanes replaced, with
// RunManySegment's window semantics and Results: every hybrid predicts
// each committed branch (core.Hybrid.Predict, its own speculative walk),
// the branch commits, and every hybrid resolves it. It stays here, and
// only here, as the reference semantics the lanes must reproduce
// exactly. Past a replay's end it panics where Run.CurrentAddr does.
func runOracle(p *program.Program, hs []*core.Hybrid, skip, train, measure int) []sim.Result {
	run := p.NewRun()
	for i := 0; i < skip; i++ {
		run.Next()
	}
	walk := core.WalkFunc(p.Walk)
	prs := make([]core.Prediction, len(hs))
	advance := func(n int) (uops uint64) {
		for i := 0; i < n; i++ {
			addr := run.CurrentAddr()
			for j, h := range hs {
				prs[j] = h.Predict(addr, walk)
			}
			ev := run.Next()
			for j, h := range hs {
				h.Resolve(prs[j], ev.Taken)
			}
			uops += uint64(ev.Uops)
		}
		return uops
	}
	out := make([]sim.Result, len(hs))
	for i, h := range hs {
		out[i] = sim.Result{Benchmark: p.Name, Suite: p.Suite, Config: h.Name()}
	}
	advance(train)
	if measure <= 0 {
		return out
	}
	base := make([]core.Stats, len(hs))
	for i, h := range hs {
		base[i] = h.Stats()
	}
	uops := advance(measure)
	for i, h := range hs {
		s := h.Stats()
		out[i].Branches = s.Branches - base[i].Branches
		out[i].Uops = uops
		out[i].ProphetMisp = s.ProphetMispredict - base[i].ProphetMispredict
		out[i].FinalMisp = s.FinalMispredict - base[i].FinalMispredict
		for c := range out[i].Critiques {
			out[i].Critiques[c] = s.Critiques[c] - base[i].Critiques[c]
		}
	}
	return out
}

// runShardedOracle is runSharded on the oracle: the same ShardWindows,
// each run on the oracle, merged in interval order.
func runShardedOracle(t *testing.T, p *program.Program, build sim.Builder, opt sim.Options, so sim.ShardOptions) sim.Result {
	t.Helper()
	ws, err := sim.ShardWindows(opt, so)
	if err != nil {
		t.Fatal(err)
	}
	var merged sim.Result
	for i, w := range ws {
		r := runOracle(p, []*core.Hybrid{build()}, w.Skip, w.Train, w.Measure)[0]
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
// critic, and every predictor.Tagged family as a filtered critic — one
// plan over the full cross product does not panic and runs one prophet
// lane per family — and every configuration in the wall's matrix plans
// too.
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
	st.Train(1)
	if n := st.NumProphetLanes(); n != len(all) {
		t.Errorf("NumProphetLanes() = %d over %d (prophet × critic × filtered) pairs, want one per registered family (%d)", n, len(hs), len(all))
	}
	st.Close()

	names, builds := equivBuilders(t)
	for i, build := range builds {
		st := sim.NewManyStepper(p, []*core.Hybrid{build()})
		st.Train(1)
		if st.NumProphetLanes() != 1 {
			t.Errorf("%s: not on lanes", names[i])
		}
		st.Close()
	}
}

// TestSpecializedMatchesGeneric is the wall itself: for every
// configuration × workload × runner, the lanes' Results and final
// checkpoint bytes equal the oracle's.
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
					rg := runOracle(p, []*core.Hybrid{hg}, 0, manyOpt.WarmupBranches, manyOpt.MeasureBranches)[0]
					if !reflect.DeepEqual(rs, rg) {
						t.Errorf("%s: specialized result diverged:\n got %+v\nwant %+v", names[i], rs, rg)
					}
					if !reflect.DeepEqual(snapBytes(t, hs), snapBytes(t, hg)) {
						t.Errorf("%s: checkpoint bytes diverged from the oracle", names[i])
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
					rg := runShardedOracle(t, p, build, manyOpt, so)
					if !reflect.DeepEqual(rs, rg) {
						t.Errorf("%s: sharded specialized diverged:\n got %+v\nwant %+v", names[i], rs, rg)
					}
				}
			})
			t.Run("many", func(t *testing.T) {
				hsS, hsG := buildAllTest(builds), buildAllTest(builds)
				rs := sim.RunManySegment(p, hsS, 0, manyOpt.WarmupBranches, manyOpt.MeasureBranches)
				rg := runOracle(p, hsG, 0, manyOpt.WarmupBranches, manyOpt.MeasureBranches)
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

	// A leg runs one hybrid over a window on one engine.
	type leg func(h *core.Hybrid, skip, train, measure int) sim.Result
	lanes := func(h *core.Hybrid, skip, train, measure int) sim.Result {
		return sim.RunSegment(p, h, skip, train, measure)
	}
	oracle := func(h *core.Hybrid, skip, train, measure int) sim.Result {
		return runOracle(p, []*core.Hybrid{h}, skip, train, measure)[0]
	}
	for _, dir := range []struct {
		name          string
		first, second leg
	}{
		{"specialized-then-generic", lanes, oracle},
		{"generic-then-specialized", oracle, lanes},
	} {
		t.Run(dir.name, func(t *testing.T) {
			h := build()
			partial := dir.first(h, 0, train, cut)
			buf := snapBytes(t, h)

			h2 := build()
			restoreBytes(t, h2, buf)
			got := dir.second(h2, train+cut, 0, measure-cut)
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
