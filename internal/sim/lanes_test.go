package sim_test

// The lane equivalence wall: hybrids sharing a prophet lane must each
// end exactly where they would alone on the branch-at-a-time oracle —
// same Results, same checkpoint bytes — for a fig6-shaped group over
// every registered prophet family, over synthetic and trace-replay
// workloads (with a recorded CFG, and with an inferred one whose
// unobserved edges end walks early), across a mid-measure resume, and
// past a trace's end.

import (
	"fmt"
	"io"
	"reflect"
	"testing"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/core"
	"prophetcritic/internal/predictor"
	"prophetcritic/internal/program"
	"prophetcritic/internal/registry"
	"prophetcritic/internal/sim"
)

// registered returns a 2KB-budget constructor per registered family,
// in registry order, and the subset implementing the filtered
// critic protocol.
func registered(t testing.TB) (all, tagged []func() predictor.Predictor, names, taggedNames []string) {
	t.Helper()
	for _, d := range registry.All() {
		k, err := budget.CanonicalKind(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := budget.Resolve(k, 2)
		if err != nil {
			t.Fatalf("resolving %s: %v", k, err)
		}
		mk := cfg.Build
		all, names = append(all, mk), append(names, d.Name)
		if _, ok := mk().(predictor.Tagged); ok {
			tagged, taggedNames = append(tagged, mk), append(taggedNames, d.Name)
		}
	}
	return all, tagged, names, taggedNames
}

// pair builds a hybrid of fresh predictors; critic nil is prophet alone.
func pair(prophet, critic func() predictor.Predictor, fb uint, filtered bool) *core.Hybrid {
	if critic == nil {
		return core.New(prophet(), nil, core.Config{})
	}
	c := critic()
	return core.New(prophet(), c, core.Config{FutureBits: fb, Filtered: filtered, BORLen: max(c.HistoryLen(), 12)})
}

// laneCase is one hybrid of the wall: a name and a builder.
type laneCase struct {
	name  string
	build func() *core.Hybrid
}

// fig6Groups returns, for every registered prophet family, a
// fig6-shaped group — prophet alone plus unfiltered and filtered critics
// at fb 0, 1, 4, 8 and 12 — and one same-spec hybrid restored from a
// 5k-branch snapshot, which holds a different prophet state and must
// form its own lane.
func fig6Groups(t *testing.T) []laneCase {
	t.Helper()
	all, tagged, names, taggedNames := registered(t)
	gcc := program.MustLoad("gcc")
	var cases []laneCase
	for i, prophet := range all {
		prophet := prophet
		cases = append(cases, laneCase{names[i] + " alone", func() *core.Hybrid { return pair(prophet, nil, 0, false) }})
		uc, tc := (i+1)%len(all), i%len(tagged)
		for _, fb := range []uint{0, 1, 4, 8, 12} {
			fb := fb
			cases = append(cases,
				laneCase{fmt.Sprintf("%s + %s unfiltered fb%d", names[i], names[uc], fb),
					func() *core.Hybrid { return pair(prophet, all[uc], fb, false) }},
				laneCase{fmt.Sprintf("%s + %s filtered fb%d", names[i], taggedNames[tc], fb),
					func() *core.Hybrid { return pair(prophet, tagged[tc], fb, true) }})
		}
		warm := pair(prophet, tagged[tc], 4, true)
		sim.RunSegment(gcc, warm, 0, 5_000, 0)
		snap := snapBytes(t, warm)
		cases = append(cases, laneCase{names[i] + " restored from 5k", func() *core.Hybrid {
			h := pair(prophet, tagged[tc], 4, true)
			restoreBytes(t, h, snap)
			return h
		}})
	}
	return cases
}

// eventSlice replays recorded events as a trace stream.
type eventSlice struct {
	evs []program.Event
	pos int
}

func (s *eventSlice) Next() (program.Event, error) {
	if s.pos == len(s.evs) {
		return program.Event{}, io.EOF
	}
	s.pos++
	return s.evs[s.pos-1], nil
}

func (s *eventSlice) Close() error { return nil }

// inferredTrace records n committed events of bench and replays them
// with no recorded CFG: program.FromTrace infers the graph from the
// committed stream, so a never-taken edge ends a speculative walk early
// and critics get fewer future bits than they asked for.
func inferredTrace(t *testing.T, bench string, n int) *program.Program {
	t.Helper()
	run := program.MustLoad(bench).NewRun()
	evs := make([]program.Event, n)
	for i := range evs {
		evs[i] = run.Next()
	}
	p, err := program.FromTrace(program.TraceInfo{Name: bench},
		func() (program.EventSource, error) { return &eventSlice{evs: evs}, nil })
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func buildCases(cases []laneCase) []*core.Hybrid {
	hs := make([]*core.Hybrid, len(cases))
	for i, c := range cases {
		hs[i] = c.build()
	}
	return hs
}

// TestLanesMatchGeneric runs every fig6-shaped group in one stepper and
// holds each hybrid's Result and final checkpoint bytes to the same
// hybrid run alone on the oracle: in one pass, across a
// mid-measure resume, and through a second stepper over the same
// hybrids; a replay past the trace's end must panic alike.
func TestLanesMatchGeneric(t *testing.T) {
	cases := fig6Groups(t)
	nFamilies := len(registry.All())
	const train, measure, cut = 2_000, 5_000, 1_500
	workloads := []struct {
		name string
		p    *program.Program
	}{
		{"gcc", program.MustLoad("gcc")},
		{"gcc-trace", recordTrace(t, "gcc")},
		{"gcc-inferred", inferredTrace(t, "gcc", train+measure)},
	}
	for _, wl := range workloads {
		p := wl.p
		want := make([]sim.Result, len(cases))
		wantSnap := make([][]byte, len(cases))
		for i, c := range cases {
			h := c.build()
			want[i] = runOracle(p, []*core.Hybrid{h}, 0, train, measure)[0]
			wantSnap[i] = snapBytes(t, h)
		}

		t.Run(wl.name+"/one-pass", func(t *testing.T) {
			hs := buildCases(cases)
			st := sim.NewManyStepper(p, hs)
			st.Train(train)
			if n := st.NumProphetLanes(); n != 2*nFamilies {
				t.Errorf("NumProphetLanes() = %d, want %d (a fig6 group and a restored hybrid per family)", n, 2*nFamilies)
			}
			st.Measure(measure)
			got := st.Results()
			st.Close()
			for i, c := range cases {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s: lanes diverged from the oracle:\n got %+v\nwant %+v", c.name, got[i], want[i])
				}
				if !reflect.DeepEqual(snapBytes(t, hs[i]), wantSnap[i]) {
					t.Errorf("%s: checkpoint bytes diverged from the oracle", c.name)
				}
			}
		})

		t.Run(wl.name+"/resume", func(t *testing.T) {
			hs := buildCases(cases)
			st := sim.NewManyStepper(p, hs)
			st.Train(train)
			st.Measure(cut)
			partial := st.Results()
			snaps := make([][]byte, len(hs))
			for i, h := range hs {
				snaps[i] = snapBytes(t, h)
			}
			pos := st.Pos()
			lanes := st.NumProphetLanes()
			st.Close()

			hs2 := buildCases(cases)
			for i, h := range hs2 {
				restoreBytes(t, h, snaps[i])
			}
			st2 := sim.NewManyStepper(p, hs2)
			st2.Skip(pos)
			st2.Measure(measure - cut)
			// Grouping is by state: prophet states that converged since
			// the first plan may share a lane now, never the reverse.
			if n := st2.NumProphetLanes(); n == 0 || n > lanes {
				t.Errorf("resumed stepper runs %d prophet lanes, the interrupted one ran %d", n, lanes)
			}
			got := st2.Results()
			st2.Close()
			for i, c := range cases {
				got[i].Merge(partial[i])
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s: resumed lanes diverged from the oracle:\n got %+v\nwant %+v", c.name, got[i], want[i])
				}
				if !reflect.DeepEqual(snapBytes(t, hs2[i]), wantSnap[i]) {
					t.Errorf("%s: resumed checkpoint bytes diverged from the oracle", c.name)
				}
			}
		})
	}

	// Hybrids grouped by one stepper keep sharing their prophets; a
	// second lane stepper over all of them must continue each exactly as
	// the oracle continues it alone.
	t.Run("gcc/second-stepper", func(t *testing.T) {
		p, sub := workloads[0].p, cases[:24] // two families' groups
		hs := buildCases(sub)
		sim.RunManySegment(p, hs, 0, train, 0)
		got := sim.RunManySegment(p, hs, 0, train, measure)
		for i, c := range sub {
			h := c.build()
			runOracle(p, []*core.Hybrid{h}, 0, train, 0)
			want := runOracle(p, []*core.Hybrid{h}, 0, train, measure)[0]
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("%s: second lane stepper diverged from the oracle:\n got %+v\nwant %+v", c.name, got[i], want)
			}
			if !reflect.DeepEqual(snapBytes(t, hs[i]), snapBytes(t, h)) {
				t.Errorf("%s: checkpoint bytes after a second lane stepper diverged from the oracle", c.name)
			}
		}
	})

	// A replay driven past the recorded trace's end must panic in the
	// lanes exactly as it does on the oracle.
	t.Run("gcc-inferred/past-the-end", func(t *testing.T) {
		p := workloads[2].p
		over := train + measure + 300
		panicOf := func(run func(hs []*core.Hybrid)) (v any) {
			defer func() { v = recover() }()
			run(buildCases(cases[:12])) // one family's group
			return nil
		}
		lanes := panicOf(func(hs []*core.Hybrid) { sim.RunManySegment(p, hs, 0, over, 0) })
		oracle := panicOf(func(hs []*core.Hybrid) { runOracle(p, hs, 0, over, 0) })
		if lanes == nil || oracle == nil {
			t.Fatalf("lanes panicked with %v, the oracle with %v; want both to panic", lanes, oracle)
		}
		if fmt.Sprint(lanes) != fmt.Sprint(oracle) {
			t.Errorf("lanes panicked with %q, the oracle with %q", lanes, oracle)
		}
	})
}

// TestManyStepperMeasureZeroAllocs: steady-state measured stepping
// allocates nothing, one branch or a thousand at a time, for each
// Figure 6 panel — 26 hybrids over 2 prophets: (a) gskew with an
// unfiltered perceptron critic, (b) gshare with a filtered perceptron,
// (c) perceptron with a tagged gshare — for the headline hybrid alone,
// the shape of every Run and single-spec service job, and for 8
// bimodal prophets with no critic, with the throughput counters off
// and on. Planning allocates once per stepper, at the first Train.
func TestManyStepperMeasureZeroAllocs(t *testing.T) {
	fig6 := func(prophet, critic budget.Kind, filtered bool) func() []*core.Hybrid {
		return func() []*core.Hybrid {
			var hs []*core.Hybrid
			for _, pkb := range []int{4, 16} {
				pc := budget.MustResolve(prophet, pkb)
				hs = append(hs, core.New(pc.Build(), nil, core.Config{}))
				for _, ckb := range []int{2, 8, 32} {
					cc := budget.MustResolve(critic, ckb)
					for _, fb := range []uint{1, 4, 8, 12} {
						hs = append(hs, core.New(pc.Build(), cc.Build(), core.Config{FutureBits: fb, Filtered: filtered, BORLen: cc.BORSize()}))
					}
				}
			}
			return hs
		}
	}
	headline := func() []*core.Hybrid {
		cc := budget.MustResolve(budget.TaggedGshare, 2)
		return []*core.Hybrid{core.New(budget.MustResolve(budget.Gskew, 2).Build(), cc.Build(),
			core.Config{FutureBits: 8, Filtered: true, BORLen: cc.BORSize()})}
	}
	// 1-8 KB bimodal budgets fit 1, 2, 4 and 8 KB tables: 4 distinct
	// prophets, so 4 lanes.
	bimodal8 := func() []*core.Hybrid {
		hs := make([]*core.Hybrid, 8)
		for i := range hs {
			hs[i] = core.New(budget.MustResolve(budget.Bimodal, i+1).Build(), nil, core.Config{})
		}
		return hs
	}
	defer sim.EnableObs(false)
	for _, c := range []struct {
		name         string
		hybrids      func() []*core.Hybrid
		prophetLanes int
		obs          bool
	}{
		{"the fig6a panel", fig6(budget.Gskew, budget.Perceptron, false), 2, false},
		{"the fig6b panel", fig6(budget.Gshare, budget.FilteredPerceptron, true), 2, false},
		{"the fig6c panel", fig6(budget.Perceptron, budget.TaggedGshare, true), 2, false},
		{"the headline hybrid", headline, 1, false},
		{"8 bimodal prophets", bimodal8, 4, false},
		{"8 bimodal prophets with obs on", bimodal8, 4, true},
	} {
		sim.EnableObs(c.obs)
		st := sim.NewManyStepper(program.MustLoad("gcc"), c.hybrids())
		st.Train(2_000)
		if n := st.NumProphetLanes(); n != c.prophetLanes {
			t.Errorf("%s runs %d prophet lanes, want %d", c.name, n, c.prophetLanes)
		}
		for _, n := range []int{1, 1_000} {
			if allocs := testing.AllocsPerRun(20, func() { st.Measure(n) }); allocs != 0 {
				t.Errorf("ManyStepper.Measure(%d) over %s allocates %.1f times per call, want 0", n, c.name, allocs)
			}
		}
		st.Close()
	}
}

// TestTaggedMissIsNoOpinion: on a tag miss every filtered-critic
// family (tagged gshare, filtered perceptron) returns (false, false) —
// cold, and after allocations have trained the underlying predictor
// toward taken.
func TestTaggedMissIsNoOpinion(t *testing.T) {
	_, tagged, _, names := registered(t)
	if len(tagged) < 2 {
		t.Fatalf("registered Tagged families %v, want at least tagged gshare and filtered perceptron", names)
	}
	for i, mk := range tagged {
		c := mk().(predictor.Tagged)
		misses := 0
		x := uint64(0x2545f4914f6cdd1d)
		for round := 0; round < 4000; round++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			addr, hist := 0x40_0000+(x%64)*4, x>>8
			taken, hit := c.PredictTagged(addr, hist)
			if !hit {
				misses++
				if taken {
					t.Fatalf("%s: round %d: miss returned taken", names[i], round)
				}
				if round%2 == 0 {
					c.Allocate(addr, hist, true)
				}
				continue
			}
			c.Update(addr, hist, true)
		}
		if misses == 0 {
			t.Fatalf("%s: no lookup missed", names[i])
		}
	}
}
