package core_test

import (
	"fmt"
	"testing"

	"prophetcritic/internal/bitutil"
	"prophetcritic/internal/budget"
	"prophetcritic/internal/core"
	"prophetcritic/internal/predictor"
	"prophetcritic/internal/program"
	"prophetcritic/internal/registry"
)

// wantVerdict is the verdict a Predict result implies: the prophet's
// direction, and whether an explicit critique disagreed with it.
func wantVerdict(pr core.Prediction) uint8 {
	var v uint8
	if pr.Prophet {
		v |= core.VerdictProphet
	}
	if pr.CriticUsed && pr.Critic != pr.Prophet {
		v |= core.VerdictDisagree
	}
	return v
}

// unregistered is a predictor type with no lanes.
func unregistered() predictor.Predictor {
	return &predictor.Func{
		PredictFn: func(addr, hist uint64) bool { return bitutil.Spread(addr^hist)&1 == 1 },
		HistLen:   10,
		Label:     "unregistered",
	}
}

// unregisteredTagged is a predictor.Tagged type with no lanes.
type unregisteredTagged struct{ *predictor.Func }

func (u unregisteredTagged) PredictTagged(addr, hist uint64) (bool, bool) {
	return u.Predict(addr, hist), true
}

func (u unregisteredTagged) Allocate(addr, hist uint64, taken bool) {}

// TestPlanLanesRejectsUnregistered: a hybrid whose prophet or critic
// type registered no lane for its role cannot be planned, and the panic
// names the Go type and the role — before any hybrid of the plan is
// touched.
func TestPlanLanesRejectsUnregistered(t *testing.T) {
	p := program.MustLoad("gcc")
	registered := func() predictor.Predictor { return budget.MustResolve(budget.Gshare, 2).Build() }
	cfg := core.Config{FutureBits: 4, BORLen: 12}
	filtered := cfg
	filtered.Filtered = true
	for _, c := range []struct {
		role, typ string
		h         *core.Hybrid
	}{
		{"prophet", "*predictor.Func", core.New(unregistered(), registered(), cfg)},
		{"critic", "*predictor.Func", core.New(registered(), unregistered(), cfg)},
		{"filtered critic", "core_test.unregisteredTagged",
			core.New(registered(), unregisteredTagged{unregistered().(*predictor.Func)}, filtered)},
	} {
		t.Run(c.role, func(t *testing.T) {
			// Two fresh same-spec hybrids: a plan that got as far as
			// grouping would alias the second's prophet to the first's.
			lead, peer := core.New(registered(), nil, core.Config{}), core.New(registered(), nil, core.Config{})
			prophet := peer.Prophet()
			msg := func() (v any) {
				defer func() { v = recover() }()
				core.PlanLanes(p, []*core.Hybrid{lead, peer, c.h}, 16)
				return nil
			}()
			want := fmt.Sprintf("core: %s %s has no registered lanes", c.role, c.typ)
			if fmt.Sprint(msg) != want {
				t.Errorf("PlanLanes panicked with %v, want %q", msg, want)
			}
			if peer.Prophet() != prophet {
				t.Error("a rejected plan touched a registered hybrid")
			}
		})
	}
}

// TestLaneVerdictsMatchPredict steps, per registered prophet family, the
// prophet alone and every registered critic with it — unfiltered, and
// filtered where the critic is tagged — in one plan (so they share a
// prophet lane), and holds every verdict byte to the bits Hybrid.Predict
// gives a twin hybrid.
func TestLaneVerdictsMatchPredict(t *testing.T) {
	type mk = func() predictor.Predictor
	var builds []mk
	var names []string
	for _, d := range registry.All() {
		k, err := budget.CanonicalKind(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := budget.Resolve(k, 2)
		if err != nil {
			t.Fatal(err)
		}
		builds, names = append(builds, cfg.Build), append(names, d.Name)
	}
	p := program.MustLoad("gcc")
	const events, block = 3_000, 256
	fbs := []uint{0, 1, 4, 12}
	for pi, prophet := range builds {
		t.Run(names[pi], func(t *testing.T) {
			var cases []string
			var pairs [][2]*core.Hybrid // lanes hybrid, Predict/Resolve twin
			add := func(name string, build func() *core.Hybrid) {
				cases = append(cases, name)
				pairs = append(pairs, [2]*core.Hybrid{build(), build()})
			}
			add("alone", func() *core.Hybrid { return core.New(prophet(), nil, core.Config{}) })
			for ci, critic := range builds {
				fb := fbs[(pi+ci)%len(fbs)]
				_, tagged := critic().(predictor.Tagged)
				for _, filtered := range []bool{false, true} {
					if filtered && !tagged {
						continue
					}
					add(fmt.Sprintf("%s filtered=%v fb%d", names[ci], filtered, fb), func() *core.Hybrid {
						c := critic()
						return core.New(prophet(), c, core.Config{FutureBits: fb, Filtered: filtered, BORLen: max(c.HistoryLen(), 12)})
					})
				}
			}

			hs := make([]*core.Hybrid, len(pairs))
			for i := range pairs {
				hs[i] = pairs[i][0]
			}
			lanes := core.PlanLanes(p, hs, block)
			vs := lanes.Verdicts()
			walk := core.WalkFunc(p.Walk)
			run := p.NewRun()
			evs := make([]program.Event, block)
			for done := 0; done < events; done += block {
				evs = evs[:run.NextBlock(evs)]
				lanes.Step(evs)
				for i, pair := range pairs {
					twin := pair[1]
					for j := range evs {
						pr := twin.Predict(evs[j].Addr, walk)
						if got, want := vs[i][j], wantVerdict(pr); got != want {
							t.Fatalf("%s: event %d: verdict %02b, Predict gives %02b", cases[i], done+j, got, want)
						}
						twin.Resolve(pr, evs[j].Taken)
					}
				}
			}
			for i, pair := range pairs {
				if pair[0].Stats() != pair[1].Stats() {
					t.Errorf("%s: lane stats diverged from Predict/Resolve", cases[i])
				}
			}
		})
	}
}
