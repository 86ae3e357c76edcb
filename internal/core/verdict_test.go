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

// wantVerdict is the verdict the interface path implies: the prophet's
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

// unregistered is a predictor type with no lanes: a hybrid using it
// stays on the interface path inside Lanes.Step.
func unregistered() predictor.Predictor {
	return &predictor.Func{
		PredictFn: func(addr, hist uint64) bool { return bitutil.Spread(addr^hist)&1 == 1 },
		HistLen:   10,
		Label:     "unregistered",
	}
}

// TestLaneVerdictsMatchPredict steps, per registered prophet family, the
// prophet alone and every registered critic with it — unfiltered, and
// filtered where the critic is tagged — in one plan (so they share a
// prophet lane), plus two interface-path hybrids, and holds every
// verdict byte to the bits Hybrid.Predict gives a twin hybrid.
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
			var pairs [][2]*core.Hybrid // lanes hybrid, interface twin
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
			add("unregistered prophet", func() *core.Hybrid {
				return core.New(unregistered(), builds[pi](), core.Config{FutureBits: 4, BORLen: 12})
			})
			add("unregistered critic", func() *core.Hybrid {
				return core.New(prophet(), unregistered(), core.Config{FutureBits: 4, BORLen: 12})
			})

			hs := make([]*core.Hybrid, len(pairs))
			for i := range pairs {
				hs[i] = pairs[i][0]
			}
			if n := core.NumOnLanes(hs); n != len(hs)-2 {
				t.Fatalf("%d hybrids on lanes, want all but the 2 unregistered", n)
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
					t.Errorf("%s: lane stats diverged from the interface path", cases[i])
				}
			}
		})
	}
}
