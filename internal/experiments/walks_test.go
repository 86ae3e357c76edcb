package experiments

import (
	"testing"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/core"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
)

// lanedProphet is what countingProphet wraps: a lane type with state.
type lanedProphet interface {
	core.Laned
	checkpoint.Snapshotter
}

// countingProphet forwards to a prophet and counts its Predict calls.
// It registers lanes like any family, so the prophet lane calls it
// exactly as it calls the type it wraps.
type countingProphet struct {
	lanedProphet
	predicts *uint64
}

func (c *countingProphet) Predict(addr, hist uint64) bool {
	*c.predicts++
	return c.lanedProphet.Predict(addr, hist)
}

func init() { core.RegisterLanes[*countingProphet]() }

// prophetPredictsPerBranch runs a Figure 6 subfigure's 26 hybrids over
// p at the Fast window with every prophet counting, and returns the
// prophet Predict calls per branch per prophet lane.
func prophetPredictsPerBranch(t *testing.T, p *program.Program, prophetKind, criticKind budget.Kind, unfiltered bool) float64 {
	t.Helper()
	var predicts uint64
	var hs []*core.Hybrid
	for _, b := range fig6Builds(prophetKind, criticKind, unfiltered) {
		h := b()
		c := &countingProphet{lanedProphet: h.Prophet().(lanedProphet), predicts: &predicts}
		hs = append(hs, core.New(c, h.Critic(), h.Config()))
	}
	st := sim.NewManyStepper(p, hs)
	defer st.Close()
	w := Fast.Functional
	st.Train(w.WarmupBranches)
	st.Measure(w.MeasureBranches)
	branches := uint64(w.WarmupBranches+w.MeasureBranches) * uint64(st.NumProphetLanes())
	return float64(predicts) / float64(branches)
}

// TestFig6ProphetPredictsPerBranch counts the prophet Predict calls the
// lanes make per branch in each Figure 6 panel on gcc. Without walk
// reuse every panel makes 12.00 (the branch and 11 walk steps, for the
// 12-future-bit critics); the bound fails if reuse silently stops.
func TestFig6ProphetPredictsPerBranch(t *testing.T) {
	p := program.MustLoad("gcc")
	for _, c := range []struct {
		panel            string
		prophet, critic  budget.Kind
		unfiltered       bool
		maxPerBranchLane float64
	}{
		{"fig6a", budget.Gskew, budget.Perceptron, true, 4},
		{"fig6b", budget.Gshare, budget.FilteredPerceptron, false, 6},
		{"fig6c", budget.Perceptron, budget.TaggedGshare, false, 8},
	} {
		got := prophetPredictsPerBranch(t, p, c.prophet, c.critic, c.unfiltered)
		t.Logf("%s on gcc: %.2f prophet predictions per branch per prophet lane", c.panel, got)
		if got > c.maxPerBranchLane {
			t.Errorf("%s on gcc: %.2f prophet predictions per branch per lane, want <= %v (walk reuse off?)", c.panel, got, c.maxPerBranchLane)
		}
	}
}
