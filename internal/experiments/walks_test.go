package experiments

import (
	"testing"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/core"
	"prophetcritic/internal/perceptron"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
)

// lanedProphet is what countingProphet wraps: a lane type with state.
type lanedProphet interface {
	core.Laned
	checkpoint.Snapshotter
}

// countingProphet forwards to a prophet and counts its Predict and
// UpdateStable calls. It registers lanes like any family, so the
// prophet lane calls it exactly as it calls the type it wraps.
type countingProphet struct {
	lanedProphet
	n *walkCounts
}

// walkCounts is what the counting prophets of one run add up.
type walkCounts struct {
	predicts, updates uint64
}

func (c *countingProphet) Predict(addr, hist uint64) bool {
	c.n.predicts++
	return c.lanedProphet.Predict(addr, hist)
}

func (c *countingProphet) UpdateStable(addr, hist uint64, taken bool) bool {
	c.n.updates++
	return c.lanedProphet.UpdateStable(addr, hist, taken)
}

func init() { core.RegisterLanes[*countingProphet]() }

// walkRun is what prophetPredictsPerBranch measured.
type walkRun struct {
	perBranchLane float64 // prophet Predict calls per branch per prophet lane
	updates       uint64  // prophet UpdateStable calls
	commitHits    uint64  // of those, served by a perceptron's commit memo
}

// prophetPredictsPerBranch runs a Figure 6 subfigure's 26 hybrids over
// p at the Fast window with every prophet counting.
func prophetPredictsPerBranch(t *testing.T, p *program.Program, prophetKind, criticKind budget.Kind, unfiltered bool) walkRun {
	t.Helper()
	var n walkCounts
	var hs []*core.Hybrid
	var perceptrons []*perceptron.Perceptron
	for _, b := range fig6Builds(prophetKind, criticKind, unfiltered) {
		h := b()
		c := &countingProphet{lanedProphet: h.Prophet().(lanedProphet), n: &n}
		if pp, ok := h.Prophet().(*perceptron.Perceptron); ok {
			perceptrons = append(perceptrons, pp)
		}
		hs = append(hs, core.New(c, h.Critic(), h.Config()))
	}
	st := sim.NewManyStepper(p, hs)
	defer st.Close()
	w := Fast.Functional
	st.Train(w.WarmupBranches)
	st.Measure(w.MeasureBranches)
	branches := uint64(w.WarmupBranches+w.MeasureBranches) * uint64(st.NumProphetLanes())
	run := walkRun{perBranchLane: float64(n.predicts) / float64(branches), updates: n.updates}
	for _, pp := range perceptrons {
		run.commitHits += pp.CommitHits()
	}
	return run
}

// TestFig6ProphetPredictsPerBranch counts the prophet Predict calls the
// lanes make per branch in each Figure 6 panel on gcc. Without walk
// reuse every panel makes 12.00 (the branch and 11 walk steps, for the
// 12-future-bit critics); the bound fails if reuse silently stops. For
// fig6c's perceptron prophet it also counts the UpdateStable calls whose
// dot product came from the commit memo rather than a second
// evaluation; a walk between a branch's prediction and its update
// leaves only that memo holding the branch's output.
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
		run := prophetPredictsPerBranch(t, p, c.prophet, c.critic, c.unfiltered)
		t.Logf("%s on gcc: %.2f prophet predictions per branch per prophet lane", c.panel, run.perBranchLane)
		if run.perBranchLane > c.maxPerBranchLane {
			t.Errorf("%s on gcc: %.2f prophet predictions per branch per lane, want <= %v (walk reuse off?)", c.panel, run.perBranchLane, c.maxPerBranchLane)
		}
		if c.prophet == budget.Perceptron {
			t.Logf("%s on gcc: %d of %d prophet UpdateStable calls served by the commit memo", c.panel, run.commitHits, run.updates)
			if run.commitHits == 0 {
				t.Errorf("%s on gcc: no prophet UpdateStable call of %d reused its branch's output (commit memo off?)", c.panel, run.updates)
			}
		}
	}
}
