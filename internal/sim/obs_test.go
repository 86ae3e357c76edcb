package sim

import (
	"testing"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/core"
	"prophetcritic/internal/program"
)

func obsTestHybrid(t *testing.T) *core.Hybrid {
	t.Helper()
	return core.New(
		budget.MustLookup(budget.Gskew, 8).Build(),
		budget.MustLookup(budget.TaggedGshare, 8).Build(),
		core.Config{FutureBits: 1, Filtered: true, BORLen: 18},
	)
}

// TestObsCountersExact pins the flush accounting: every completed
// window commits exactly its branch total — the in-loop flushes cover
// the full quanta and the tail flush covers the remainder — so the
// sampled counters are exact at window boundaries.
func TestObsCountersExact(t *testing.T) {
	p, err := program.Load("gcc")
	if err != nil {
		t.Fatal(err)
	}
	EnableObs(true)
	t.Cleanup(func() { EnableObs(false) })

	before := ReadObs()
	const train, measure = 20_000, 30_000 // straddles the 16384 quantum
	RunSegment(p, obsTestHybrid(t), 0, train, measure)
	after := ReadObs()
	if got := after.Branches - before.Branches; got != train+measure {
		t.Errorf("RunSegment branches delta = %d, want %d", got, train+measure)
	}
	if got := after.Predictions - before.Predictions; got != train+measure {
		t.Errorf("RunSegment predictions delta = %d, want %d", got, train+measure)
	}

	// A one-pass many run counts the stream once and predictions per
	// resident hybrid.
	before = after
	hs := []*core.Hybrid{obsTestHybrid(t), obsTestHybrid(t), obsTestHybrid(t)}
	RunManySegment(p, hs, 0, train, measure)
	after = ReadObs()
	if got := after.Branches - before.Branches; got != train+measure {
		t.Errorf("RunManySegment branches delta = %d, want %d", got, train+measure)
	}
	if got := after.Predictions - before.Predictions; got != 3*(train+measure) {
		t.Errorf("RunManySegment predictions delta = %d, want %d", got, 3*(train+measure))
	}

	// Stepper increments flush per Train/Measure call with the same
	// exactness.
	before = after
	st := NewManyStepper(p, []*core.Hybrid{obsTestHybrid(t)})
	st.Skip(100) // fast-forward is not simulated work: not counted
	st.Train(5_000)
	st.Measure(17_000)
	st.Close()
	after = ReadObs()
	if got := after.Branches - before.Branches; got != 22_000 {
		t.Errorf("Stepper branches delta = %d, want 22000", got)
	}
}

func TestObsDisabledCountsNothing(t *testing.T) {
	p, err := program.Load("gcc")
	if err != nil {
		t.Fatal(err)
	}
	EnableObs(false)
	before := ReadObs()
	RunSegment(p, obsTestHybrid(t), 0, 1_000, 20_000)
	after := ReadObs()
	if after.Branches != before.Branches || after.Predictions != before.Predictions {
		t.Errorf("disabled obs still counted: %+v -> %+v", before, after)
	}
}

func TestObsActiveRuns(t *testing.T) {
	p, err := program.Load("gcc")
	if err != nil {
		t.Fatal(err)
	}
	base := ReadObs().ActiveRuns
	st := NewManyStepper(p, []*core.Hybrid{obsTestHybrid(t)})
	ms := NewManyStepper(p, []*core.Hybrid{obsTestHybrid(t), obsTestHybrid(t)})
	if got := ReadObs().ActiveRuns; got != base+2 {
		t.Errorf("active runs = %d, want %d", got, base+2)
	}
	st.Close()
	st.Close() // idempotent: the gauge must not double-decrement
	ms.Close()
	if got := ReadObs().ActiveRuns; got != base {
		t.Errorf("active runs after close = %d, want %d", got, base)
	}
}
