package service

// Unit execution: one sim.ShardWindows window driven through a
// sim.ManyStepper over the unit's specs, in checkpoint-sized chunks.
// Every window of every job runs here — on the scheduler's pool, on a
// cluster coordinator's local fallback, or on a remote worker — so a
// unit produces the same counters wherever (and however often) it runs.
// A stepped job is the one window {0, warmup, measure}; resuming from a
// snapshot is bit-identical to an uninterrupted window.

import (
	"bytes"
	"time"

	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/core"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
)

// newUnitState is the snapshot state of a fresh unit: one new hybrid
// per builder, covered spec k at index k of the lease's specs.
func newUnitState(builds []sim.Builder, idx int) *unitState {
	st := &unitState{window: idx, partials: make([]sim.Result, len(builds)), hybrids: make([]*core.Hybrid, len(builds))}
	for k, b := range builds {
		st.hybrids[k] = b()
	}
	return st
}

// restoreUnitSnapshot decodes snap into state, a newUnitState, and
// reports whether it is a clean snapshot of window idx for the hybrids
// meta names (every field but Position must match). It does not check
// the window geometry; fits does. A rejected snapshot may leave state
// half-applied, so the caller then starts over with a fresh state.
func restoreUnitSnapshot(snap []byte, idx int, meta checkpoint.Meta, state *unitState) bool {
	if len(snap) == 0 {
		return false
	}
	smeta, dec, err := checkpoint.ReadFile(bytes.NewReader(snap))
	if err != nil {
		return false
	}
	state.window, state.position = idx, smeta.Position
	smeta.Position = meta.Position
	return smeta == meta && state.Restore(dec) == nil
}

// fits reports whether a restored snapshot lies strictly inside window
// w, at the stream position its measured count implies. Uploaded
// snapshots come from workers over HTTP; one that does not fit would
// merge counters from outside the window.
func (u *unitState) fits(w sim.Window) bool {
	return u.measuredDone > 0 && u.measuredDone < w.Measure &&
		u.position == uint64(w.Skip+w.Train+u.measuredDone)
}

// unitHooks are a unit run's callbacks; nil ones are skipped.
type unitHooks struct {
	// every > 0 snapshots the unit at that measured-branch interval
	// through onSnapshot (never after the final chunk), passing the
	// encoded snapshot and the partial counters it carries.
	every      int
	onSnapshot func(snap []byte, partials []sim.Result) error
	// stop is polled before every measured chunk to abandon the unit.
	stop func() error
	// stage observes the warmup and each measured chunk.
	stage func(name string, start time.Time)
}

// runUnit executes window w of p for every builder in one pass, resuming
// from snap when it restores and fits the window. The returned Results
// carry the window's exact counters per builder regardless of resume
// points.
func runUnit(p *program.Program, builds []sim.Builder, w sim.Window, idx int,
	meta checkpoint.Meta, snap []byte, h unitHooks) ([]sim.Result, error) {

	state := newUnitState(builds, idx)
	if !restoreUnitSnapshot(snap, idx, meta, state) || !state.fits(w) {
		state = newUnitState(builds, idx)
	}
	partials, measuredDone := state.partials, state.measuredDone

	var buf []byte // the snapshot encoding, reused across snapshots
	st := sim.NewManyStepper(p, state.hybrids)
	defer st.Close()
	t := time.Now()
	if measuredDone > 0 {
		// Resume: the snapshot's hybrids already saw the full train
		// prefix plus measuredDone measured branches.
		st.Skip(w.Skip + w.Train + measuredDone)
	} else {
		st.Skip(w.Skip)
		st.Train(w.Train)
	}
	if h.stage != nil {
		h.stage(stageWarmup, t)
	}

	for {
		if h.stop != nil {
			if err := h.stop(); err != nil {
				return nil, err
			}
		}
		n := w.Measure - measuredDone
		if h.every > 0 && n > h.every {
			n = h.every
		}
		t = time.Now()
		st.Measure(n)
		if h.stage != nil {
			h.stage(stageMeasure, t)
		}
		measuredDone += n
		curs := st.Results()
		for k := range curs {
			curs[k].Merge(partials[k])
		}
		if measuredDone >= w.Measure {
			return curs, nil
		}
		if h.onSnapshot != nil {
			meta.Position = uint64(w.Skip + w.Train + measuredDone)
			state.measuredDone = measuredDone
			state.partials = curs
			buf = checkpoint.Append(buf[:0], meta, state)
			if err := h.onSnapshot(bytes.Clone(buf), curs); err != nil {
				return nil, err
			}
		}
	}
}
