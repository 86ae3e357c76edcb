package service

// Unit execution: one sim.ShardWindows window driven through a
// sim.ManyStepper over the unit's specs, in checkpoint-sized chunks.
// Remote workers and the coordinator's local fallback share this one
// path, so a unit produces the same counters wherever (and however
// often) it runs — resuming from an uploaded snapshot is bit-identical
// to an uninterrupted window, the same invariant the service's stepped
// jobs already pin.

import (
	"bytes"
	"fmt"
	"path/filepath"

	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/core"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
	"prophetcritic/internal/trace"
)

// unitSnapshot encodes a mid-unit "PCCK" snapshot: every hybrid plus the
// partial counters measured so far, tagged with the unit's window index.
func unitSnapshot(meta checkpoint.Meta, state *ckState) ([]byte, error) {
	var buf bytes.Buffer
	if err := checkpoint.WriteFile(&buf, meta, state); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// newUnitState is the stepped checkpoint state of a fresh unit: one new
// hybrid per builder, covered spec k at index k of the lease's specs.
func newUnitState(builds []sim.Builder, idx int) *ckState {
	st := &ckState{mode: ckModeStepped, workload: idx, specIdx: make([]int, len(builds)),
		partials: make([]sim.Result, len(builds)), hybrids: make([]*core.Hybrid, len(builds))}
	for k, b := range builds {
		st.specIdx[k] = k
		st.hybrids[k] = b()
	}
	return st
}

// restoreUnitSnapshot decodes snap into state, a newUnitState. A snapshot that fails to decode, belongs
// to a different window, or covers other specs is ignored (the unit
// restarts from scratch) — an uploaded snapshot is an optimization,
// never a correctness dependency.
func restoreUnitSnapshot(snap []byte, idx int, meta checkpoint.Meta, state *ckState) bool {
	if len(snap) == 0 {
		return false
	}
	smeta, dec, err := checkpoint.ReadFile(bytes.NewReader(snap))
	if err != nil || smeta.Workload != meta.Workload || smeta.Prophet != meta.Prophet {
		return false
	}
	return state.Restore(dec) == nil && state.workload == idx
}

// runUnit executes window w of p for every builder in one pass, resuming
// from snap when one is usable. every > 0 checkpoints the unit at that
// measured-branch interval through onSnapshot (skipped for the final
// chunk); stop is polled at the same boundaries to abandon the unit
// early. The returned Results carry the window's exact counters per
// builder regardless of resume points.
func runUnit(p *program.Program, builds []sim.Builder, w sim.Window, idx int,
	meta checkpoint.Meta, snap []byte, every int,
	onSnapshot func([]byte) error, stop func() error) ([]sim.Result, error) {

	state := newUnitState(builds, idx)
	if !restoreUnitSnapshot(snap, idx, meta, state) {
		state = newUnitState(builds, idx) // a failed restore may have half-applied hybrid state
	}
	partials, measuredDone := state.partials, state.measuredDone

	st := sim.NewManyStepper(p, state.hybrids)
	defer st.Close()
	if measuredDone > 0 {
		// Resume: the snapshot's hybrids already saw the full train
		// prefix plus measuredDone measured branches.
		st.Skip(w.Skip + w.Train + measuredDone)
	} else {
		st.Skip(w.Skip)
		st.Train(w.Train)
	}

	for {
		if stop != nil {
			if err := stop(); err != nil {
				return nil, err
			}
		}
		n := w.Measure - measuredDone
		if every > 0 && n > every {
			n = every
		}
		st.Measure(n)
		measuredDone += n
		curs := st.Results()
		for k := range curs {
			curs[k].Merge(partials[k])
		}
		if measuredDone >= w.Measure {
			return curs, nil
		}
		if onSnapshot != nil {
			meta.Position = uint64(w.Skip + w.Train + measuredDone)
			state.measuredDone = measuredDone
			state.partials = curs
			data, err := unitSnapshot(meta, state)
			if err != nil {
				return nil, err
			}
			if err := onSnapshot(data); err != nil {
				return nil, err
			}
		}
	}
}

// loadWorkloadIn resolves a workload reference against a trace directory
// — the worker-side twin of the scheduler's loadWorkload.
func loadWorkloadIn(ref WorkloadRef, traceDir string) (*program.Program, error) {
	switch ref.Kind {
	case "bench":
		return program.Load(ref.Name)
	case "trace":
		if traceDir == "" {
			return nil, fmt.Errorf("service: trace workload %q needs a trace directory", ref.Name)
		}
		return trace.Load(filepath.Join(traceDir, ref.Name))
	default:
		return nil, fmt.Errorf("service: unknown workload kind %q", ref.Kind)
	}
}
