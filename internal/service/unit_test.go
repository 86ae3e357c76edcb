package service

import (
	"bytes"
	"reflect"
	"testing"

	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/core"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
)

// unitFixture is one gcc unit over small hybrids sharing one critic:
// the stepped window {0, 4000, 8000}.
type unitFixture struct {
	p      *program.Program
	specs  []string
	builds []sim.Builder
	w      sim.Window
	meta   checkpoint.Meta
}

func newUnitFixture(t testing.TB, critic string, specs ...string) unitFixture {
	t.Helper()
	fx := unitFixture{
		p:     program.MustLoad("gcc"),
		specs: specs,
		w:     sim.Window{Skip: 0, Train: 4_000, Measure: 8_000},
	}
	for _, spec := range fx.specs {
		b, err := HybridBuilder(spec, critic, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		fx.builds = append(fx.builds, b)
	}
	fx.meta = passMeta(fx.p.Name, fx.specs, critic, 1, false)
	return fx
}

// direct is the window's reference counters.
func (fx unitFixture) direct() []sim.Result {
	hs := make([]*core.Hybrid, len(fx.builds))
	for k, b := range fx.builds {
		hs[k] = b()
	}
	return sim.RunManySegment(fx.p, hs, fx.w.Skip, fx.w.Train, fx.w.Measure)
}

// snapshotAt runs the window to completion with a snapshot every
// `every` measured branches and returns the first snapshot.
func (fx unitFixture) snapshotAt(t testing.TB, every int) []byte {
	t.Helper()
	var first []byte
	keep := func(snap []byte, _ []sim.Result) error {
		if first == nil {
			first = snap
		}
		return nil
	}
	if _, err := runUnit(fx.p, fx.builds, fx.w, 0, fx.meta, nil, unitHooks{every: every, onSnapshot: keep}); err != nil {
		t.Fatal(err)
	}
	return first
}

// forge re-encodes a genuine snapshot with edit applied to its state;
// the meta Position stays the genuine one.
func (fx unitFixture) forge(t testing.TB, genuine []byte, edit func(*unitState)) []byte {
	t.Helper()
	state := newUnitState(fx.builds, 0)
	if !restoreUnitSnapshot(genuine, 0, fx.meta, state) {
		t.Fatal("genuine snapshot does not restore")
	}
	edit(state)
	meta := fx.meta
	meta.Position = state.position
	return checkpoint.Append(nil, meta, state)
}

// A unit snapshot that does not fit its window must not be resumed
// from: runUnit restarts the window clean and returns its exact
// counters. Both forgeries keep the hybrids and Position of a genuine
// snapshot taken 2,000 branches into the window and claim another
// measured count: 50,000 (past the window's end) and 7,999 (inside it,
// but not where the hybrids stand).
func TestRunUnitRejectsSnapshotOutsideWindow(t *testing.T) {
	fx := newUnitFixture(t, "tagged gshare:2", "gshare:2", "2Bc-gskew:2")
	want := fx.direct()
	genuine := fx.snapshotAt(t, 2_000)

	// A fitting snapshot is resumed from: its poisoned partials show.
	poisoned := fx.forge(t, genuine, func(u *unitState) { u.partials[0].FinalMisp += 1 << 20 })
	got, err := runUnit(fx.p, fx.builds, fx.w, 0, fx.meta, poisoned, unitHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].FinalMisp != want[0].FinalMisp+1<<20 {
		t.Fatalf("a fitting snapshot was not resumed from: FinalMisp %d, want %d", got[0].FinalMisp, want[0].FinalMisp+1<<20)
	}

	for _, measured := range []int{50_000, 7_999} {
		forged := fx.forge(t, genuine, func(u *unitState) { u.measuredDone = measured })
		got, err := runUnit(fx.p, fx.builds, fx.w, 0, fx.meta, forged, unitHooks{every: 3_000})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("measuredDone %d: runUnit = %+v\nwant %+v", measured, got, want)
		}
	}
}

// FuzzJobCheckpointRestore feeds arbitrary bytes to the job checkpoint
// reader (mode 5) and to restoreUnitSnapshot, directly and for every
// in-flight window the job checkpoint accepts. The contract on
// untrusted input: never panic; a rejected job checkpoint leaves the
// pass state untouched; and an accepted payload re-encodes to exactly
// the bytes it was read from. Seeds: a fresh, a mid-window, and a mixed
// done/in-flight checkpoint, a truncated one, and a bare unit snapshot.
// The unit is the smallest hybrid (a 1 KB prophet alone), which keeps
// inputs short; the hybrids' own decoders have their own fuzz targets.
func FuzzJobCheckpointRestore(f *testing.F) {
	fx := newUnitFixture(f, "none", "gshare:1")
	snap := fx.snapshotAt(f, 3_000)
	encode := func(windows ...windowState) []byte {
		return checkpoint.Append(nil, fx.meta, &jobState{workload: 1, specIdx: []int{0, 2}, windows: windows})
	}
	finished := []sim.Result{{Branches: 8_000, Uops: 41_000, FinalMisp: 90}, {Branches: 8_000, Uops: 41_000, ProphetMisp: 70}}
	mixed := encode(windowState{snap: snap}, windowState{results: finished}, windowState{})
	f.Add(encode(windowState{}, windowState{}, windowState{}))
	f.Add(encode(windowState{snap: snap}, windowState{}, windowState{}))
	f.Add(mixed)
	f.Add(mixed[:len(mixed)/2])
	f.Add(snap)

	f.Fuzz(func(t *testing.T, data []byte) {
		checkUnit := func(snap []byte) {
			state := newUnitState(fx.builds, 0)
			if !restoreUnitSnapshot(snap, 0, fx.meta, state) {
				return
			}
			meta := fx.meta
			meta.Position = state.position
			if again := checkpoint.Append(nil, meta, state); !bytes.Equal(again, snap) {
				t.Fatalf("accepted unit snapshot re-encodes differently:\n read % x\n  got % x", snap, again)
			}
			state.fits(fx.w)
		}
		checkUnit(data)

		meta, dec, err := checkpoint.ReadFile(bytes.NewReader(data))
		if err != nil {
			return
		}
		js := &jobState{workload: 1, specIdx: []int{0, 2}, windows: make([]windowState, 3)}
		if err := js.Restore(dec); err != nil {
			if !reflect.DeepEqual(js.windows, make([]windowState, 3)) {
				t.Fatalf("a rejected restore (%v) changed the pass state: %+v", err, js.windows)
			}
			return
		}
		if again := checkpoint.Append(nil, meta, js); !bytes.Equal(again, data) {
			t.Fatalf("accepted job checkpoint re-encodes differently:\n read % x\n  got % x", data, again)
		}
		for _, w := range js.windows {
			if w.snap != nil {
				checkUnit(w.snap)
			}
		}
	})
}
