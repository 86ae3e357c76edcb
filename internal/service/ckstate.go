package service

import (
	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/core"
	"prophetcritic/internal/sim"
)

// Checkpoint payloads, carried in the "svcjob" state section of a
// standard "PCCK" file (the meta record reuses checkpoint.Meta, so
// `trace checkpoint info` can inspect a service checkpoint too). There
// are two, one nested in the other:
//
//   - the unit snapshot (mode 3): one window of one workload pass,
//     mid-measurement — the window index, the measured-so-far count,
//     and per covered spec its partial counters plus a full hybrid
//     snapshot at Position. Workers upload it to the coordinator, and
//     resuming from it reproduces the uninterrupted window's counters
//     bit for bit.
//   - the job checkpoint (mode 5), at ck/<job>.ck: the workload index,
//     the indices (into the job's Specs) of the cache-miss specs the
//     pass covers, and per sim.ShardWindows window one of three states —
//     not started, finished counters, or the latest in-flight unit
//     snapshot. Resume reruns only the unfinished windows, each from
//     its snapshot when it has one, and merges in window order.
//
// The cache can answer a pre-crash miss after a restart (another job may
// have stored the cell meanwhile), so the covered set at resume can
// differ from the checkpoint's; a mismatch restarts the workload clean
// rather than failing the job. So does a job checkpoint in a retired
// mode — 1 and 2 (single-spec), 3 (stepped) and 4 (sharded): it fails
// the mode check.
const (
	ckModeUnit = 3
	ckModeJob  = 5
)

// Window states of a job checkpoint.
const (
	winPending  = iota // not started
	winDone            // finished counters
	winInFlight        // latest unit snapshot
)

// unitState is the unit snapshot payload.
type unitState struct {
	window       int // window index within the workload
	measuredDone int
	// position is the snapshot's meta Position, recorded on restore.
	position uint64
	// partials and hybrids run parallel to the unit's specs.
	partials []sim.Result
	hybrids  []*core.Hybrid
}

// jobState is the job checkpoint of one workload pass.
type jobState struct {
	workload int   // index into Job.Workloads
	specIdx  []int // covered spec indices, in pass order
	windows  []windowState
}

// windowState is one window of a pass. results != nil marks it done;
// otherwise snap, when set, is its latest in-flight unit snapshot.
type windowState struct {
	results []sim.Result
	snap    []byte
	// partials echoes the counters snap carries, as its consumer
	// reported them, for progress events; it is not persisted.
	partials []sim.Result
}

func encodeCounters(enc *checkpoint.Encoder, r sim.Result) {
	enc.Uvarint(r.Branches)
	enc.Uvarint(r.Uops)
	enc.Uvarint(r.ProphetMisp)
	enc.Uvarint(r.FinalMisp)
	for c := 0; c < len(r.Critiques); c++ {
		enc.Uvarint(r.Critiques[c])
	}
}

func decodeCounters(dec *checkpoint.Decoder) sim.Result {
	var r sim.Result
	r.Branches = dec.Uvarint()
	r.Uops = dec.Uvarint()
	r.ProphetMisp = dec.Uvarint()
	r.FinalMisp = dec.Uvarint()
	for c := 0; c < len(r.Critiques); c++ {
		r.Critiques[c] = dec.Uvarint()
	}
	return r
}

// readHeader reads the section, mode and index every payload opens
// with, failing dec unless mode and index are the expected ones.
func readHeader(dec *checkpoint.Decoder, mode uint64, index int) {
	dec.Section("svcjob")
	if m := dec.Uvarint(); dec.Err() == nil && m != mode {
		dec.Failf("service: checkpoint mode %d, want %d (spec changed or older format?)", m, mode)
	}
	if i := dec.Uvarint(); dec.Err() == nil && i != uint64(index) {
		dec.Failf("service: checkpoint is for index %d, want %d", i, index)
	}
}

// checkCount fails dec unless the next uvarint equals n.
func checkCount(dec *checkpoint.Decoder, what string, n int) {
	if got := dec.Uvarint(); dec.Err() == nil && got != uint64(n) {
		dec.Failf("service: checkpoint has %d %s, this pass has %d", got, what, n)
	}
}

// checkEnd fails dec if bytes remain after the payload, so an accepted
// checkpoint is exactly the bytes its encoder writes.
func checkEnd(dec *checkpoint.Decoder) {
	if dec.Err() == nil && dec.Remaining() != 0 {
		dec.Failf("service: %d trailing bytes after the checkpoint", dec.Remaining())
	}
}

// Snapshot implements checkpoint.Snapshotter.
func (u *unitState) Snapshot(enc *checkpoint.Encoder) {
	enc.Section("svcjob")
	enc.Uvarint(ckModeUnit)
	enc.Uvarint(uint64(u.window))
	enc.Uvarint(uint64(u.measuredDone))
	enc.Uvarint(uint64(len(u.hybrids)))
	for k, h := range u.hybrids {
		enc.Uvarint(uint64(k))
		encodeCounters(enc, u.partials[k])
		h.Snapshot(enc)
	}
}

// Restore implements checkpoint.Snapshotter. The caller sets u.window
// and builds u.hybrids first. A mismatch fails cleanly but may leave
// hybrid state half-applied; callers discard u then.
func (u *unitState) Restore(dec *checkpoint.Decoder) error {
	readHeader(dec, ckModeUnit, u.window)
	measuredDone := int(dec.Uvarint())
	checkCount(dec, "specs", len(u.hybrids))
	partials := make([]sim.Result, len(u.hybrids))
	for k, h := range u.hybrids {
		if si := dec.Uvarint(); dec.Err() == nil && si != uint64(k) {
			dec.Failf("service: unit snapshot spec %d at position %d", si, k)
		}
		partials[k] = decodeCounters(dec)
		if err := dec.Err(); err != nil {
			return err
		}
		if err := h.Restore(dec); err != nil {
			return err
		}
	}
	checkEnd(dec)
	if err := dec.Err(); err != nil {
		return err
	}
	u.measuredDone = measuredDone
	copy(u.partials, partials)
	return nil
}

// Snapshot implements checkpoint.Snapshotter.
func (js *jobState) Snapshot(enc *checkpoint.Encoder) {
	enc.Section("svcjob")
	enc.Uvarint(ckModeJob)
	enc.Uvarint(uint64(js.workload))
	enc.Uvarint(uint64(len(js.specIdx)))
	for _, si := range js.specIdx {
		enc.Uvarint(uint64(si))
	}
	enc.Uvarint(uint64(len(js.windows)))
	for _, w := range js.windows {
		switch {
		case w.results != nil:
			enc.Uvarint(winDone)
			for _, r := range w.results {
				encodeCounters(enc, r)
			}
		case w.snap != nil:
			enc.Uvarint(winInFlight)
			enc.Blob(w.snap)
		default:
			enc.Uvarint(winPending)
		}
	}
}

// Restore implements checkpoint.Snapshotter. The caller sets workload,
// specIdx and len(windows) to this pass's; a checkpoint of another
// mode, workload, covered set or window count fails cleanly and leaves
// js untouched.
func (js *jobState) Restore(dec *checkpoint.Decoder) error {
	readHeader(dec, ckModeJob, js.workload)
	checkCount(dec, "specs", len(js.specIdx))
	for _, want := range js.specIdx {
		if si := dec.Uvarint(); dec.Err() == nil && si != uint64(want) {
			dec.Failf("service: checkpoint spec index %d does not match pass index %d", si, want)
		}
	}
	checkCount(dec, "windows", len(js.windows))
	windows := make([]windowState, len(js.windows))
	for i := range windows {
		if dec.Err() != nil {
			break
		}
		switch st := dec.Uvarint(); st {
		case winPending:
		case winDone:
			windows[i].results = make([]sim.Result, len(js.specIdx))
			for k := range js.specIdx {
				windows[i].results[k] = decodeCounters(dec)
			}
		case winInFlight:
			if windows[i].snap = dec.Blob(); dec.Err() == nil && len(windows[i].snap) == 0 {
				dec.Failf("service: window %d has an empty snapshot", i)
			}
		default:
			dec.Failf("service: window %d has state %d", i, st)
		}
	}
	checkEnd(dec)
	if err := dec.Err(); err != nil {
		return err
	}
	copy(js.windows, windows)
	return nil
}
