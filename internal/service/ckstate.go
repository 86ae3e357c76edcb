package service

import (
	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/core"
	"prophetcritic/internal/sim"
)

// Job checkpoint payloads, carried in the state section of a standard
// "PCCK" file (the meta record reuses checkpoint.Meta, so `trace
// checkpoint info` can inspect a service checkpoint too). Every payload
// starts with the indices (into the job's Specs) of the cache-miss specs
// the one-pass run covers, in pass order. Two modes:
//
//   - stepped (Shards <= 1, and cluster unit snapshots): per covered
//     spec, the measured-so-far partial counters plus a full hybrid
//     snapshot at Position. Resume restores the hybrids, fast-forwards
//     the workload to Position, and keeps measuring; the final counters
//     are the persisted partials merged with the post-resume window,
//     bit-identical to an uninterrupted run.
//   - sharded (Shards > 1, and cluster jobs): per completed shard
//     window, every covered spec's counters. Resume reruns only the
//     missing windows and merges in interval order, reproducing
//     sim.RunManySharded exactly.
//
// The cache can answer a pre-crash miss after a restart (another job may
// have stored the cell meanwhile), so the covered set at resume can
// differ from the snapshot's; a mismatch restarts the workload clean
// rather than failing the job. So does a checkpoint in a retired mode
// (1 and 2, the single-spec formats): it fails the mode check.
const (
	ckModeStepped = 3
	ckModeSharded = 4
)

type ckState struct {
	mode     uint64
	workload int // index into Job.Workloads

	// specIdx lists the indices (into the job's Specs) of the cache-miss
	// specs this one-pass run covers, in pass order.
	specIdx []int

	// stepped mode: per covered spec, parallel to specIdx
	measuredDone int
	partials     []sim.Result
	hybrids      []*core.Hybrid

	// sharded mode: windows[w][k] is covered spec k's result for
	// completed shard window w (done gates per window).
	done    []bool
	windows [][]sim.Result
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

// Snapshot implements checkpoint.Snapshotter.
func (c *ckState) Snapshot(enc *checkpoint.Encoder) {
	enc.Section("svcjob")
	enc.Uvarint(c.mode)
	enc.Uvarint(uint64(c.workload))
	switch c.mode {
	case ckModeStepped:
		enc.Uvarint(uint64(c.measuredDone))
		enc.Uvarint(uint64(len(c.specIdx)))
		for i, si := range c.specIdx {
			enc.Uvarint(uint64(si))
			encodeCounters(enc, c.partials[i])
			c.hybrids[i].Snapshot(enc)
		}
	case ckModeSharded:
		enc.Uvarint(uint64(len(c.specIdx)))
		for _, si := range c.specIdx {
			enc.Uvarint(uint64(si))
		}
		enc.Uvarint(uint64(len(c.done)))
		for w, d := range c.done {
			enc.Bool(d)
			if d {
				for k := range c.specIdx {
					encodeCounters(enc, c.windows[w][k])
				}
			}
		}
	}
}

// Restore implements checkpoint.Snapshotter. The caller sets c.mode and
// c.specIdx to the covered spec indices first; for stepped checkpoints
// it also builds c.hybrids parallel to specIdx, for sharded ones it
// sizes c.done/c.windows to the job's shard count. A mode, covered-set,
// or geometry mismatch fails cleanly, and the scheduler then restarts
// the workload rather than failing the job.
func (c *ckState) Restore(dec *checkpoint.Decoder) error {
	dec.Section("svcjob")
	mode := dec.Uvarint()
	workload := dec.Uvarint()
	if dec.Err() == nil && mode != c.mode {
		dec.Failf("service: checkpoint mode %d does not match the job's mode %d (spec changed or older format?)", mode, c.mode)
	}
	// Decode everything into scratch first and only commit to the
	// receiver once the decoder is known clean, so a truncated or
	// corrupt checkpoint leaves the job state untouched.
	if c.mode == ckModeStepped {
		measuredDone := int(dec.Uvarint())
		c.checkSpecCount(dec)
		partials := make([]sim.Result, len(c.specIdx))
		for i := range c.specIdx {
			c.checkSpecIndex(dec, i)
			partials[i] = decodeCounters(dec)
			if err := dec.Err(); err != nil {
				return err
			}
			if err := c.hybrids[i].Restore(dec); err != nil {
				return err
			}
		}
		if err := dec.Err(); err != nil {
			return err
		}
		c.workload = int(workload)
		c.measuredDone = measuredDone
		copy(c.partials, partials)
		return nil
	}

	c.checkSpecCount(dec)
	for i := range c.specIdx {
		c.checkSpecIndex(dec, i)
	}
	nw := dec.Uvarint()
	if dec.Err() == nil && nw != uint64(len(c.done)) {
		dec.Failf("service: checkpoint has %d shards, job has %d", nw, len(c.done))
	}
	done := make([]bool, len(c.done))
	windows := make([][]sim.Result, len(c.done))
	for w := range done {
		done[w] = dec.Bool()
		if done[w] {
			windows[w] = make([]sim.Result, len(c.specIdx))
			for k := range c.specIdx {
				windows[w][k] = decodeCounters(dec)
			}
		}
	}
	if err := dec.Err(); err != nil {
		return err
	}
	c.workload = int(workload)
	copy(c.done, done)
	copy(c.windows, windows)
	return nil
}

// checkSpecCount fails dec unless the checkpoint covers as many specs as
// this pass.
func (c *ckState) checkSpecCount(dec *checkpoint.Decoder) {
	n := dec.Uvarint()
	if dec.Err() == nil && n != uint64(len(c.specIdx)) {
		dec.Failf("service: checkpoint covers %d specs, this pass covers %d", n, len(c.specIdx))
	}
}

// checkSpecIndex fails dec unless the checkpoint's i-th covered spec is
// this pass's.
func (c *ckState) checkSpecIndex(dec *checkpoint.Decoder, i int) {
	si := dec.Uvarint()
	if dec.Err() == nil && si != uint64(c.specIdx[i]) {
		dec.Failf("service: checkpoint spec index %d does not match pass index %d", si, c.specIdx[i])
	}
}
