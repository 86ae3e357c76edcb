// Package trace implements a compact, versioned, streaming binary format
// for branch traces — the ingestion layer that lets the simulators replay
// recorded workloads (and, later, externally converted traces) instead of
// only the built-in synthetic benchmarks.
//
// # Format (version 1)
//
// A trace file is a 5-byte plain header followed by one gzip stream:
//
//	file   := "PCTR" version(1 byte) gzip(body)
//	body   := meta cfg chunk* end
//	meta   := str(name) str(suite) uvarint(seed)
//	          uvarint(warmup) uvarint(measure)
//	str    := uvarint(len) bytes
//	cfg    := uvarint(nBlocks) cfgBlock*          ; 0 = no CFG recorded
//	cfgBlock := svarint(addr - prevAddr)          ; prevAddr starts at 0
//	          uvarint(uops) uvarint(memUops) uvarint(fpUops)
//	          uvarint(takenTo+1) uvarint(notTakenTo+1)   ; 0 = no edge
//	chunk  := uvarint(nEvents) (> 0)
//	          [cfg absent] uvarint(nNewBlocks) newBlock*
//	          svarint(pc - prevPC) × nEvents      ; prevPC spans chunks
//	          byte(firstOutcome) uvarint(runLen)* ; RLE, runs alternate
//	newBlock := svarint(addr - prevNewAddr)
//	          uvarint(uops) uvarint(memUops) uvarint(fpUops)
//	end    := uvarint(0) uvarint(totalEvents) uvarint(totalBlocks)
//
// Branch PCs are delta-encoded (branches are bytes apart, so deltas fit
// in one or two varint bytes) and outcomes are run-length encoded
// (loops and biased branches produce long runs); gzip framing squeezes
// the remaining redundancy and adds end-to-end CRC integrity. Reader and
// Writer buffer one bounded chunk at a time, so recording streams in
// constant memory however long the trace. Replay (Read, Load) reads the
// trace once and keeps the CFG plus one outcome bit per recorded branch
// (12.5 MB per 10^8 branches); it never reads the trace again.
//
// The optional CFG section preserves the complete static control-flow
// graph of the recorded program — including blocks and edges the
// committed stream never visited. That is what keeps replay faithful to
// the paper's Section 6 fidelity property: speculative wrong-path walks
// leave the committed path, and only a full CFG reproduces them exactly.
// Traces without a CFG section (external converters that only have the
// committed stream) replay with observed edges only; never-observed
// edges end the walk early. Either way a trace whose events are not CFG
// successors of each other fails to load (see program.FromTrace).
package trace

import (
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"

	"prophetcritic/internal/program"
)

// Format constants.
const (
	magic   = "PCTR"
	version = 1

	// chunkEvents is the number of events buffered per chunk; it bounds
	// both writer and reader memory.
	chunkEvents = 4096
)

// Meta is the trace-level metadata carried in the header.
type Meta struct {
	Name  string // workload name (benchmark name for recorded runs)
	Suite string // workload suite; empty means program.SuiteTrace
	Seed  uint64 // generation seed of the recorded program

	// Warmup and Measure record the simulation window the trace captures
	// (Warmup+Measure committed branches); replaying with the same window
	// reproduces the recorded run's sim.Result bit for bit.
	Warmup, Measure int
}

// Stats summarises a fully read trace (from the end record).
type Stats struct {
	Events uint64 // committed branch events
	Blocks int    // static branches: CFG blocks, or distinct PCs observed
}

// Writer streams a trace to an underlying writer. Events are buffered
// into bounded chunks; Close flushes the final chunk and the end record.
type Writer struct {
	zw      *gzip.Writer
	buf     []byte // encoding scratch for the current chunk
	scratch [2 * binary.MaxVarintLen64]byte

	hasCFG  bool
	known   map[uint64]bool // addresses already defined (no-CFG traces)
	pending []program.Event // buffered events of the current chunk
	prevPC  uint64
	prevNew uint64 // last newly defined address (no-CFG traces)
	events  uint64
	blocks  int
	closed  bool
}

// NewWriter starts a trace on w. cfg, if non-nil, is the recorded
// program's complete static CFG (program.Blocks()); passing it makes
// replayed wrong-path walks identical to the original program's. Close
// must be called to finish the trace.
func NewWriter(w io.Writer, meta Meta, cfg []program.Block) (*Writer, error) {
	if _, err := w.Write([]byte(magic)); err != nil {
		return nil, fmt.Errorf("trace: writing magic: %w", err)
	}
	if _, err := w.Write([]byte{version}); err != nil {
		return nil, fmt.Errorf("trace: writing version: %w", err)
	}
	tw := &Writer{zw: gzip.NewWriter(w), hasCFG: cfg != nil}
	tw.putString(meta.Name)
	tw.putString(meta.Suite)
	tw.putUvarint(meta.Seed)
	tw.putUvarint(uint64(meta.Warmup))
	tw.putUvarint(uint64(meta.Measure))

	tw.putUvarint(uint64(len(cfg)))
	if cfg != nil {
		tw.known = make(map[uint64]bool, len(cfg))
		var prevAddr uint64
		for i := range cfg {
			b := &cfg[i]
			tw.putSvarint(int64(b.Addr) - int64(prevAddr))
			prevAddr = b.Addr
			tw.putUvarint(uint64(b.Uops))
			tw.putUvarint(uint64(b.MemUops))
			tw.putUvarint(uint64(b.FPUops))
			tw.putUvarint(edgeCode(b.TakenTo, len(cfg)))
			tw.putUvarint(edgeCode(b.NotTakenTo, len(cfg)))
			tw.known[b.Addr] = true
		}
		tw.blocks = len(cfg)
	} else {
		tw.known = make(map[uint64]bool)
	}
	if err := tw.flushBuf(); err != nil {
		return nil, err
	}
	return tw, nil
}

// edgeCode encodes a successor index as index+1, with 0 for "no edge";
// out-of-range indices are clamped to "no edge" rather than corrupting
// the file.
func edgeCode(target, n int) uint64 {
	if target < 0 || target >= n {
		return 0
	}
	return uint64(target) + 1
}

// WriteEvent appends one committed branch event.
func (tw *Writer) WriteEvent(ev program.Event) error {
	if tw.closed {
		return fmt.Errorf("trace: write after Close")
	}
	if tw.hasCFG && !tw.known[ev.Addr] {
		return fmt.Errorf("trace: event at %#x has no block in the declared CFG", ev.Addr)
	}
	tw.pending = append(tw.pending, ev)
	tw.events++
	if len(tw.pending) >= chunkEvents {
		return tw.flushChunk()
	}
	return nil
}

// Close flushes buffered events, writes the end record, and closes the
// gzip stream (the underlying writer stays open).
func (tw *Writer) Close() error {
	if tw.closed {
		return nil
	}
	if err := tw.flushChunk(); err != nil {
		return err
	}
	tw.closed = true
	tw.putUvarint(0)
	tw.putUvarint(tw.events)
	tw.putUvarint(uint64(tw.blocks))
	if err := tw.flushBuf(); err != nil {
		return err
	}
	return tw.zw.Close()
}

// flushChunk encodes and writes the pending events as one chunk.
func (tw *Writer) flushChunk() error {
	n := len(tw.pending)
	if n == 0 {
		return nil
	}
	tw.putUvarint(uint64(n))

	if !tw.hasCFG {
		// Declare blocks first committed in this chunk, in commit order.
		var defs []program.Event
		for _, ev := range tw.pending {
			if !tw.known[ev.Addr] {
				tw.known[ev.Addr] = true
				defs = append(defs, ev)
			}
		}
		tw.putUvarint(uint64(len(defs)))
		for _, ev := range defs {
			tw.putSvarint(int64(ev.Addr) - int64(tw.prevNew))
			tw.prevNew = ev.Addr
			tw.putUvarint(uint64(ev.Uops))
			tw.putUvarint(uint64(ev.MemUops))
			tw.putUvarint(uint64(ev.FPUops))
			tw.blocks++
		}
	}

	for _, ev := range tw.pending {
		tw.putSvarint(int64(ev.Addr) - int64(tw.prevPC))
		tw.prevPC = ev.Addr
	}

	// Outcome run-length encoding: a lead byte with the first run's
	// direction, then alternating run lengths.
	first := byte(0)
	if tw.pending[0].Taken {
		first = 1
	}
	tw.buf = append(tw.buf, first)
	run := uint64(0)
	cur := tw.pending[0].Taken
	for _, ev := range tw.pending {
		if ev.Taken == cur {
			run++
			continue
		}
		tw.putUvarint(run)
		cur, run = ev.Taken, 1
	}
	tw.putUvarint(run)

	tw.pending = tw.pending[:0]
	return tw.flushBuf()
}

func (tw *Writer) putUvarint(v uint64) {
	n := binary.PutUvarint(tw.scratch[:], v)
	tw.buf = append(tw.buf, tw.scratch[:n]...)
}

func (tw *Writer) putSvarint(v int64) {
	n := binary.PutVarint(tw.scratch[:], v)
	tw.buf = append(tw.buf, tw.scratch[:n]...)
}

func (tw *Writer) putString(s string) {
	tw.putUvarint(uint64(len(s)))
	tw.buf = append(tw.buf, s...)
}

func (tw *Writer) flushBuf() error {
	if len(tw.buf) == 0 {
		return nil
	}
	_, err := tw.zw.Write(tw.buf)
	tw.buf = tw.buf[:0]
	if err != nil {
		return fmt.Errorf("trace: write: %w", err)
	}
	return nil
}
