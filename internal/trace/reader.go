package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"

	"prophetcritic/internal/program"
)

// maxStrLen bounds header strings so a corrupt length cannot trigger a
// huge allocation.
const maxStrLen = 1 << 16

// cfgPrealloc caps the capacity reserved up front for a recorded CFG. The
// header's block count is untrusted, so the CFG grows as blocks decode
// past this size, and a corrupt count fails with a read error at the end
// of the body instead of exhausting memory. Every built-in program fits.
const cfgPrealloc = 1 << 12

// blockInfo is the reader's per-block knowledge needed to reconstitute
// events.
type blockInfo struct {
	id                    int
	uops, memUops, fpUops int
}

// Reader streams events from a version-1 trace. It decodes one bounded
// chunk at a time, so memory stays constant in the trace length.
type Reader struct {
	br   *bufio.Reader
	zr   *gzip.Reader
	meta Meta

	cfg    []program.Block // recorded CFG, nil if the trace has none
	byAddr map[uint64]blockInfo

	// Current decoded chunk. prevPC and prevNewAddr carry the PC-delta
	// and block-declaration bases across chunks.
	events      []program.Event
	next        int
	prevPC      uint64
	prevNewAddr uint64

	stats Stats
	read  uint64
	done  bool
}

// NewReader parses the header of a trace on r and prepares streaming.
// The caller remains responsible for closing r if it needs closing.
func NewReader(r io.Reader) (*Reader, error) {
	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q (not a trace file)", head[:len(magic)])
	}
	if head[len(magic)] != version {
		return nil, fmt.Errorf("trace: unsupported version %d (have %d)", head[len(magic)], version)
	}
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("trace: opening gzip stream: %w", err)
	}
	tr := &Reader{zr: zr, br: bufio.NewReaderSize(zr, 1<<16)}

	if tr.meta.Name, err = tr.getString(); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	if tr.meta.Suite, err = tr.getString(); err != nil {
		return nil, fmt.Errorf("trace: reading suite: %w", err)
	}
	if tr.meta.Seed, err = tr.getUvarint(); err != nil {
		return nil, fmt.Errorf("trace: reading seed: %w", err)
	}
	warm, err := tr.getUvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: reading warmup: %w", err)
	}
	meas, err := tr.getUvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: reading measure: %w", err)
	}
	tr.meta.Warmup, tr.meta.Measure = int(warm), int(meas)

	nBlocks, err := tr.getUvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: reading CFG size: %w", err)
	}
	tr.byAddr = make(map[uint64]blockInfo, min(nBlocks, cfgPrealloc))
	if nBlocks > 0 {
		tr.cfg = make([]program.Block, 0, min(nBlocks, cfgPrealloc))
		var prevAddr uint64
		for i := 0; uint64(i) < nBlocks; i++ {
			b := program.Block{ID: i}
			d, err := tr.getSvarint()
			if err != nil {
				return nil, fmt.Errorf("trace: reading CFG block %d: %w", i, err)
			}
			b.Addr = uint64(int64(prevAddr) + d)
			prevAddr = b.Addr
			if b.Uops, err = tr.getSmallInt(); err != nil {
				return nil, fmt.Errorf("trace: reading CFG block %d uops: %w", i, err)
			}
			if b.MemUops, err = tr.getSmallInt(); err != nil {
				return nil, fmt.Errorf("trace: reading CFG block %d memUops: %w", i, err)
			}
			if b.FPUops, err = tr.getSmallInt(); err != nil {
				return nil, fmt.Errorf("trace: reading CFG block %d fpUops: %w", i, err)
			}
			if b.TakenTo, err = tr.getEdge(nBlocks); err != nil {
				return nil, fmt.Errorf("trace: reading CFG block %d taken edge: %w", i, err)
			}
			if b.NotTakenTo, err = tr.getEdge(nBlocks); err != nil {
				return nil, fmt.Errorf("trace: reading CFG block %d fall-through edge: %w", i, err)
			}
			if _, dup := tr.byAddr[b.Addr]; dup {
				return nil, fmt.Errorf("trace: CFG defines address %#x twice", b.Addr)
			}
			tr.byAddr[b.Addr] = blockInfo{id: i, uops: b.Uops, memUops: b.MemUops, fpUops: b.FPUops}
			tr.cfg = append(tr.cfg, b)
		}
		tr.stats.Blocks = int(nBlocks)
	}
	return tr, nil
}

// Meta returns the header metadata.
func (tr *Reader) Meta() Meta { return tr.meta }

// CFG returns the recorded static control-flow graph, or nil if the
// trace carries none. Block Models are nil; negative edge targets mean
// "no edge".
func (tr *Reader) CFG() []program.Block { return tr.cfg }

// Stats returns the end-record totals; valid only after Next returned
// io.EOF (ok reports validity).
func (tr *Reader) Stats() (s Stats, ok bool) { return tr.stats, tr.done }

// Next returns the next committed branch event, or io.EOF after the last
// one (after validating the end-record totals).
func (tr *Reader) Next() (program.Event, error) {
	for tr.next >= len(tr.events) {
		if tr.done {
			return program.Event{}, io.EOF
		}
		if err := tr.readChunk(); err != nil {
			return program.Event{}, err
		}
	}
	ev := tr.events[tr.next]
	tr.next++
	tr.read++
	return ev, nil
}

// Close closes the gzip stream. Its CRC is checked when Next reaches
// the end record.
func (tr *Reader) Close() error { return tr.zr.Close() }

// readChunk decodes the next chunk (or the end record) into tr.events.
func (tr *Reader) readChunk() error {
	n, err := tr.getUvarint()
	if err != nil {
		return fmt.Errorf("trace: reading chunk size: %w", err)
	}
	if n == 0 {
		// End record.
		totalEvents, err := tr.getUvarint()
		if err != nil {
			return fmt.Errorf("trace: reading end record: %w", err)
		}
		totalBlocks, err := tr.getUvarint()
		if err != nil {
			return fmt.Errorf("trace: reading end record: %w", err)
		}
		if totalEvents != tr.read {
			return fmt.Errorf("trace: end record claims %d events, read %d (truncated or corrupt)", totalEvents, tr.read)
		}
		if int(totalBlocks) != len(tr.byAddr) {
			return fmt.Errorf("trace: end record claims %d blocks, saw %d", totalBlocks, len(tr.byAddr))
		}
		// The body ends here; reading on to the gzip EOF also checks
		// the stream's CRC.
		if _, err := tr.br.ReadByte(); err == nil {
			return fmt.Errorf("trace: data after the end record")
		} else if err != io.EOF {
			return fmt.Errorf("trace: reading past the end record: %w", err)
		}
		tr.stats = Stats{Events: totalEvents, Blocks: int(totalBlocks)}
		tr.done = true
		tr.events, tr.next = nil, 0
		return nil
	}
	if n > chunkEvents {
		return fmt.Errorf("trace: chunk of %d events exceeds the %d-event bound", n, chunkEvents)
	}

	if tr.cfg == nil {
		// New-block declarations precede the chunk's events.
		nNew, err := tr.getUvarint()
		if err != nil {
			return fmt.Errorf("trace: reading block declarations: %w", err)
		}
		if nNew > n {
			return fmt.Errorf("trace: %d block declarations in a %d-event chunk", nNew, n)
		}
		for i := uint64(0); i < nNew; i++ {
			d, err := tr.getSvarint()
			if err != nil {
				return fmt.Errorf("trace: reading block declaration: %w", err)
			}
			addr := uint64(int64(tr.prevNewAddr) + d)
			tr.prevNewAddr = addr
			var bi blockInfo
			if bi.uops, err = tr.getSmallInt(); err != nil {
				return fmt.Errorf("trace: reading block uops: %w", err)
			}
			if bi.memUops, err = tr.getSmallInt(); err != nil {
				return fmt.Errorf("trace: reading block memUops: %w", err)
			}
			if bi.fpUops, err = tr.getSmallInt(); err != nil {
				return fmt.Errorf("trace: reading block fpUops: %w", err)
			}
			if _, dup := tr.byAddr[addr]; dup {
				return fmt.Errorf("trace: block %#x declared twice", addr)
			}
			bi.id = len(tr.byAddr)
			tr.byAddr[addr] = bi
		}
	}

	if cap(tr.events) < int(n) {
		tr.events = make([]program.Event, n)
	}
	tr.events = tr.events[:n]
	tr.next = 0

	for i := range tr.events {
		d, err := tr.getSvarint()
		if err != nil {
			return fmt.Errorf("trace: reading event PC: %w", err)
		}
		pc := uint64(int64(tr.prevPC) + d)
		tr.prevPC = pc
		bi, ok := tr.byAddr[pc]
		if !ok {
			return fmt.Errorf("trace: event at undeclared address %#x", pc)
		}
		tr.events[i] = program.Event{
			Addr: pc, BlockID: bi.id,
			Uops: bi.uops, MemUops: bi.memUops, FPUops: bi.fpUops,
		}
	}

	// Outcome RLE.
	lead, err := tr.br.ReadByte()
	if err != nil {
		return fmt.Errorf("trace: reading outcome lead byte: %w", err)
	}
	if lead > 1 {
		return fmt.Errorf("trace: bad outcome lead byte %d", lead)
	}
	cur := lead == 1
	for filled := uint64(0); filled < n; {
		run, err := tr.getUvarint()
		if err != nil {
			return fmt.Errorf("trace: reading outcome run: %w", err)
		}
		if run == 0 || filled+run > n {
			return fmt.Errorf("trace: outcome run of %d overflows chunk (%d/%d filled)", run, filled, n)
		}
		for j := uint64(0); j < run; j++ {
			tr.events[filled+j].Taken = cur
		}
		filled += run
		cur = !cur
	}
	return nil
}

func (tr *Reader) getUvarint() (uint64, error) { return binary.ReadUvarint(tr.br) }
func (tr *Reader) getSvarint() (int64, error)  { return binary.ReadVarint(tr.br) }

// getSmallInt reads a uvarint expected to fit a (positive) int.
func (tr *Reader) getSmallInt() (int, error) {
	v, err := tr.getUvarint()
	if err != nil {
		return 0, err
	}
	if v > 1<<30 {
		return 0, fmt.Errorf("implausible count %d", v)
	}
	return int(v), nil
}

// getEdge decodes an index+1 edge code (0 = no edge) bounded by n. The
// bound is checked before the conversion to int, so a code of 2^63 or
// more cannot wrap negative and pass as "no edge".
func (tr *Reader) getEdge(n uint64) (int, error) {
	v, err := tr.getUvarint()
	if err != nil {
		return 0, err
	}
	if v == 0 {
		return -1, nil
	}
	if v > n {
		return 0, fmt.Errorf("edge target %d out of range (%d blocks)", v-1, n)
	}
	return int(v - 1), nil
}

func (tr *Reader) getString() (string, error) {
	n, err := tr.getUvarint()
	if err != nil {
		return "", err
	}
	if n > maxStrLen {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(tr.br, b); err != nil {
		return "", err
	}
	return string(b), nil
}
