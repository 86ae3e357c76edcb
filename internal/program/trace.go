package program

import (
	"cmp"
	"fmt"
	"io"
	"unsafe"
)

// SuiteTrace is the workload suite of trace-replay programs whose
// recorded metadata carries no suite of their own (e.g. traces converted
// from external formats). Traces recorded from the synthetic benchmarks
// keep their original suite.
const SuiteTrace = "TRACE"

// TraceInfo is the metadata FromTrace needs to reconstruct a program
// from a recorded branch trace.
type TraceInfo struct {
	Name  string
	Suite string // defaults to SuiteTrace when empty
	Seed  uint64 // original generation seed, for reproducibility reporting

	// Warmup and Measure are the simulation window the trace was recorded
	// with; replay tools default to the same window so a replayed
	// sim.Result is bit-identical to the recorded run's.
	Warmup, Measure int

	// Blocks is the recorded static CFG, if the trace carries one
	// (Model fields are ignored; negative edge targets mean "none").
	// When nil, the CFG is inferred from the event stream alone: blocks
	// appear in first-commit order and only committed edges exist.
	Blocks []Block
}

// FromTrace reconstructs an immutable, self-contained Program from a
// recorded branch trace. next returns the recorded events in commit
// order and io.EOF after the last one; FromTrace drains it once and
// keeps the CFG plus one outcome bit per event, so the program never
// reads the trace again and is safe for concurrent simulation.
//
// The scan requires the first event to sit at the entry block and every
// later event to be the CFG successor of the one before it (an inferred
// CFG gains the edge the first time it is taken), so a Run that takes
// the recorded outcomes walks exactly the recorded path. A Run decodes
// the outcome bits, never a Model, so sim.Run and pipeline.Run drive a
// replayed program like a synthetic one. Walk and Target stay usable
// for speculative wrong-path future-bit generation: with a recorded CFG
// the speculative walk is identical to the original program's, and
// with an inferred CFG a never-observed edge has target -1, which ends
// the walk early (Walk reports ok=false) so the critic falls back to
// the future bits it already has — the paper's "use the bits
// available" policy.
func FromTrace(info TraceInfo, next func() (Event, error)) (*Program, error) {
	if info.Name == "" {
		return nil, fmt.Errorf("program: trace has no workload name")
	}
	p := &Program{Name: info.Name, Suite: cmp.Or(info.Suite, SuiteTrace), seed: info.Seed,
		traceWarmup: info.Warmup, traceMeasure: info.Measure}

	if info.Blocks != nil {
		p.blocks = append([]Block(nil), info.Blocks...)
	}
	p.addrIndex = make(map[uint64]int, len(p.blocks))
	for i := range p.blocks {
		if _, dup := p.addrIndex[p.blocks[i].Addr]; dup {
			return nil, fmt.Errorf("program: trace CFG defines address %#x twice", p.blocks[i].Addr)
		}
		p.addrIndex[p.blocks[i].Addr] = i
	}

	infer := info.Blocks == nil
	prev, prevTaken := -1, false
	for n := uint64(0); ; n++ {
		ev, err := next()
		if err == io.EOF {
			p.traceEvents = n
			break
		}
		if err != nil {
			return nil, fmt.Errorf("program: trace scan failed at event %d: %w", n, err)
		}
		// Nearly every event is at its predecessor's recorded successor,
		// so try that block before the address index; addresses are
		// unique, so both find the same block.
		i, known := -1, false
		if prev >= 0 {
			if to := p.Target(prev, prevTaken); to >= 0 && p.blocks[to].Addr == ev.Addr {
				i, known = to, true
			}
		}
		if !known {
			i, known = p.addrIndex[ev.Addr]
		}
		if !known {
			if !infer {
				return nil, fmt.Errorf("program: trace event %d at %#x has no block in the recorded CFG", n, ev.Addr)
			}
			i = len(p.blocks)
			p.blocks = append(p.blocks, Block{
				ID: i, Uops: ev.Uops, MemUops: ev.MemUops, FPUops: ev.FPUops,
				Addr: ev.Addr, TakenTo: -1, NotTakenTo: -1,
			})
			p.addrIndex[ev.Addr] = i
		}
		if prev < 0 {
			if i != 0 {
				return nil, fmt.Errorf("program: trace does not start at the entry block (first event at %#x is block %d)", ev.Addr, i)
			}
		} else {
			to := &p.blocks[prev].NotTakenTo
			if prevTaken {
				to = &p.blocks[prev].TakenTo
			}
			if *to < 0 && infer {
				*to = i
			}
			if *to != i {
				return nil, fmt.Errorf("program: trace event %d at %#x is not the CFG successor of block %#x (taken=%v)", n, ev.Addr, p.blocks[prev].Addr, prevTaken)
			}
		}
		if n%64 == 0 {
			p.outcomes = append(p.outcomes, 0)
		}
		if ev.Taken {
			p.outcomes[n/64] |= 1 << (n % 64)
		}
		prev, prevTaken = i, ev.Taken
	}
	if p.traceEvents == 0 {
		return nil, fmt.Errorf("program: trace %q contains no events", info.Name)
	}

	for i := range p.blocks {
		if p.blocks[i].Uops < 1 {
			p.blocks[i].Uops = 1 // recorded CFGs may carry zero-uop padding blocks
		}
	}
	return p, nil
}

// Materialize returns p in replay form: p's CFG and models plus the
// outcomes of its first n committed branches, which p's models compute
// here, once. Its Runs yield the events p's Runs yield, for n branches,
// and panic past them as a trace replay does. p must be synthetic and n
// positive.
func (p *Program) Materialize(n int) *Program {
	m := *p
	m.outcomes, m.traceEvents = make([]uint64, (n+63)/64), uint64(n)
	p.NewRun().fill(m.outcomes)
	return &m
}

// IsReplay reports whether p is in replay form: its Runs decode a fixed
// outcome bitmap (a recorded trace or a materialized stream).
func (p *Program) IsReplay() bool { return p.traceEvents > 0 }

// TraceEvents returns the number of committed branches a replay-form
// program holds (0 for synthetic programs). Runs panic if driven past it.
func (p *Program) TraceEvents() uint64 { return p.traceEvents }

// TraceWindow returns the warmup/measure window the trace was recorded
// with; replaying with the same window reproduces the recorded run's
// sim.Result bit for bit.
func (p *Program) TraceWindow() (warmup, measure int) {
	return p.traceWarmup, p.traceMeasure
}

// DecodedBytes reports the bytes of p's decoded data: its blocks, its
// address index's keys and values (not the map's own overhead), and a
// replay-form program's outcome bitmap. A memo of loaded programs
// bounds its footprint by it.
func (p *Program) DecodedBytes() int {
	n := len(p.blocks)*int(unsafe.Sizeof(Block{})) + len(p.addrIndex)*(8+8)
	return n + int((p.traceEvents+63)/64*8)
}
