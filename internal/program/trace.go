package program

import (
	"fmt"
	"io"
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
// the recorded outcomes walks exactly the recorded path. Every block's
// Model serves those outcomes by commit step, so sim.Run and
// pipeline.Run drive a replayed program like a synthetic one. Walk and
// Target stay usable for speculative wrong-path future-bit generation:
// with a recorded CFG the speculative walk is identical to the original
// program's, and with an inferred CFG a never-observed edge has target
// -1, which ends the walk early (Walk reports ok=false) so the critic
// falls back to the future bits it already has — the paper's "use the
// bits available" policy.
func FromTrace(info TraceInfo, next func() (Event, error)) (*Program, error) {
	if info.Name == "" {
		return nil, fmt.Errorf("program: trace has no workload name")
	}
	suite := info.Suite
	if suite == "" {
		suite = SuiteTrace
	}
	p := &Program{Name: info.Name, Suite: suite, seed: info.Seed,
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
	var outcomes []uint64
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
		i, known := p.addrIndex[ev.Addr]
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
			outcomes = append(outcomes, 0)
		}
		if ev.Taken {
			outcomes[n/64] |= 1 << (n % 64)
		}
		prev, prevTaken = i, ev.Taken
	}
	if p.traceEvents == 0 {
		return nil, fmt.Errorf("program: trace %q contains no events", info.Name)
	}

	m := &replayModel{outcomes: outcomes, n: p.traceEvents}
	for i := range p.blocks {
		p.blocks[i].Model = m
		if p.blocks[i].Uops < 1 {
			p.blocks[i].Uops = 1 // recorded CFGs may carry zero-uop padding blocks
		}
	}
	return p, nil
}

// IsReplay reports whether the program replays a recorded trace rather
// than executing behaviour models.
func (p *Program) IsReplay() bool { return p.traceEvents > 0 }

// TraceEvents returns the number of committed branches in the backing
// trace (0 for synthetic programs). Replay runs panic if driven past it.
func (p *Program) TraceEvents() uint64 { return p.traceEvents }

// TraceWindow returns the warmup/measure window the trace was recorded
// with; replaying with the same window reproduces the recorded run's
// sim.Result bit for bit.
func (p *Program) TraceWindow() (warmup, measure int) {
	return p.traceWarmup, p.traceMeasure
}

// replayModel is the Model every block of a FromTrace program shares:
// the branch committed at step ctx.Step takes recorded outcome bit
// ctx.Step. It holds no per-Run state — the commit step is the cursor.
type replayModel struct {
	outcomes []uint64 // bit i is the outcome of recorded event i
	n        uint64   // recorded events
}

// Outcome implements Model.
func (m *replayModel) Outcome(_ *State, ctx Ctx) bool {
	if ctx.Step >= m.n {
		panic(fmt.Sprintf("program: trace replay exhausted after %d recorded branches; shrink the warmup/measure window to fit the trace", m.n))
	}
	return m.outcomes[ctx.Step/64]>>(ctx.Step%64)&1 == 1
}

// Kind implements Model.
func (m *replayModel) Kind() string { return "replay" }
