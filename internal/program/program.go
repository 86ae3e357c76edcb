// Package program is the workload substrate: deterministic synthetic
// programs standing in for the paper's proprietary LIT snapshots of
// SPEC2000 and commercial applications (Table 1).
//
// A Program is an explicit control-flow graph of basic blocks, each ending
// in a conditional branch driven by a parameterised behaviour Model. The
// CFG serves two purposes:
//
//   - architectural execution (Run) produces the committed branch stream
//     with per-block uop counts, and
//   - speculative traversal (Walk/Target) lets a predictor follow the
//     *predicted* direction out of any branch — including wrong paths —
//     which is the property the paper identifies as essential:
//     "these future bits must be generated by actually going down the
//     wrong path" (Section 6).
//
// Programs are generated from a Spec by a seeded PRNG and are bit-for-bit
// reproducible.
package program

import (
	"fmt"

	"prophetcritic/internal/bitutil"
)

// addrBase and addrStride lay branch addresses out like IA32 code: one
// conditional branch per basic block, blocks 16 bytes apart minimum.
const (
	addrBase   = 0x0040_1000
	addrStride = 0x10
)

// Block is a basic block: some number of uops followed by one conditional
// branch.
type Block struct {
	ID         int
	Uops       int // total uops in the block, branch included
	MemUops    int // loads/stores among them (timing model)
	FPUops     int // floating-point uops among them (timing model)
	Addr       uint64
	Model      Model
	TakenTo    int // block index reached when the branch is taken
	NotTakenTo int // block index reached on fall-through
}

// Program is an immutable synthetic or trace-reconstructed program.
type Program struct {
	Name   string
	Suite  string
	blocks []Block
	seed   uint64

	// Trace-replay programs (FromTrace) carry the fields below; they are
	// nil/zero for synthetic programs. addrIndex maps arbitrary recorded
	// branch addresses to block indices (synthetic addresses are
	// arithmetic and need no map).
	addrIndex    map[uint64]int
	traceEvents  uint64
	traceWarmup  int
	traceMeasure int
}

// Blocks returns the program's basic blocks.
func (p *Program) Blocks() []Block { return p.blocks }

// NumBlocks returns the static branch count.
func (p *Program) NumBlocks() int { return len(p.blocks) }

// Seed returns the generation seed, for reproducibility reporting.
func (p *Program) Seed() uint64 { return p.seed }

// blockAt maps a branch address back to its block index. Synthetic
// addresses are arithmetic so the common case is O(1) arithmetic;
// trace-reconstructed programs carry arbitrary recorded addresses and use
// the address index instead.
//
//pclint:hotpath
func (p *Program) blockAt(addr uint64) (int, bool) {
	if p.addrIndex != nil {
		i, ok := p.addrIndex[addr]
		return i, ok
	}
	if addr < addrBase || (addr-addrBase)%addrStride != 0 {
		return 0, false
	}
	i := int((addr - addrBase) / addrStride)
	if i >= len(p.blocks) {
		return 0, false
	}
	return i, true
}

// Walk returns the address of the next conditional branch reached by
// leaving the branch at addr in the given direction. It is side-effect
// free and valid on wrong paths; it is the WalkFunc the prophet/critic
// hybrid uses to gather future bits.
//
// On trace-reconstructed CFGs an edge may be unobserved (target < 0, see
// FromTrace); Walk then reports ok=false and the speculative walk ends
// early, so the critic uses however many future bits were gathered —
// core's "use the bits available" rule.
//
//pclint:hotpath
func (p *Program) Walk(addr uint64, taken bool) (uint64, bool) {
	i, ok := p.blockAt(addr)
	if !ok {
		return 0, false
	}
	t := p.blocks[i].NotTakenTo
	if taken {
		t = p.blocks[i].TakenTo
	}
	if t < 0 {
		return 0, false
	}
	return p.blocks[t].Addr, true
}

// Target returns the successor block index for a direction, or a
// negative index on trace-reconstructed CFGs whose edge was never
// observed.
//
//pclint:hotpath
func (p *Program) Target(blockID int, taken bool) int {
	if taken {
		return p.blocks[blockID].TakenTo
	}
	return p.blocks[blockID].NotTakenTo
}

// Event is one committed conditional branch with the uops that preceded
// it (its basic block). BlockID indexes the program's Blocks, and Addr
// is always that block's Addr: the lanes walk the CFG from BlockID.
type Event struct {
	Addr    uint64
	Taken   bool
	BlockID int
	Uops    int
	MemUops int
	FPUops  int
}

// Run is one architectural execution of a Program. A Run owns all mutable
// state (per-branch model state and global history), so multiple Runs of
// the same Program are independent.
type Run struct {
	prog   *Program
	states []State
	ctx    Ctx
	cur    int
}

// NewRun starts an architectural execution at block 0. Per-branch RNG
// streams are derived from the program seed so the committed stream is
// deterministic.
func (p *Program) NewRun() *Run {
	r := &Run{prog: p, states: make([]State, len(p.blocks))}
	for i := range r.states {
		r.states[i].Rng = bitutil.Spread(p.seed ^ uint64(i)*0x9e3779b97f4a7c15)
	}
	return r
}

// Close does nothing and returns nil: a Run holds no resources. It
// remains for callers that close their runs.
func (r *Run) Close() error { return nil }

// Next commits the branch ending the current block and advances to the
// successor, returning the committed event.
//
//pclint:hotpath
func (r *Run) Next() Event {
	b := &r.prog.blocks[r.cur]
	st := &r.states[r.cur]
	o := b.Model.Outcome(st, r.ctx)

	// Advance per-branch and global state.
	st.Execs++
	bit := uint64(0)
	if o {
		bit = 1
	}
	st.Local = st.Local<<1 | bit
	r.ctx.Hist = r.ctx.Hist<<1 | bit
	r.ctx.Step++

	ev := Event{Addr: b.Addr, Taken: o, BlockID: b.ID, Uops: b.Uops, MemUops: b.MemUops, FPUops: b.FPUops}
	r.cur = r.prog.Target(r.cur, o)
	return ev
}

// NextBlock commits up to len(buf) branches into buf and returns how
// many were decoded. It is exactly len(buf) consecutive Next calls —
// the committed stream depends only on program state, never on any
// predictor, so decoding a block ahead of the predictors observing it
// is the same invariant one-pass multi-predictor execution rests on.
// Block decode amortizes the per-branch model stepping and call overhead
// once per block instead of once per (branch × resident predictor).
//
// A short count (n < len(buf)) happens only on trace-reconstructed
// CFGs whose replay reached a branch with no recorded successor edge;
// the run then sits in the same past-the-end state a Next-driven
// caller would observe, and CurrentAddr reports it identically.
//
//pclint:hotpath
func (r *Run) NextBlock(buf []Event) int {
	for i := range buf {
		if r.cur < 0 {
			return i
		}
		buf[i] = r.Next()
	}
	return len(buf)
}

// Step returns the number of committed branches so far.
//
//pclint:hotpath
func (r *Run) Step() uint64 { return r.ctx.Step }

// CurrentAddr returns the address of the next branch to commit.
//
//pclint:hotpath
func (r *Run) CurrentAddr() uint64 {
	if r.cur < 0 {
		panic(fmt.Sprintf("program: replay of %q ran past the recorded trace (no successor edge after %d branches)", r.prog.Name, r.ctx.Step)) //pclint:allow cold panic guard
	}
	return r.prog.blocks[r.cur].Addr
}

// String summarises the program.
func (p *Program) String() string {
	return fmt.Sprintf("%s/%s: %d static branches, seed %#x", p.Suite, p.Name, len(p.blocks), p.seed)
}
