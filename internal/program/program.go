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

	// Replay-form programs (FromTrace, Materialize) carry the fields
	// below: bit i of outcomes is committed branch i's outcome, for
	// traceEvents branches; addrIndex maps recorded branch addresses to
	// blocks (synthetic addresses are arithmetic and need no map).
	outcomes     []uint64
	traceEvents  uint64
	addrIndex    map[uint64]int
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
	t := p.Target(i, taken)
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

// Run is one architectural execution of a Program: a cursor that
// decodes its committed stream from an outcome bitmap (NextBlock). A
// replay-form program holds its whole bitmap; a synthetic program's Run
// refills a 1,024-branch chunk by running the models ahead of the
// cursor. Runs of one Program are independent.
type Run struct {
	prog      *Program
	bits      []uint64 // the outcome of step s is bit s%64 of bits[(s-base)/64]
	base, end uint64   // the steps of bits[0]'s bit 0 and just past its last outcome
	step      uint64   // committed branches so far
	cur       int      // the block of the next branch; negative past a missing edge
	states    []State  // a synthetic Run's model states; nil in replay form
	ctx       Ctx      // the models' global context at step end
	ahead     int      // the block at step end
}

// NewRun starts an architectural execution at block 0. Per-branch RNG
// streams derive from the program seed, so the stream is deterministic.
func (p *Program) NewRun() *Run {
	if p.IsReplay() {
		return &Run{prog: p, bits: p.outcomes, end: p.traceEvents}
	}
	r := &Run{prog: p, bits: make([]uint64, 16), states: make([]State, len(p.blocks))} // 1,024 outcomes
	for i := range r.states {
		r.states[i].Rng = bitutil.Spread(p.seed ^ uint64(i)*0x9e3779b97f4a7c15)
	}
	return r
}

// fill runs a synthetic Run's models over its next len(bits)*64
// branches into bits. Past a missing successor edge the bits stay 0;
// NextBlock never reads them.
//
//pclint:hotpath
func (r *Run) fill(bits []uint64) {
	blocks, states, ctx, cur := r.prog.blocks, r.states, r.ctx, r.ahead
	clear(bits)
	for s := 0; s < len(bits)*64 && cur >= 0; s++ {
		b, st := &blocks[cur], &states[cur]
		bit := uint64(0)
		cur = b.NotTakenTo
		if b.Model.Outcome(st, ctx) {
			bit, cur = 1, b.TakenTo
		}
		st.Execs++
		st.Local = st.Local<<1 | bit
		ctx.Hist = ctx.Hist<<1 | bit
		bits[s/64] |= bit << (s % 64)
	}
	r.ctx, r.ahead = ctx, cur
}

// Close does nothing and returns nil: a Run holds no resources. It
// remains for callers that close their runs.
func (r *Run) Close() error { return nil }

// Next commits the branch ending the current block and advances to the
// successor, returning the committed event: NextBlock of one event.
//
//pclint:hotpath
func (r *Run) Next() Event {
	var ev [1]Event
	if r.NextBlock(ev[:]) == 0 {
		r.CurrentAddr() // panics: past a missing successor edge
	}
	return ev[0]
}

// NextBlock commits up to len(buf) branches into buf and returns how
// many were decoded. The committed stream depends only on the program,
// never on any predictor, so decoding a block ahead of the predictors
// observing it is the same invariant one-pass multi-predictor execution
// rests on. The block's boundaries do not change the stream.
//
// A short count (n < len(buf)) happens only on trace-reconstructed
// CFGs whose replay reached a branch with no recorded successor edge;
// the run then sits past the end, and CurrentAddr panics. Decoding past
// a replay-form program's last outcome panics.
//
//pclint:hotpath
func (r *Run) NextBlock(buf []Event) int {
	blocks, bits, base, end, cur, step := r.prog.blocks, r.bits, r.base, r.end, r.cur, r.step
	i := 0
	for ; i < len(buf) && cur >= 0; i++ {
		if step == end {
			// The bitmap is spent: a replay ends, a synthetic Run refills.
			if r.states == nil {
				panic(fmt.Sprintf("program: replay of %q exhausted after %d recorded branches; shrink the warmup/measure window to fit the trace", r.prog.Name, end)) //pclint:allow cold panic guard
			}
			r.fill(bits)
			base, end = end, end+uint64(len(bits))*64
		}
		t := bits[(step-base)/64] >> (step % 64) & 1
		b, e := &blocks[cur], &buf[i] // field by field: a literal would be built, then copied
		e.Addr, e.Taken, e.BlockID = b.Addr, t == 1, b.ID
		e.Uops, e.MemUops, e.FPUops = b.Uops, b.MemUops, b.FPUops
		cur = b.NotTakenTo
		if t == 1 {
			cur = b.TakenTo
		}
		step++
	}
	r.cur, r.step, r.base, r.end = cur, step, base, end
	return i
}

// Step returns the number of committed branches so far.
//
//pclint:hotpath
func (r *Run) Step() uint64 { return r.step }

// CurrentAddr returns the address of the next branch to commit.
//
//pclint:hotpath
func (r *Run) CurrentAddr() uint64 {
	if r.cur < 0 {
		panic(fmt.Sprintf("program: replay of %q ran past the recorded trace (no successor edge after %d branches)", r.prog.Name, r.step)) //pclint:allow cold panic guard
	}
	return r.prog.blocks[r.cur].Addr
}

// String summarises the program.
func (p *Program) String() string {
	return fmt.Sprintf("%s/%s: %d static branches, seed %#x", p.Suite, p.Name, len(p.blocks), p.seed)
}
