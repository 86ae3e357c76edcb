// Prophet lanes: the one engine that steps hybrids, behind
// sim.ManyStepper and pipeline.RunMany. Predict and Resolve are its
// branch-at-a-time oracle, kept for the tests.
//
// The prophet trains only at commit, on committed history, and the
// critic never feeds back into it (Section 3.2), so hybrids that start
// with the same prophet state hold the same prophet state at every
// branch. The walk for k future bits is the first k steps of the
// group's longest walk, and a walk the CFG cuts short (an unresolvable
// target) ends at the same step for every k. Each block is therefore
// stepped as one prophet lane per group — predict, walk to the group's
// largest FutureBits, train, push the BHR, and write a prophecy per
// event — and one critic lane per hybrid, which shifts the
// min(FutureBits, gathered)-bit prefix of the prophecy into its BOR,
// critiques, tallies and trains (a prophet-alone hybrid only tallies).
// When verdicts are on (Lanes.Verdicts), each critic lane also writes a
// verdict byte per event, the two bits of the prediction the timing
// model reads; the functional simulator leaves them off and pays one
// nil check per event.
//
// Lanes are generic loops instantiated per concrete predictor type, so
// no per-branch call goes through predictor.Predictor, and the walk
// runs on block indices instead of re-deriving them from addresses.
// Each family registers its type once (RegisterLanes, or
// RegisterTaggedLanes for predictor.Tagged types), and PlanLanes
// rejects a type that did not. Per hybrid the lanes produce the same
// results and training as Predict and Resolve, with fewer prophet
// Predict calls: a prophet lane keeps its last walk and reuses it when
// the prophet was right, its training changed no prediction
// (UpdateStable), the next event sits at the walk's second block, and
// the BHR holds the value the walk assumed. The walk from there under
// the same predictions is the last walk without its first step, so the
// lane shifts the prophecy by one bit and predicts one new last step,
// unless the CFG ends the walk where it ended before. Otherwise it
// walks in full. TestSpecializedMatchesGeneric and TestLanesMatchGeneric
// hold the lanes byte-identical to a branch-at-a-time Predict/Resolve
// loop kept in the sim tests, TestUpdateStableContract holds each
// family to its stability rule, and the 0 allocs gates hold the loops
// allocation-free.
//
// Groups are formed by state, not by name (see PlanLanes). Planning
// points each follower's prophet at its leader's, so any member's
// checkpoint is exactly the state it would hold alone. The sharing
// outlives the plan: a group's hybrids must be stepped together (a later
// plan over all of them groups them again) and restored only as a set.
// Predict, Resolve or Restore on one member alone is not allowed.

package core

import (
	"bytes"
	"fmt"
	"hash/maphash"

	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/history"
	"prophetcritic/internal/predictor"
	"prophetcritic/internal/program"
)

// family is one registered concrete predictor type's lane constructors.
type family struct {
	match    func(predictor.Predictor) bool
	prophet  func(lead *Hybrid, blocks []program.Block, maxFB uint) prophetRunner
	critic   func(h *Hybrid) criticRunner
	filtered func(h *Hybrid) criticRunner // nil unless the type is predictor.Tagged
}

// families holds the registered lane types. Registration happens in
// family package init functions, so the slice is append-only before
// main starts and read-only after.
var families []*family

// Laned is the lane constraint: a predictor whose UpdateStable trains
// exactly like Update and reports whether every Predict result is
// unchanged by that training. A family that cannot tell returns false;
// a true it cannot back makes the prophet lane reuse a stale walk.
type Laned interface {
	predictor.Predictor
	UpdateStable(addr, hist uint64, taken bool) bool
}

// RegisterLanes registers P as a prophet lane and an unfiltered critic
// lane. Call it from a package init function only.
func RegisterLanes[P Laned]() { families = append(families, lanesOf[P]()) }

// RegisterTaggedLanes registers P as RegisterLanes does, and also as a
// filtered critic lane. Call it from a package init function only.
func RegisterTaggedLanes[P interface {
	predictor.Tagged
	Laned
}]() {
	f := lanesOf[P]()
	f.filtered = func(h *Hybrid) criticRunner { return &filteredLane[P]{h: h, c: h.critic.(P)} }
	families = append(families, f)
}

func lanesOf[P Laned]() *family {
	return &family{
		match: func(x predictor.Predictor) bool { _, ok := x.(P); return ok },
		prophet: func(lead *Hybrid, blocks []program.Block, maxFB uint) prophetRunner {
			return &prophetLane[P]{h: lead, p: lead.prophet.(P), blocks: blocks, maxFB: maxFB}
		},
		critic: func(h *Hybrid) criticRunner { return &criticLane[P]{h: h, c: h.critic.(P)} },
	}
}

func familyOf(x predictor.Predictor) *family {
	for _, f := range families {
		if f.match(x) {
			return f
		}
	}
	return nil
}

// laneFamily returns h's prophet family. It panics, naming the Go type
// and its role, when the prophet or critic type registered no lane for
// that role: specs resolve only through the registry, and every
// registered family registers its lanes, so only code that builds a
// hybrid by hand can get here.
func (h *Hybrid) laneFamily() *family {
	pf := familyOf(h.prophet)
	if pf == nil {
		panic(fmt.Sprintf("core: prophet %T has no registered lanes", h.prophet))
	}
	if h.critic == nil {
		return pf
	}
	cf := familyOf(h.critic)
	if h.cfg.Filtered && (cf == nil || cf.filtered == nil) {
		panic(fmt.Sprintf("core: filtered critic %T has no registered lanes", h.critic))
	}
	if cf == nil {
		panic(fmt.Sprintf("core: critic %T has no registered lanes", h.critic))
	}
	return pf
}

// prophecy is one event's prophet-lane output: the prophet's prediction
// and the n future bits its walk gathered, the prediction itself oldest
// (bit n-1) and the last walk step newest (bit 0).
type prophecy struct {
	bits uint16 // MaxFutureBits wide
	n    uint8
	dir  bool
}

type prophetRunner interface {
	run(evs []program.Event, out []prophecy)
}

type criticRunner interface {
	run(evs []program.Event, in []prophecy)
	sink() *[]uint8
}

// Verdict bits: the two bits of one hybrid's prediction of one event
// that the timing model reads (Lanes.Verdicts). The final prediction is
// the prophet's direction XOR VerdictDisagree.
const (
	VerdictProphet  uint8 = 1 << iota // the prophet predicted taken
	VerdictDisagree                   // an explicit critique disagreed with the prophet
)

//pclint:hotpath
func verdict(prophet, disagree bool) uint8 {
	return uint8(bit(prophet)) | uint8(bit(disagree))<<1
}

// verdictOut is a lane's verdict output: nil unless Lanes.Verdicts
// turned verdicts on, else one byte per event of the current block.
type verdictOut struct{ v []uint8 }

func (o *verdictOut) sink() *[]uint8 { return &o.v }

// prophetLane steps a group's shared prophet and the leader's BHR,
// keeping its last walk for the next event.
type prophetLane[P Laned] struct {
	h      *Hybrid
	p      P
	blocks []program.Block
	maxFB  uint
	w      walk
}

// walk is a prophet lane's last speculative walk: derived state that
// starts empty at every PlanLanes and is never checkpointed.
type walk struct {
	bits uint64 // the prophecy: step 0 (the branch's own prediction) at bit n-1
	n    uint
	// blk is a ring of the walk's blocks: step j predicted at block
	// blk[(head+j)%MaxFutureBits].
	blk  [MaxFutureBits]int32
	head uint
	spec history.Register // the speculative BHR after the walk's last step
	// next is the BHR value the next event must see to reuse the walk:
	// the BHR after the walk's branch committed, which is the BHR with
	// step 0 pushed whenever ok holds.
	next uint64
	// ok reports that the prophet was right at the walk's branch and
	// its training there changed no prediction.
	ok bool
}

//pclint:hotpath
func (l *prophetLane[P]) run(evs []program.Event, out []prophecy) {
	p, blocks, maxFB := l.p, l.blocks, l.maxFB
	bhr, w := l.h.bhr, l.w
	for i := range evs {
		ev := &evs[i]
		bhrV := bhr.Value()
		if w.ok && w.n > 1 && ev.BlockID == int(w.blk[(w.head+1)%MaxFutureBits]) && bhrV == w.next {
			// The walk from this block under this BHR and unchanged
			// predictions is the last walk without its first step.
			w.n--
			w.bits &= 1<<w.n - 1
			w.head++
		} else {
			d := p.Predict(ev.Addr, bhrV)
			w.bits, w.n, w.head = bit(d), 1, 0
			w.blk[0] = int32(ev.BlockID)
			w.spec = bhr
			w.spec.Push(d)
		}
		// The speculative future-bit walk of Predict, on block indices:
		// Walk(addr, dir) is blockAt(addr) + Target + blocks[t].Addr,
		// and the event already carries its block. A reused walk
		// extends by one step, unless the CFG ends it where it ended
		// the last walk.
		for w.n < maxFB {
			last := w.blk[(w.head+w.n-1)%MaxFutureBits]
			t := blocks[last].NotTakenTo
			if w.bits&1 != 0 {
				t = blocks[last].TakenTo
			}
			if t < 0 {
				break
			}
			d := p.Predict(blocks[t].Addr, w.spec.Value())
			w.spec.Push(d)
			w.bits = w.bits<<1 | bit(d)
			w.blk[(w.head+w.n)%MaxFutureBits] = int32(t)
			w.n++
		}
		dir := w.bits>>(w.n-1)&1 != 0
		out[i] = prophecy{bits: uint16(w.bits), n: uint8(w.n), dir: dir}

		stable := p.UpdateStable(ev.Addr, bhrV, ev.Taken)
		bhr.Push(ev.Taken)
		w.ok = stable && dir == ev.Taken
		w.next = bhr.Value()
	}
	l.h.bhr, l.w = bhr, w
}

// criticBOR is the critique-time BOR: the architectural BOR with the
// min(fb, gathered)-bit prefix of the prophecy shifted in.
//
//pclint:hotpath
func criticBOR(bor history.Register, pc prophecy, fb uint8) uint64 {
	k := min(fb, pc.n)
	bor.PushN(uint64(pc.bits>>(pc.n-k)), uint(k))
	return bor.Value()
}

//pclint:hotpath
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// criticLane is an unfiltered critic: it critiques every branch.
type criticLane[C predictor.Predictor] struct {
	verdictOut
	h *Hybrid
	c C
}

//pclint:hotpath
func (l *criticLane[C]) run(evs []program.Event, in []prophecy) {
	h, c, fb, v := l.h, l.c, uint8(l.h.cfg.FutureBits), l.v
	bor, stats := h.bor, h.stats
	for i := range evs {
		ev, pc := &evs[i], in[i]
		borV := criticBOR(bor, pc, fb)
		crit := c.Predict(ev.Addr, borV)
		if v != nil {
			v[i] = verdict(pc.dir, crit != pc.dir)
		}
		prophetRight := pc.dir == ev.Taken
		stats.tally(prophetRight, crit == ev.Taken, explicitCritique(prophetRight, crit == pc.dir))
		c.Update(ev.Addr, borV, ev.Taken)
		bor.Push(ev.Taken)
	}
	h.bor, h.stats = bor, stats
}

// filteredLane is a tag-filtered critic: a tag hit critiques
// explicitly, a miss is an implicit agree, and a miss on a mispredicted
// branch allocates the context (§4).
type filteredLane[C predictor.Tagged] struct {
	verdictOut
	h *Hybrid
	c C
}

//pclint:hotpath
func (l *filteredLane[C]) run(evs []program.Event, in []prophecy) {
	h, c, fb, v := l.h, l.c, uint8(l.h.cfg.FutureBits), l.v
	bor, stats := h.bor, h.stats
	for i := range evs {
		ev, pc := &evs[i], in[i]
		borV := criticBOR(bor, pc, fb)
		crit, hit := c.PredictTagged(ev.Addr, borV)
		if v != nil {
			v[i] = verdict(pc.dir, hit && crit != pc.dir)
		}
		prophetRight := pc.dir == ev.Taken
		if hit {
			stats.tally(prophetRight, crit == ev.Taken, explicitCritique(prophetRight, crit == pc.dir))
			c.Update(ev.Addr, borV, ev.Taken)
		} else {
			stats.tally(prophetRight, prophetRight, implicitCritique(prophetRight))
			if !prophetRight {
				c.Allocate(ev.Addr, borV, ev.Taken)
			}
		}
		bor.Push(ev.Taken)
	}
	h.bor, h.stats = bor, stats
}

// aloneLane tallies a prophet-alone hybrid: its prediction is the
// prophecy's direction.
type aloneLane struct {
	verdictOut
	h *Hybrid
}

//pclint:hotpath
func (l *aloneLane) run(evs []program.Event, in []prophecy) {
	stats, v := l.h.stats, l.v
	for i := range evs {
		right := in[i].dir == evs[i].Taken
		stats.tally(right, right, explicitCritique(right, true))
		if v != nil {
			v[i] = verdict(in[i].dir, false)
		}
	}
	l.h.stats = stats
}

// laneGroup is one prophet lane and the critic lanes it feeds.
type laneGroup struct {
	prophet   prophetRunner
	critics   []criticRunner // one per member, leader first
	lead      *Hybrid
	followers []*Hybrid // members after the leader, aliased to its prophet
}

// Lanes steps a set of hybrids over blocks of committed events.
type Lanes struct {
	groups []laneGroup
	out    []prophecy
	sinks  []*[]uint8 // each hybrid's verdict output, in PlanLanes' hs order
}

// PlanLanes groups hs into lanes over p for blocks of at most block
// events. Hybrids with the same concrete prophet type and BHR length
// are encoded (one shared encoder; nothing is encoded for a hybrid with
// no such peer), bucketed by a digest of the encoding, and confirmed
// byte-equal to the bucket leader's encoding before they join its
// group. Plan after any restore: the grouping reads the hybrids' state.
// PlanLanes panics, before touching any hybrid, if a prophet or critic
// type has no registered lane for its role.
func PlanLanes(p *program.Program, hs []*Hybrid, block int) *Lanes {
	l := &Lanes{out: make([]prophecy, block)}
	type peers struct {
		f      *family
		bhrLen uint
	}
	pfs := make([]*family, len(hs))
	count := make(map[peers]int)
	for i, h := range hs {
		pfs[i] = h.laneFamily()
		count[peers{pfs[i], h.cfg.BHRLen}]++
	}
	type bucket struct {
		peers
		digest uint64
	}
	var (
		plans   []*plan
		buckets = make(map[bucket][]*plan)
		enc     = checkpoint.NewEncoder()
		seed    = maphash.MakeSeed()
	)
	for i, h := range hs {
		k := peers{pfs[i], h.cfg.BHRLen}
		if count[k] == 1 {
			plans = append(plans, &plan{members: []*Hybrid{h}, at: []int{i}})
			continue
		}
		enc.Reset()
		encodeProphet(enc, h)
		b := bucket{k, maphash.Bytes(seed, enc.Bytes())}
		var g *plan
		for _, c := range buckets[b] {
			if bytes.Equal(c.enc, enc.Bytes()) {
				g = c
				break
			}
		}
		if g == nil {
			g = &plan{enc: bytes.Clone(enc.Bytes())}
			buckets[b] = append(buckets[b], g)
			plans = append(plans, g)
		}
		g.members = append(g.members, h)
		g.at = append(g.at, i)
	}

	blocks := p.Blocks()
	l.sinks = make([]*[]uint8, len(hs))
	l.groups = make([]laneGroup, len(plans))
	for gi, pl := range plans {
		lead := pl.members[0]
		g := &l.groups[gi]
		g.lead = lead
		var maxFB uint
		for m, h := range pl.members {
			c := criticOf(h)
			g.critics = append(g.critics, c)
			l.sinks[pl.at[m]] = c.sink()
			if h.critic != nil {
				maxFB = max(maxFB, h.cfg.FutureBits)
			}
		}
		g.followers = pl.members[1:]
		for _, h := range g.followers {
			h.prophet = lead.prophet
		}
		g.prophet = familyOf(lead.prophet).prophet(lead, blocks, maxFB)
	}
	return l
}

// plan is one prophet lane's members, leader first, their indices in
// PlanLanes' hs, and the leader's retained encoding (nil when no peer
// needed one).
type plan struct {
	members []*Hybrid
	at      []int
	enc     []byte
}

// encodeProphet writes everything that decides a prophet lane: the
// prophet's geometry (name, history length, size — a checkpoint encodes
// state, not every parameter), its state, and the BHR feeding it.
func encodeProphet(enc *checkpoint.Encoder, h *Hybrid) {
	enc.String(h.prophet.Name())
	enc.Uvarint(uint64(h.prophet.HistoryLen()))
	enc.Uvarint(uint64(h.prophet.SizeBits()))
	h.bhr.Snapshot(enc)
	snapshotComponent(enc, h.prophet, "prophet")
}

func criticOf(h *Hybrid) criticRunner {
	if h.critic == nil {
		return &aloneLane{h: h}
	}
	cf := familyOf(h.critic)
	if h.cfg.Filtered {
		return cf.filtered(h)
	}
	return cf.critic(h)
}

// Step advances every planned hybrid over one block of committed
// events: per event each predicts (performing the speculative
// future-bit walk), resolves against the committed outcome and trains —
// exactly Predict then Resolve per hybrid. The caller owns window
// accounting; blocks never span a Train/Measure boundary.
//
//pclint:hotpath
func (l *Lanes) Step(evs []program.Event) {
	out := l.out[:len(evs)]
	for gi := range l.groups {
		g := &l.groups[gi]
		g.prophet.run(evs, out)
		for _, c := range g.critics {
			c.run(evs, out)
		}
		for _, f := range g.followers {
			f.bhr = g.lead.bhr
		}
	}
}

// Verdicts turns verdict output on and returns one verdict slice per
// hybrid, in PlanLanes' hs order, each as long as the plan's block.
// After every later Step, vs[i][j] holds VerdictProphet and
// VerdictDisagree for hybrid i on evs[j]: exactly Prediction.Prophet
// and CriticUsed && Critic != Prophet of Predict. Call it
// once, before the first Step it should cover.
func (l *Lanes) Verdicts() [][]uint8 {
	vs := make([][]uint8, len(l.sinks))
	for i, s := range l.sinks {
		vs[i] = make([]uint8, len(l.out))
		*s = vs[i]
	}
	return vs
}

// NumGroups reports how many prophet lanes the plan runs: one per
// distinct prophet state among the hybrids.
func (l *Lanes) NumGroups() int { return len(l.groups) }
