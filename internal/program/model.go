package program

import "prophetcritic/internal/bitutil"

// Ctx is the global architectural context a branch model may correlate
// on: the interleaved outcome history of all committed branches (newest
// outcome in bit 0).
type Ctx struct {
	Hist uint64
}

// State is the per-branch mutable execution state, owned by a Run so that
// Models themselves stay immutable and shareable.
type State struct {
	Execs uint64 // how many times this branch has committed
	Rng   uint64 // private pseudo-random stream
	Local uint64 // the branch's own outcome history (newest bit 0)
	Aux   uint64 // model-specific scratch (e.g. current phase)
}

// Model computes a branch's actual outcome at commit time. Implementations
// must be deterministic functions of (st, ctx) and must perform all state
// evolution through st.
type Model interface {
	// Outcome returns the branch's outcome and advances st. The caller
	// (Run.fill) maintains st.Execs and st.Local; models manage st.Rng/st.Aux.
	Outcome(st *State, ctx Ctx) bool
	// Kind returns the behaviour-class name, used in workload inventories.
	Kind() string
}

// Biased takes the branch with a fixed probability — the bread-and-butter
// conditional whose bias ranges from coin-flip data-dependent tests to
// 99%-taken error checks.
type Biased struct {
	P float64 // probability of taken
}

// Outcome implements Model.
func (m Biased) Outcome(st *State, ctx Ctx) bool { return rngBool(&st.Rng, m.P) }

// Kind implements Model.
func (m Biased) Kind() string { return "biased" }

// Loop is a loop back-edge: taken Trip-1 times, then not-taken once. If
// Jitter > 0 the trip count is re-drawn in [Trip-Jitter, Trip+Jitter]
// after every exit, modelling data-dependent loop bounds.
type Loop struct {
	Trip   int
	Jitter int
}

// Outcome implements Model.
func (m Loop) Outcome(st *State, ctx Ctx) bool {
	trip := uint64(m.Trip)
	if m.Jitter > 0 {
		// Aux holds the current trip count; redraw on wrap (Aux==0).
		if st.Aux == 0 {
			st.Aux = uint64(rngRange(&st.Rng, m.Trip-m.Jitter, m.Trip+m.Jitter))
			if st.Aux < 2 {
				st.Aux = 2
			}
		}
		trip = st.Aux
	}
	iter := st.Execs % trip
	taken := iter != trip-1
	if !taken && m.Jitter > 0 {
		st.Aux = 0 // force a redraw for the next activation
	}
	return taken
}

// Kind implements Model.
func (m Loop) Kind() string { return "loop" }

// Pattern replays a fixed periodic direction pattern — switch-like code
// and unrolled kernels produce these.
type Pattern struct {
	Bits   uint64 // the pattern, bit i = outcome of iteration i
	Period uint   // pattern length in [1, 64]
}

// Outcome implements Model.
func (m Pattern) Outcome(st *State, ctx Ctx) bool {
	return m.Bits>>(uint(st.Execs%uint64(m.Period)))&1 == 1
}

// Kind implements Model.
func (m Pattern) Kind() string { return "pattern" }

// HistCopy correlates with the global outcome history: the outcome equals
// (or, if Invert, complements) the outcome of the branch Depth positions
// back in the dynamic stream, wrong with probability Noise. These are the
// correlated branches two-level predictors were invented for; at depths
// beyond the prophet's history length they become its blind spot.
type HistCopy struct {
	Depth  uint
	Invert bool
	Noise  float64
}

// Outcome implements Model.
func (m HistCopy) Outcome(st *State, ctx Ctx) bool {
	o := ctx.Hist>>(m.Depth-1)&1 == 1
	if m.Invert {
		o = !o
	}
	if m.Noise > 0 && rngBool(&st.Rng, m.Noise) {
		o = !o
	}
	return o
}

// Kind implements Model.
func (m HistCopy) Kind() string { return "hist-copy" }

// HistParity correlates with the parity (XOR) of a window of the global
// history. Parity is not linearly separable, so perceptron predictors
// cannot learn it while table-based predictors can (given capacity) —
// the class that separates Figure 6(c)'s perceptron prophet from its
// tagged gshare critic.
type HistParity struct {
	Window uint // number of newest history bits XORed together
	Noise  float64
}

// Outcome implements Model.
func (m HistParity) Outcome(st *State, ctx Ctx) bool {
	o := bitutil.Parity(ctx.Hist, m.Window) == 1
	if m.Noise > 0 && rngBool(&st.Rng, m.Noise) {
		o = !o
	}
	return o
}

// Kind implements Model.
func (m HistParity) Kind() string { return "hist-parity" }

// Phase is a branch whose bias flips every Period executions, modelling
// program phase changes; every flip forces all predictors to retrain.
type Phase struct {
	Period uint64
	PHigh  float64 // taken probability in the high phase
	PLow   float64 // taken probability in the low phase
}

// Outcome implements Model.
func (m Phase) Outcome(st *State, ctx Ctx) bool {
	p := m.PHigh
	if (st.Execs/m.Period)%2 == 1 {
		p = m.PLow
	}
	return rngBool(&st.Rng, p)
}

// Kind implements Model.
func (m Phase) Kind() string { return "phase" }

// LocalPeriodic correlates with the branch's own outcome history: outcome
// equals its own outcome LocalDepth executions ago (seeded by a pattern),
// with optional noise — the classic local-history branch (PAg territory).
type LocalPeriodic struct {
	LocalDepth uint
	Seed       uint64
	Noise      float64
}

// Outcome implements Model.
func (m LocalPeriodic) Outcome(st *State, ctx Ctx) bool {
	var o bool
	if st.Execs < uint64(m.LocalDepth) {
		o = m.Seed>>(st.Execs%64)&1 == 1
	} else {
		o = st.Local>>(m.LocalDepth-1)&1 == 1
	}
	if m.Noise > 0 && rngBool(&st.Rng, m.Noise) {
		o = !o
	}
	return o
}

// Kind implements Model.
func (m LocalPeriodic) Kind() string { return "local-periodic" }
