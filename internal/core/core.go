// Package core implements the prophet/critic hybrid conditional branch
// predictor — the primary contribution of the paper (Sections 3–5).
//
// The hybrid composes two conventional predictors:
//
//   - the prophet predicts the current branch from the branch history
//     register (BHR) and then keeps predicting down the predicted path,
//     producing the branch's future (a prophecy);
//   - the critic predicts the same branch later, from a branch outcome
//     register (BOR) whose older bits are branch history and whose newest
//     FutureBits bits are the prophet's predictions for the branch and the
//     branches after it. The critique — agree or disagree with the prophet
//     — determines the final prediction.
//
// The critic here literally predicts the branch's direction; since the
// prophet's own prediction is the first future bit in the critic's BOR,
// predicting the direction and critiquing the prophet are the same thing,
// and "the critic's prediction is the final prediction for the branch"
// (Section 3.1).
//
// The reference API is two-phase, mirroring the pipeline: Predict
// produces the final prediction for a branch (performing the speculative
// future-bit walk via a caller-supplied WalkFunc over the program's
// control-flow graph), and Resolve later commits the branch's actual
// outcome, training both predictors non-speculatively (Section 3.2) and
// advancing the architectural BHR/BOR with checkpoint-repair semantics
// (Section 3.3). It is the branch-at-a-time oracle, not an engine: the
// simulators step hybrids only through the lanes (PlanLanes, lanes.go),
// the functional simulator reading their statistics and the timing model
// their per-branch verdicts (Lanes.Verdicts), and the tests hold the
// lanes to Predict and Resolve.
package core

import (
	"fmt"

	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/history"
	"prophetcritic/internal/predictor"
)

// MaxFutureBits bounds the future-bit count; the paper evaluates up to 12.
const MaxFutureBits = 16

// WalkFunc advances a speculative walk of the program's control-flow
// graph: it returns the address of the next conditional branch reached by
// leaving the branch at addr in the given direction. ok=false stops the
// walk early (end of program or unresolvable path); the critic then uses
// however many future bits were gathered, matching the paper's policy
// ("we obtained the best results by generating a critique using the future
// bits that were available").
type WalkFunc func(addr uint64, taken bool) (next uint64, ok bool)

// Config parameterises a hybrid.
type Config struct {
	// FutureBits is the number of future bits the critic waits for before
	// critiquing. 0 degenerates to a conventional hybrid/overriding
	// organisation in which both components see only history.
	FutureBits uint
	// Filtered selects the tag-filtered critic protocol of Section 4. It
	// requires the critic to implement predictor.Tagged: a tag miss is an
	// implicit agree, and new entries are allocated only when a tag miss
	// coincides with a prophet mispredict.
	Filtered bool
	// BORLen is the total BOR register length. If zero it defaults to the
	// critic's HistoryLen.
	BORLen uint
	// BHRLen is the prophet's history register length. If zero it
	// defaults to the prophet's HistoryLen.
	BHRLen uint
}

// Critique classifies the critic's action on one branch, following the
// taxonomy of Section 7.3 (Figure 8 and Table 4). The prophet half refers
// to the prophet's prediction being correct; the critique half to the
// critic agreeing, disagreeing, or having filtered the branch out (none).
type Critique int

// Critique values. Ideal is IncorrectDisagree (the critic fixes a prophet
// mispredict); the case to minimise is CorrectDisagree (the critic breaks
// a correct prediction).
const (
	CorrectAgree Critique = iota
	CorrectDisagree
	IncorrectAgree
	IncorrectDisagree
	CorrectNone
	IncorrectNone
	numCritiques
)

// NumCritiques is the number of critique classes. Arrays tallying
// per-critique counts (core.Stats, sim.Result) must be sized with it so
// that adding a class cannot silently truncate counts.
const NumCritiques = int(numCritiques)

// NumExplicitCritiques is the number of explicit (tag-hit) critique
// classes. The explicit classes CorrectAgree..IncorrectDisagree precede
// the implicit None classes in the enumeration; share/distribution
// reductions iterate exactly this prefix.
const NumExplicitCritiques = int(IncorrectDisagree) + 1

// String returns the paper's name for the critique class.
func (c Critique) String() string {
	switch c {
	case CorrectAgree:
		return "correct_agree"
	case CorrectDisagree:
		return "correct_disagree"
	case IncorrectAgree:
		return "incorrect_agree"
	case IncorrectDisagree:
		return "incorrect_disagree"
	case CorrectNone:
		return "correct_none"
	case IncorrectNone:
		return "incorrect_none"
	default:
		return fmt.Sprintf("Critique(%d)", int(c))
	}
}

// Prediction carries one branch's prediction through the pipeline from
// Predict to Resolve.
type Prediction struct {
	Addr    uint64 // branch address
	Final   bool   // the final (critic-decided) prediction
	Prophet bool   // the prophet's prediction
	Critic  bool   // the critic's prediction (meaningful when CriticUsed)
	// CriticUsed reports whether the critique came from the critic (tag
	// hit, or any unfiltered prediction) as opposed to an implicit agree.
	CriticUsed bool
	// FutureUsed is the number of future bits actually gathered (may be
	// less than Config.FutureBits when the walk ended early).
	FutureUsed uint
	// BHRValue and BORValue are the register values used by the prophet
	// and critic respectively; Resolve trains the pattern tables with
	// exactly these values (Sections 3.2, 3.3).
	BHRValue uint64
	BORValue uint64
}

// Stats accumulates the critique distribution and mispredict counts.
type Stats struct {
	Branches          uint64
	ProphetMispredict uint64
	FinalMispredict   uint64
	Critiques         [numCritiques]uint64
}

// Count returns the tally for one critique class.
func (s *Stats) Count(c Critique) uint64 { return s.Critiques[c] }

// Hybrid is a prophet/critic hybrid branch predictor.
type Hybrid struct {
	prophet predictor.Predictor
	critic  predictor.Predictor // nil for prophet-alone configurations
	tagged  predictor.Tagged    // non-nil iff cfg.Filtered
	cfg     Config
	bhr     history.Register
	bor     history.Register
	stats   Stats
}

// New builds a hybrid from a prophet and a critic. critic may be nil, in
// which case the hybrid is the prophet alone (the "no critic" bars of
// Figure 6). If cfg.Filtered is set the critic must implement
// predictor.Tagged.
func New(prophet predictor.Predictor, critic predictor.Predictor, cfg Config) *Hybrid {
	if prophet == nil {
		panic("core: prophet must not be nil")
	}
	if cfg.FutureBits > MaxFutureBits {
		panic(fmt.Sprintf("core: FutureBits %d exceeds maximum %d", cfg.FutureBits, MaxFutureBits))
	}
	if cfg.BHRLen == 0 {
		cfg.BHRLen = prophet.HistoryLen()
	}
	var tagged predictor.Tagged
	if critic != nil {
		if cfg.BORLen == 0 {
			cfg.BORLen = critic.HistoryLen()
		}
		if cfg.BORLen < cfg.FutureBits {
			panic(fmt.Sprintf("core: BOR length %d shorter than FutureBits %d", cfg.BORLen, cfg.FutureBits))
		}
		if cfg.Filtered {
			tg, ok := critic.(predictor.Tagged)
			if !ok {
				panic(fmt.Sprintf("core: filtered critic %s does not implement predictor.Tagged", critic.Name()))
			}
			tagged = tg
		}
	}
	h := &Hybrid{prophet: prophet, critic: critic, tagged: tagged, cfg: cfg}
	h.bhr = history.New(cfg.BHRLen)
	if critic != nil {
		h.bor = history.New(cfg.BORLen)
	}
	return h
}

// Predict produces the final prediction for the conditional branch at
// addr. walk drives the speculative future-bit gathering; it may be nil
// when FutureBits <= 1 (no walk is needed: the first future bit is the
// prophet's own prediction).
func (h *Hybrid) Predict(addr uint64, walk WalkFunc) Prediction {
	bhrV := h.bhr.Value()
	p := h.prophet.Predict(addr, bhrV)
	pr := Prediction{Addr: addr, Prophet: p, Final: p, BHRValue: bhrV}
	if h.critic == nil {
		return pr
	}

	// Gather the branch future: the prophet's prediction for this branch
	// plus its predictions for the next FutureBits-1 branches down the
	// predicted path, made with a speculatively updated BHR copy. The
	// scratch registers are stack-allocated value copies of the
	// architectural registers — the walk allocates nothing.
	borReg := h.bor
	if h.cfg.FutureBits > 0 {
		borReg.Push(p)
		pr.FutureUsed = 1
		specBHR := h.bhr
		specBHR.Push(p)
		cur, dir := addr, p
		for pr.FutureUsed < h.cfg.FutureBits {
			if walk == nil {
				break
			}
			next, ok := walk(cur, dir)
			if !ok {
				break
			}
			np := h.prophet.Predict(next, specBHR.Value())
			borReg.Push(np)
			specBHR.Push(np)
			cur, dir = next, np
			pr.FutureUsed++
		}
	}
	pr.BORValue = borReg.Value()

	if h.cfg.Filtered {
		c, hit := h.tagged.PredictTagged(addr, pr.BORValue)
		pr.CriticUsed = hit
		if hit {
			pr.Critic = c
			pr.Final = c
		}
		return pr
	}
	pr.CriticUsed = true
	pr.Critic = h.critic.Predict(addr, pr.BORValue)
	pr.Final = pr.Critic
	return pr
}

// Resolve commits the branch: classifies the critique, trains the prophet
// and critic non-speculatively with the register values captured at
// prediction time, and advances the architectural BHR and BOR with the
// actual outcome (checkpoint-repair semantics: after a mispredict the
// registers are restored and the correct outcome inserted, so in commit
// order they always carry actual outcomes).
func (h *Hybrid) Resolve(pr Prediction, taken bool) Critique {
	prophetRight := pr.Prophet == taken
	cr := h.classify(pr, prophetRight)
	h.stats.tally(prophetRight, pr.Final == taken, cr)

	// Train the prophet's pattern tables at commit (Section 3.2).
	h.prophet.Update(pr.Addr, pr.BHRValue, taken)

	// Train the critic with the same BOR value used for the critique,
	// wrong-path future bits included (Section 3.3).
	if h.critic != nil {
		if h.cfg.Filtered {
			if pr.CriticUsed {
				h.critic.Update(pr.Addr, pr.BORValue, taken)
			} else if !prophetRight {
				// Tag miss on a mispredicted branch: allocate the
				// context so the critique is available next time (§4).
				h.tagged.Allocate(pr.Addr, pr.BORValue, taken)
			}
		} else {
			h.critic.Update(pr.Addr, pr.BORValue, taken)
		}
		h.bor.Push(taken)
	}
	h.bhr.Push(taken)
	return cr
}

func (h *Hybrid) classify(pr Prediction, prophetRight bool) Critique {
	switch {
	case pr.CriticUsed:
		return explicitCritique(prophetRight, pr.Critic == pr.Prophet)
	case h.critic != nil:
		// Filtered tag miss: an implicit agree.
		return implicitCritique(prophetRight)
	default:
		// Prophet-alone: fold into the agree classes.
		return explicitCritique(prophetRight, true)
	}
}

// explicitCritique classifies a critique the critic made: the explicit
// classes are laid out CorrectAgree, CorrectDisagree, IncorrectAgree,
// IncorrectDisagree.
//
//pclint:hotpath
func explicitCritique(prophetRight, agree bool) Critique {
	c := CorrectAgree
	if !prophetRight {
		c = IncorrectAgree
	}
	if !agree {
		c++
	}
	return c
}

// implicitCritique classifies a branch the filtered critic let through
// on a tag miss.
//
//pclint:hotpath
func implicitCritique(prophetRight bool) Critique {
	if prophetRight {
		return CorrectNone
	}
	return IncorrectNone
}

// tally counts one committed branch.
//
//pclint:hotpath
func (s *Stats) tally(prophetRight, finalRight bool, cr Critique) {
	s.Branches++
	if !prophetRight {
		s.ProphetMispredict++
	}
	if !finalRight {
		s.FinalMispredict++
	}
	s.Critiques[cr]++
}

// Stats returns the accumulated critique and mispredict statistics.
func (h *Hybrid) Stats() Stats { return h.stats }

// Config returns the hybrid's configuration.
func (h *Hybrid) Config() Config { return h.cfg }

// Prophet and Critic expose the components (Critic may be nil).
func (h *Hybrid) Prophet() predictor.Predictor { return h.prophet }
func (h *Hybrid) Critic() predictor.Predictor  { return h.critic }

// SizeBits returns the combined hardware budget of both components.
func (h *Hybrid) SizeBits() int {
	s := h.prophet.SizeBits()
	if h.critic != nil {
		s += h.critic.SizeBits()
	}
	return s
}

// Name describes the configuration.
func (h *Hybrid) Name() string {
	if h.critic == nil {
		return h.prophet.Name() + " (no critic)"
	}
	mode := "unfiltered"
	if h.cfg.Filtered {
		mode = "filtered"
	}
	return fmt.Sprintf("%s + %s (%s, %d future bits)", h.prophet.Name(), h.critic.Name(), mode, h.cfg.FutureBits)
}

// Snapshot implements checkpoint.Snapshotter: the configuration echo (a
// restore guard), the architectural BHR/BOR, the accumulated statistics,
// and both component predictors. It panics if a component does not
// implement checkpoint.Snapshotter — every predictor in this repository
// does.
func (h *Hybrid) Snapshot(enc *checkpoint.Encoder) {
	enc.Section("hybrid")
	enc.Uvarint(uint64(h.cfg.FutureBits))
	enc.Bool(h.cfg.Filtered)
	enc.Uvarint(uint64(h.cfg.BORLen))
	enc.Uvarint(uint64(h.cfg.BHRLen))
	enc.Bool(h.critic != nil)
	enc.Uvarint(h.stats.Branches)
	enc.Uvarint(h.stats.ProphetMispredict)
	enc.Uvarint(h.stats.FinalMispredict)
	for c := range h.stats.Critiques {
		enc.Uvarint(h.stats.Critiques[c])
	}
	h.bhr.Snapshot(enc)
	snapshotComponent(enc, h.prophet, "prophet")
	if h.critic != nil {
		h.bor.Snapshot(enc)
		snapshotComponent(enc, h.critic, "critic")
	}
}

// Restore implements checkpoint.Snapshotter. The hybrid must have been
// built with the same configuration and component structure the snapshot
// was taken from; mismatches are reported as errors, never panics.
func (h *Hybrid) Restore(dec *checkpoint.Decoder) error {
	dec.Section("hybrid")
	fb := uint(dec.Uvarint())
	filtered := dec.Bool()
	borLen := uint(dec.Uvarint())
	bhrLen := uint(dec.Uvarint())
	hasCritic := dec.Bool()
	if dec.Err() == nil {
		switch {
		case fb != h.cfg.FutureBits || filtered != h.cfg.Filtered:
			dec.Failf("core: snapshot of a (fb=%d, filtered=%v) hybrid restored into (fb=%d, filtered=%v)",
				fb, filtered, h.cfg.FutureBits, h.cfg.Filtered)
		case borLen != h.cfg.BORLen || bhrLen != h.cfg.BHRLen:
			dec.Failf("core: snapshot register lengths (BHR %d, BOR %d) do not match hybrid (BHR %d, BOR %d)",
				bhrLen, borLen, h.cfg.BHRLen, h.cfg.BORLen)
		case hasCritic != (h.critic != nil):
			dec.Failf("core: snapshot critic presence (%v) does not match hybrid (%v)", hasCritic, h.critic != nil)
		}
	}
	var stats Stats
	stats.Branches = dec.Uvarint()
	stats.ProphetMispredict = dec.Uvarint()
	stats.FinalMispredict = dec.Uvarint()
	for c := range stats.Critiques {
		stats.Critiques[c] = dec.Uvarint()
	}
	if err := dec.Err(); err != nil {
		return err
	}
	if err := h.bhr.Restore(dec); err != nil {
		return err
	}
	if err := restoreComponent(dec, h.prophet, "prophet"); err != nil {
		return err
	}
	if h.critic != nil {
		if err := h.bor.Restore(dec); err != nil {
			return err
		}
		if err := restoreComponent(dec, h.critic, "critic"); err != nil {
			return err
		}
	}
	h.stats = stats
	return nil
}

// snapshotComponent and restoreComponent bridge the predictor interface
// to the checkpoint seam.
func snapshotComponent(enc *checkpoint.Encoder, p predictor.Predictor, role string) {
	s, ok := p.(checkpoint.Snapshotter)
	if !ok {
		panic(fmt.Sprintf("core: %s %s does not implement checkpoint.Snapshotter", role, p.Name()))
	}
	s.Snapshot(enc)
}

func restoreComponent(dec *checkpoint.Decoder, p predictor.Predictor, role string) error {
	s, ok := p.(checkpoint.Snapshotter)
	if !ok {
		return fmt.Errorf("core: %s %s does not implement checkpoint.Snapshotter", role, p.Name())
	}
	return s.Restore(dec)
}
