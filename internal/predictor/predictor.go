// Package predictor defines the interfaces implemented by every direction
// predictor in the repository, plus trivial static predictors used as
// baselines and test doubles.
//
// The prophet/critic hybrid (Section 3 of the paper) imposes one structural
// requirement on its components: "Any predictor can play the role of prophet
// or critic. The only restriction is the critic must be able to use the
// predictions generated by the prophet." Both roles are captured by the
// Predictor interface: the history argument passed to a prophet is the
// branch history register (BHR) value, while the history argument passed to
// a critic is the branch outcome register (BOR) value, whose newest bits are
// the prophet's future bits. Predictors themselves are oblivious to the
// distinction.
//
// Contract:
//
//   - Predict must be free of side effects. The simulator calls it
//     speculatively, including on wrong paths, and relies on prediction
//     being repeatable.
//   - Update is called non-speculatively, in commit order, with the same
//     (addr, hist) pair that was used at prediction time and the branch's
//     actual outcome (Section 3.2: "pattern tables are updated
//     non-speculatively, at commit time").
//   - SizeBits reports the hardware budget the configuration consumes, in
//     bits; Table 3 reproductions and the budget solver rely on it.
package predictor

import "prophetcritic/internal/checkpoint"

// Predictor is a conditional branch direction predictor.
type Predictor interface {
	// Predict returns the predicted direction (true = taken) for the
	// branch at addr given the current history register value.
	Predict(addr, hist uint64) bool
	// Update trains the predictor with the branch's actual outcome. hist
	// must be the history value that was used at prediction time.
	Update(addr, hist uint64, taken bool)
	// HistoryLen returns the number of history bits the predictor reads.
	HistoryLen() uint
	// SizeBits returns the storage the configuration consumes, in bits.
	SizeBits() int
	// Name returns a short human-readable configuration name.
	Name() string
}

// Tagged is implemented by predictors that carry a tag per entry and can
// therefore report whether a prediction came from an allocated entry or
// from cold storage. Filtered critics (Section 4) require this: "If there
// is a hit, the critic's prediction is used as the critique. If there is a
// miss, the critic implicitly agrees with the prophet's prediction."
type Tagged interface {
	Predictor
	// PredictTagged returns the prediction and whether the tag matched.
	// taken is meaningful only when hit; on a miss it is false. Like
	// Predict it must leave the prediction state unchanged.
	PredictTagged(addr, hist uint64) (taken, hit bool)
	// Allocate inserts an entry for (addr, hist), initialising its
	// prediction state toward the observed outcome. Called when a tag
	// miss coincides with a prophet mispredict (Section 4).
	Allocate(addr, hist uint64, taken bool)
}

// Static predicts a constant direction; the classic always-taken /
// always-not-taken baselines and a convenient test double.
type Static struct {
	Dir bool
}

// AlwaysTaken and AlwaysNotTaken are the two static baselines.
func AlwaysTaken() *Static    { return &Static{Dir: true} }
func AlwaysNotTaken() *Static { return &Static{Dir: false} }

// Predict implements Predictor.
func (s *Static) Predict(addr, hist uint64) bool { return s.Dir }

// Update implements Predictor; static predictors do not learn.
func (s *Static) Update(addr, hist uint64, taken bool) {}

// HistoryLen implements Predictor.
func (s *Static) HistoryLen() uint { return 0 }

// SizeBits implements Predictor; a static predictor stores nothing.
func (s *Static) SizeBits() int { return 0 }

// Name implements Predictor.
func (s *Static) Name() string {
	if s.Dir {
		return "always-taken"
	}
	return "always-not-taken"
}

// Snapshot implements checkpoint.Snapshotter; a static predictor has no
// mutable state, so the snapshot is an empty section.
func (s *Static) Snapshot(enc *checkpoint.Encoder) { enc.Section("static") }

// Restore implements checkpoint.Snapshotter.
func (s *Static) Restore(dec *checkpoint.Decoder) error {
	dec.Section("static")
	return dec.Err()
}

// Func adapts an arbitrary function into a Predictor; used by tests to
// build oracles and adversaries.
type Func struct {
	PredictFn func(addr, hist uint64) bool
	UpdateFn  func(addr, hist uint64, taken bool)
	HistLen   uint
	Bits      int
	Label     string
}

// Predict implements Predictor.
func (f *Func) Predict(addr, hist uint64) bool { return f.PredictFn(addr, hist) }

// Update implements Predictor.
func (f *Func) Update(addr, hist uint64, taken bool) {
	if f.UpdateFn != nil {
		f.UpdateFn(addr, hist, taken)
	}
}

// HistoryLen implements Predictor.
func (f *Func) HistoryLen() uint { return f.HistLen }

// SizeBits implements Predictor.
func (f *Func) SizeBits() int { return f.Bits }

// Name implements Predictor.
func (f *Func) Name() string {
	if f.Label == "" {
		return "func"
	}
	return f.Label
}

// Snapshot implements checkpoint.Snapshotter. Func predictors carry no
// state of their own — any state lives in the caller's closures, which
// the caller owns — so the snapshot is an empty section.
func (f *Func) Snapshot(enc *checkpoint.Encoder) { enc.Section("func") }

// Restore implements checkpoint.Snapshotter.
func (f *Func) Restore(dec *checkpoint.Decoder) error {
	dec.Section("func")
	return dec.Err()
}
