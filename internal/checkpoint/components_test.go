package checkpoint_test

// Cross-component snapshot/restore conformance: every checkpointed
// component — each predictor family, the history register, the tag
// table, and the hybrid — must round-trip bit-exactly (snapshot → restore →
// snapshot yields identical bytes) and behave identically to the
// original after the restore point. The exercise streams are
// deterministic functions of a seed, so original and restored instances
// can be driven in lockstep.

import (
	"bytes"
	"testing"

	"prophetcritic/internal/bimodal"
	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/core"
	"prophetcritic/internal/filtered"
	"prophetcritic/internal/gshare"
	"prophetcritic/internal/gskew"
	"prophetcritic/internal/history"
	"prophetcritic/internal/local"
	"prophetcritic/internal/perceptron"
	"prophetcritic/internal/predictor"
	"prophetcritic/internal/tagged"
	"prophetcritic/internal/tagtable"
	"prophetcritic/internal/tournament"
	"prophetcritic/internal/yags"
)

// next is a splitmix64 step — a tiny deterministic op-stream generator.
func next(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// exercisePredictor drives any Predictor with a deterministic stream of
// predict/update (and, for Tagged, allocate) operations.
func exercisePredictor(p predictor.Predictor, rounds int, seed uint64) {
	x := seed
	for i := 0; i < rounds; i++ {
		r := next(&x)
		addr := 0x40_1000 + (r%512)*4
		hist := next(&x)
		taken := r&1 == 1
		if tg, ok := p.(predictor.Tagged); ok && r%7 == 0 {
			if _, hit := tg.PredictTagged(addr, hist); !hit {
				tg.Allocate(addr, hist, taken)
				continue
			}
		}
		p.Predict(addr, hist)
		p.Update(addr, hist, taken)
	}
}

type component struct {
	name     string
	build    func() checkpoint.Snapshotter
	exercise func(s checkpoint.Snapshotter, rounds int, seed uint64)
}

func asPredictor(s checkpoint.Snapshotter, rounds int, seed uint64) {
	exercisePredictor(s.(predictor.Predictor), rounds, seed)
}

// registerBox adapts the value-type history.Register to the test's
// build/exercise shape.
type registerBox struct{ r history.Register }

func (b *registerBox) Snapshot(enc *checkpoint.Encoder)      { b.r.Snapshot(enc) }
func (b *registerBox) Restore(dec *checkpoint.Decoder) error { return b.r.Restore(dec) }

func components() []component {
	return []component{
		{"history", func() checkpoint.Snapshotter { return &registerBox{r: history.New(24)} },
			func(s checkpoint.Snapshotter, rounds int, seed uint64) {
				b := s.(*registerBox)
				x := seed
				for i := 0; i < rounds; i++ {
					b.r.Push(next(&x)&1 == 1)
				}
			}},
		{"bimodal", func() checkpoint.Snapshotter { return bimodal.New(8, 2) }, asPredictor},
		{"gshare", func() checkpoint.Snapshotter { return gshare.New(10, 9) }, asPredictor},
		{"gshare-GAs", func() checkpoint.Snapshotter { return gshare.NewGAs(10, 6) }, asPredictor},
		{"gskew", func() checkpoint.Snapshotter { return gskew.New(9, 8) }, asPredictor},
		{"perceptron", func() checkpoint.Snapshotter { return perceptron.New(37, 21) }, asPredictor},
		{"local", func() checkpoint.Snapshotter { return local.New(7, 9) }, asPredictor},
		{"tournament", func() checkpoint.Snapshotter {
			return tournament.New(gshare.New(9, 8), bimodal.New(8, 2), 9, true, 8)
		}, asPredictor},
		{"tagged-gshare", func() checkpoint.Snapshotter { return tagged.New(6, 4, 8, 18) }, asPredictor},
		{"filtered-perceptron", func() checkpoint.Snapshotter {
			return filtered.New(31, 13, 5, 3, 9, 18)
		}, asPredictor},
		{"yags", func() checkpoint.Snapshotter { return yags.New(8, 5, 2, 8, 10) }, asPredictor},
		{"static", func() checkpoint.Snapshotter { return predictor.AlwaysTaken() }, asPredictor},
		{"tagtable", func() checkpoint.Snapshotter { return tagtable.New(5, 4, 8, 16, true) },
			func(s checkpoint.Snapshotter, rounds int, seed uint64) {
				t := s.(*tagtable.Table)
				x := seed
				for i := 0; i < rounds; i++ {
					r := next(&x)
					addr, hist, taken := r%2048, next(&x), r&1 == 1
					if _, hit := t.Lookup(addr, hist); hit {
						t.Update(addr, hist, taken)
					} else if r%3 == 0 {
						t.Allocate(addr, hist, taken)
					}
				}
			}},
		{"hybrid", func() checkpoint.Snapshotter {
			return core.New(gskew.New(9, 8), tagged.New(5, 4, 8, 18),
				core.Config{FutureBits: 1, Filtered: true, BORLen: 18})
		}, func(s checkpoint.Snapshotter, rounds int, seed uint64) {
			h := s.(*core.Hybrid)
			x := seed
			for i := 0; i < rounds; i++ {
				r := next(&x)
				addr := 0x40_1000 + (r%512)*4
				pr := h.Predict(addr, nil)
				h.Resolve(pr, r&1 == 1)
			}
		}},
	}
}

func snap(t *testing.T, s checkpoint.Snapshotter) []byte {
	t.Helper()
	enc := checkpoint.NewEncoder()
	s.Snapshot(enc)
	return append([]byte(nil), enc.Bytes()...)
}

// TestRoundTripBitExact pins the acceptance property: Snapshot→Restore
// round-trips bit-exactly for every stateful component, and the restored
// instance behaves identically to the original afterwards.
func TestRoundTripBitExact(t *testing.T) {
	for _, c := range components() {
		t.Run(c.name, func(t *testing.T) {
			a := c.build()
			c.exercise(a, 600, 0xA5A5)
			before := snap(t, a)

			b := c.build()
			if err := b.Restore(checkpoint.NewDecoder(before)); err != nil {
				t.Fatalf("restore: %v", err)
			}
			after := snap(t, b)
			if !bytes.Equal(before, after) {
				t.Fatalf("snapshot not bit-exact after restore: %d vs %d bytes", len(before), len(after))
			}

			// Behavioral equivalence: drive both with the same op stream
			// and compare state again.
			c.exercise(a, 400, 0x1234)
			c.exercise(b, 400, 0x1234)
			if !bytes.Equal(snap(t, a), snap(t, b)) {
				t.Fatal("restored component diverged from original under identical operations")
			}
		})
	}
}

// TestRestoreFreshIsIdentity: restoring a cold snapshot into a cold
// component is a no-op.
func TestRestoreFreshIsIdentity(t *testing.T) {
	for _, c := range components() {
		t.Run(c.name, func(t *testing.T) {
			a := c.build()
			cold := snap(t, a)
			if err := c.build().Restore(checkpoint.NewDecoder(cold)); err != nil {
				t.Fatalf("restore of cold snapshot: %v", err)
			}
		})
	}
}

// TestGeometryMismatchErrors: a snapshot restored into a differently
// configured component must fail cleanly, never panic.
func TestGeometryMismatchErrors(t *testing.T) {
	cases := []struct {
		name string
		from checkpoint.Snapshotter
		into checkpoint.Snapshotter
	}{
		{"gshare-size", gshare.New(10, 9), gshare.New(11, 9)},
		{"gskew-size", gskew.New(9, 8), gskew.New(10, 8)},
		{"perceptron-pool", perceptron.New(37, 21), perceptron.New(41, 21)},
		{"tagtable-geometry", tagtable.New(5, 4, 8, 16, true), tagtable.New(6, 4, 8, 16, true)},
		// Same total entries, different associativity: the entry stream
		// would decode cleanly but land in the wrong sets.
		{"tagtable-ways", tagtable.New(5, 4, 8, 16, true), tagtable.New(4, 8, 8, 16, true)},
		{"hybrid-config", core.New(gskew.New(9, 8), tagged.New(5, 4, 8, 18),
			core.Config{FutureBits: 1, Filtered: true, BORLen: 18}),
			core.New(gskew.New(9, 8), tagged.New(5, 4, 8, 18),
				core.Config{FutureBits: 4, Filtered: true, BORLen: 18})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			enc := checkpoint.NewEncoder()
			c.from.Snapshot(enc)
			if err := c.into.Restore(checkpoint.NewDecoder(enc.Bytes())); err == nil {
				t.Fatal("restore into mismatched geometry must error")
			}
		})
	}
}

// TestCorruptValueRejected: semantic validation catches counter and
// weight values a real component can never hold.
func TestCorruptValueRejected(t *testing.T) {
	t.Run("gshare-counter", func(t *testing.T) {
		g := gshare.New(3, 3)
		enc := checkpoint.NewEncoder()
		enc.Section("gshare")
		table := make([]uint8, 8)
		table[5] = 7 // outside the 2-bit range
		enc.Uint8s(table)
		if err := g.Restore(checkpoint.NewDecoder(enc.Bytes())); err == nil {
			t.Fatal("counter value 7 must be rejected")
		}
	})
	t.Run("perceptron-lane", func(t *testing.T) {
		p := perceptron.New(4, 4)
		enc := checkpoint.NewEncoder()
		enc.Section("perceptron")
		enc.Int8s(make([]int8, 4))
		enc.Uint64s(make([]uint64, 4)) // all-zero lanes are far below laneBias-127
		if err := p.Restore(checkpoint.NewDecoder(enc.Bytes())); err == nil {
			t.Fatal("out-of-range packed lane must be rejected")
		}
	})
}
