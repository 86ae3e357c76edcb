package core_test

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"prophetcritic/internal/bimodal"
	"prophetcritic/internal/budget"
	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/core"
	"prophetcritic/internal/gshare"
	"prophetcritic/internal/gskew"
	"prophetcritic/internal/perceptron"
)

// lanedSnap is a lane type whose state can be compared byte for byte.
type lanedSnap interface {
	core.Laned
	checkpoint.Snapshotter
}

func snapshotBytes(s checkpoint.Snapshotter) []byte {
	enc := checkpoint.NewEncoder()
	s.Snapshot(enc)
	return bytes.Clone(enc.Bytes())
}

// stableAddrs are the branch addresses the contract tests train: enough
// to reach every entry of the tiny tables below.
var stableAddrs = func() []uint64 {
	as := make([]uint64, 16)
	for i := range as {
		as[i] = 0x400000 + 4*uint64(i)
	}
	return as
}()

// stableStream drives p and its Update-trained twin with n seeded
// branches over stableAddrs and hist bits of history, each address with
// its own taken bias so some counters saturate and others keep moving.
// Before each call it hands the call's inputs to step, which applies
// UpdateStable to p and returns what it reported.
func stableStream(n int, hist uint, twin core.Laned, step func(addr, h uint64, taken bool) bool) (stable, unstable int) {
	rng := rand.New(rand.NewPCG(27, uint64(hist)))
	bias := make([]float64, len(stableAddrs))
	for i := range bias {
		bias[i] = rng.Float64()
	}
	for range n {
		ai := rng.IntN(len(stableAddrs))
		a, h := stableAddrs[ai], rng.Uint64N(1<<hist)
		taken := rng.Float64() < bias[ai]
		twin.Update(a, h, taken)
		if step(a, h, taken) {
			stable++
		} else {
			unstable++
		}
	}
	return stable, unstable
}

// TestUpdateStableContract holds every family whose UpdateStable can
// report true to the lane constraint: (a) after a call that reported
// true, Predict is unchanged over the exhaustive (addr, hist) grid of
// the addresses trained and every history value the predictor reads;
// (b) a twin trained with Update ends with the same snapshot bytes.
// The geometries are tiny so counters flip, and a wrong rule shows,
// within the stream.
func TestUpdateStableContract(t *testing.T) {
	for _, f := range []struct {
		name  string
		hist  uint
		calls int
		build func() lanedSnap
	}{
		{"gshare", 3, 20000, func() lanedSnap { return gshare.New(3, 3) }},
		{"bimodal", 0, 20000, func() lanedSnap { return bimodal.New(3, 2) }},
		{"2Bc-gskew", 3, 20000, func() lanedSnap { return gskew.New(3, 3) }},
		{"perceptron", 4, 20000, func() lanedSnap { return perceptron.New(3, 4) }},
		// Two weight words a row, the second with padding lanes; its
		// grid is 32 times larger, so the stream is shorter.
		{"perceptron-2words", 9, 5000, func() lanedSnap { return perceptron.New(3, 9) }},
	} {
		t.Run(f.name, func(t *testing.T) {
			p, twin := f.build(), f.build()
			grid := func(dst []bool) []bool {
				dst = dst[:0]
				for _, a := range stableAddrs {
					for h := range uint64(1) << f.hist {
						dst = append(dst, p.Predict(a, h))
					}
				}
				return dst
			}
			before, after := grid(nil), grid(nil)
			call := 0
			stable, unstable := stableStream(f.calls, f.hist, twin, func(a, h uint64, taken bool) bool {
				call++
				ok := p.UpdateStable(a, h, taken)
				after = grid(after)
				if ok {
					for i := range before {
						if before[i] != after[i] {
							ga, gh := stableAddrs[i>>f.hist], uint64(i)&(1<<f.hist-1)
							t.Fatalf("call %d (addr %#x, hist %d, taken %v) reported stable but Predict(%#x, %d) changed to %v",
								call, a, h, taken, ga, gh, after[i])
						}
					}
				}
				before, after = after, before
				return ok
			})
			if stable == 0 || unstable == 0 {
				t.Fatalf("stream never exercised both answers: %d stable, %d unstable", stable, unstable)
			}
			if !bytes.Equal(snapshotBytes(p), snapshotBytes(twin)) {
				t.Fatal("UpdateStable trained differently from Update")
			}
			t.Logf("%d stable, %d unstable", stable, unstable)
		})
	}
}

// TestUpdateStableTrainsLikeUpdate holds every registered lane family,
// including those whose UpdateStable always reports false, to training
// exactly like Update.
func TestUpdateStableTrainsLikeUpdate(t *testing.T) {
	kinds := []budget.Kind{
		budget.Gshare, budget.Perceptron, budget.Gskew, budget.TaggedGshare,
		budget.FilteredPerceptron, budget.Bimodal, budget.Local,
		budget.Tournament, budget.YAGS,
	}
	for _, k := range kinds {
		t.Run(string(k), func(t *testing.T) {
			cfg, err := budget.Resolve(k, 1)
			if err != nil {
				t.Fatal(err)
			}
			p, twin := cfg.Build().(lanedSnap), cfg.Build().(lanedSnap)
			stableStream(5000, 8, twin, func(a, h uint64, taken bool) bool {
				return p.UpdateStable(a, h, taken)
			})
			if !bytes.Equal(snapshotBytes(p), snapshotBytes(twin)) {
				t.Fatal("UpdateStable trained differently from Update")
			}
		})
	}
}
