package perceptron_test

import (
	"bytes"
	"testing"

	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/perceptron"
)

// fuzzGeometry is the perceptron every fuzz input is restored into: 13
// history bits leave three padding lanes in each row's last word.
func fuzzGeometry() *perceptron.Perceptron { return perceptron.New(3, 13) }

// snapshot encodes p's state.
func snapshot(p *perceptron.Perceptron) []byte {
	enc := checkpoint.NewEncoder()
	p.Snapshot(enc)
	return bytes.Clone(enc.Bytes())
}

// FuzzPerceptronRestore feeds arbitrary bytes to Perceptron.Restore. The
// decoder's contract on untrusted input: never panic; accept only a
// state the predictor could have reached, so an accepted snapshot
// re-encodes to exactly the bytes it was read from; and keep the
// padding lanes above the history length at weight zero, so the output
// ignores BOR bits the perceptron does not own. The checked-in corpus
// holds valid snapshots (fresh, trained, saturated) beside corrupt ones.
func FuzzPerceptronRestore(f *testing.F) {
	p := fuzzGeometry()
	f.Add(snapshot(p))
	for i := 0; i < 400; i++ {
		p.Update(uint64(i%3)*4, uint64(i)*0x9e3779b97f4a7c15, i%5 != 0)
	}
	f.Add(snapshot(p))
	f.Add([]byte{})
	f.Add([]byte("\x0aperceptron"))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzGeometry()
		dec := checkpoint.NewDecoder(data)
		if err := p.Restore(dec); err != nil {
			if !bytes.Equal(snapshot(p), snapshot(fuzzGeometry())) {
				t.Fatalf("a rejected restore (%v) changed the predictor", err)
			}
			return
		}
		read := data[:len(data)-dec.Remaining()]
		if got := snapshot(p); !bytes.Equal(got, read) {
			t.Fatalf("accepted snapshot re-encodes differently:\n read % x\n  got % x", read, got)
		}
		const above = ^uint64(1<<13 - 1)
		for addr := uint64(0); addr < 3*4; addr += 4 {
			for _, hist := range []uint64{0, 0x1555, 0x0aaa} {
				if a, b := p.Output(addr, hist), p.Output(addr, hist|above); a != b {
					t.Fatalf("addr %#x: output %d with history %#x, %d with the bits above 13 set", addr, a, hist, b)
				}
			}
		}
		// Training from any accepted state keeps it restorable.
		for i := 0; i < 300; i++ {
			p.Train(uint64(i%3)*4, uint64(i)*0xbf58476d1ce4e5b9, i%2 == 0)
		}
		if err := fuzzGeometry().Restore(checkpoint.NewDecoder(snapshot(p))); err != nil {
			t.Fatalf("state trained from an accepted snapshot no longer restores: %v", err)
		}
	})
}
