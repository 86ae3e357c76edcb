package perceptron

import "testing"

// fuzzWeight maps a fuzzed byte onto the weight range [-127, 127].
func fuzzWeight(b byte) int32 { return int32(b)%(2*maxWeight+1) - maxWeight }

// FuzzPerceptronKernel checks the byte-lane kernels against the scalar
// references on fuzzed rows: a history length (taken mod 65), the bias
// and weights (one byte each, missing weights zero), a history whose
// bits above the history length are kept, and up to 64 training steps
// whose outcomes are the bits of outcomes. After each step the row must
// equal referenceTrain's word for word, its weight sum and bias must
// follow, and the output must equal referenceOutput. The checked-in
// corpus holds rows at +127 and -127, rows with padding lanes, and
// full 64-bit rows.
func FuzzPerceptronKernel(f *testing.F) {
	f.Add(uint8(13), []byte{200, 3, 254, 0, 127, 128, 1, 90}, uint64(0x0aaa), uint64(0x5), uint8(9))
	f.Add(uint8(64), []byte{}, ^uint64(0), uint64(0), uint8(64))
	f.Add(uint8(9), []byte{254, 254, 254, 254, 254, 254, 254, 254, 254, 254}, uint64(0x1ff), ^uint64(0), uint8(40))

	f.Fuzz(func(t *testing.T, histLen uint8, weights []byte, hist, outcomes uint64, steps uint8) {
		h := uint(histLen) % 65
		p := New(1, h)
		words := p.rowWordsOf(0)
		ws := make([]int32, h)
		if len(weights) > 0 {
			p.bias[0] = int8(fuzzWeight(weights[0]))
		}
		for j := range ws {
			if j+1 < len(weights) {
				ws[j] = fuzzWeight(weights[j+1])
			}
			laneSet(words, j, ws[j])
			p.sum[0] += ws[j]
		}
		ref := make([]uint64, len(words))
		copy(ref, words)
		bias := int32(p.bias[0])
		for step := 0; ; step++ {
			if got, want := p.Output(0, hist), referenceOutput(int8(bias), ws, hist); got != want {
				t.Fatalf("histLen %d step %d: output %d, reference %d (hist %#x)", h, step, got, want, hist)
			}
			if step == int(steps%65) {
				return
			}
			taken := outcomes>>(step%64)&1 == 1
			p.Train(0, hist, taken)
			referenceTrain(ref, h, hist, taken)
			if taken {
				bias = clampWeight(bias + 1)
			} else {
				bias = clampWeight(bias - 1)
			}
			sum := int32(0)
			for j := range ws {
				ws[j] = laneGet(ref, j)
				sum += ws[j]
			}
			for k := range words {
				if words[k] != ref[k] {
					t.Fatalf("histLen %d step %d: word %d = %#016x, reference %#016x", h, step, k, words[k], ref[k])
				}
			}
			if p.sum[0] != sum || int32(p.bias[0]) != bias {
				t.Fatalf("histLen %d step %d: sum %d bias %d, reference sum %d bias %d", h, step, p.sum[0], p.bias[0], sum, bias)
			}
			hist = hist<<1 | hist>>63
		}
	})
}
