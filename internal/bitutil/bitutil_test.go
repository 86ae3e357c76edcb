package bitutil

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestMask(t *testing.T) {
	cases := []struct {
		n    uint
		want uint64
	}{
		{0, 0},
		{1, 1},
		{2, 3},
		{8, 0xff},
		{16, 0xffff},
		{63, (uint64(1) << 63) - 1},
		{64, ^uint64(0)},
		{100, ^uint64(0)},
	}
	for _, c := range cases {
		if got := Mask(c.n); got != c.want {
			t.Errorf("Mask(%d) = %#x, want %#x", c.n, got, c.want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, v := range []uint64{1, 2, 4, 8, 1 << 20, 1 << 63} {
		if !IsPow2(v) {
			t.Errorf("IsPow2(%d) = false, want true", v)
		}
	}
	for _, v := range []uint64{0, 3, 5, 6, 7, 9, (1 << 20) + 1, ^uint64(0)} {
		if IsPow2(v) {
			t.Errorf("IsPow2(%d) = true, want false", v)
		}
	}
}

func TestCeilPow2(t *testing.T) {
	cases := []struct {
		v, ceil uint64
	}{
		{0, 1},
		{1, 1},
		{2, 2},
		{3, 4},
		{5, 8},
		{1023, 1024},
		{1024, 1024},
		{1025, 2048},
	}
	for _, c := range cases {
		if got := CeilPow2(c.v); got != c.ceil {
			t.Errorf("CeilPow2(%d) = %d, want %d", c.v, got, c.ceil)
		}
	}
}

func TestLog2(t *testing.T) {
	if Log2(0) != 0 {
		t.Errorf("Log2(0) = %d, want 0", Log2(0))
	}
	for i := uint(0); i < 64; i++ {
		if got := Log2(uint64(1) << i); got != i {
			t.Errorf("Log2(1<<%d) = %d, want %d", i, got, i)
		}
	}
	if got := Log2(1023); got != 9 {
		t.Errorf("Log2(1023) = %d, want 9", got)
	}
}

func TestFoldWidthBounds(t *testing.T) {
	if Fold(0xdeadbeef, 0) != 0 {
		t.Error("Fold with width 0 should be 0")
	}
	if Fold(0xdeadbeef, 64) != 0xdeadbeef {
		t.Error("Fold with width 64 should be identity")
	}
	if Fold(0xdeadbeef, 80) != 0xdeadbeef {
		t.Error("Fold with width >64 should be identity")
	}
}

// Folding must never produce a value wider than the requested width.
func TestFoldStaysInWidth(t *testing.T) {
	f := func(v uint64, w uint8) bool {
		width := uint(w%63) + 1
		return Fold(v, width)&^Mask(width) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// XOR-folding is linear: Fold(a^b) == Fold(a)^Fold(b).
func TestFoldLinearity(t *testing.T) {
	f := func(a, b uint64, w uint8) bool {
		width := uint(w%63) + 1
		return Fold(a^b, width) == Fold(a, width)^Fold(b, width)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexHashInRange(t *testing.T) {
	f := func(addr, hist uint64, w uint8) bool {
		bitsN := uint(w%20) + 1
		return IndexHash(addr, hist, bitsN)&^Mask(bitsN) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTagHashInRange(t *testing.T) {
	f := func(addr, hist uint64, w uint8) bool {
		bitsN := uint(w%16) + 1
		return TagHash(addr, hist, bitsN)&^Mask(bitsN) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The index and tag hash functions must be decorrelated: across many
// (addr, hist) pairs that share an index, the tags should not all collide.
func TestIndexTagDecorrelated(t *testing.T) {
	const indexBits, tagBits = 8, 9
	byIndex := make(map[uint64]map[uint64]bool)
	for i := uint64(0); i < 4096; i++ {
		addr := Spread(i) &^ 3
		hist := Spread(i * 31)
		idx := IndexHash(addr, hist, indexBits)
		tag := TagHash(addr, hist, tagBits)
		if byIndex[idx] == nil {
			byIndex[idx] = make(map[uint64]bool)
		}
		byIndex[idx][tag] = true
	}
	// Every populated index bucket with >=4 members should see >=2 distinct tags.
	for idx, tags := range byIndex {
		if len(tags) == 1 {
			// A single-tag bucket is only suspicious if it is large.
			t.Logf("index %d has a single tag", idx)
		}
	}
	distinct := 0
	for _, tags := range byIndex {
		distinct += len(tags)
	}
	if distinct < 2048 {
		t.Errorf("tag diversity too low: %d distinct (index,tag) pairs over 4096 inserts", distinct)
	}
}

func TestSpreadIsInjectiveOnSample(t *testing.T) {
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 100000; i++ {
		s := Spread(i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("Spread collision: Spread(%d) == Spread(%d) == %#x", i, prev, s)
		}
		seen[s] = i
	}
}

func TestParity(t *testing.T) {
	if Parity(0b1011, 4) != 1 {
		t.Error("Parity(1011,4) should be 1")
	}
	if Parity(0b1011, 2) != 0 {
		t.Error("Parity(1011,2) should be 0 (bits 11)")
	}
	if Parity(^uint64(0), 64) != 0 {
		t.Error("Parity(all-ones,64) should be 0")
	}
}

func TestFoldMatchesPopcountParity(t *testing.T) {
	// Folding to width 1 is the parity of the whole word.
	f := func(v uint64) bool {
		return Fold(v, 1) == uint64(bits.OnesCount64(v)&1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFolderMatchesFold: the log-depth Folder is Fold, for every width
// 0..64 (and beyond), on random values and on short ones that fold
// into few chunks.
func TestFolderMatchesFold(t *testing.T) {
	x := uint64(0x243f6a8885a308d3)
	for width := uint(0); width <= 66; width++ {
		f := NewFolder(width)
		for i := 0; i < 2000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			for _, v := range []uint64{x, x >> (x % 64), uint64(i), ^uint64(0)} {
				if got, want := f.Fold(v), Fold(v, width); got != want {
					t.Fatalf("width %d: Folder.Fold(%#x) = %#x, Fold = %#x", width, v, got, want)
				}
			}
		}
	}
}

// TestIndexHashIsOneFold pins IndexHash to the two-fold definition it
// replaced: fold the address and the history separately, XOR, mask.
func TestIndexHashIsOneFold(t *testing.T) {
	f := func(addr, hist uint64, w uint8) bool {
		width := uint(w % 70)
		return IndexHash(addr, hist, width) == (Fold(addr>>2, width)^Fold(hist, width))&Mask(width)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
