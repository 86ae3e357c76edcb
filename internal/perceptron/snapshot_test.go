package perceptron

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"prophetcritic/internal/checkpoint"
)

// driveSeeded trains p through rounds threshold-rule updates of a seeded
// branch stream: 16 branch sites over a shared 64-bit outcome history,
// each site's outcome a fixed history bit with a site-dependent rate of
// noise. The three least noisy sites train on every event, which pins
// their weights at ±maxWeight; the rest follow the threshold rule, so
// the rows also hold weights that wander near zero.
func driveSeeded(p *Perceptron, rounds int, seed uint64) {
	next := xorshift(seed)
	var hist uint64
	for i := 0; i < rounds; i++ {
		site := next() % 16
		taken := hist>>(site*3%uint64(p.histLen+1))&1 == 1
		if next()%16 < site {
			taken = next()&1 == 1
		}
		if site < 3 {
			p.Train(0x4000+site*4, hist, taken)
		} else {
			p.Update(0x4000+site*4, hist, taken)
		}
		hist <<= 1
		if taken {
			hist |= 1
		}
	}
}

// snapshotBytes encodes p's state.
func snapshotBytes(p *Perceptron) []byte {
	enc := checkpoint.NewEncoder()
	p.Snapshot(enc)
	return enc.Bytes()
}

// TestSnapshotBytesPinned pins the checkpoint encoding of seeded trained
// perceptrons: the bias bytes followed by each row's weights as 16-bit
// lanes biased by 1<<13, four to a word. The in-memory layout may change;
// these bytes may not, because stored checkpoints and the result cache
// key on them. The histories cover a row that fits one word, rows with
// padding lanes in the last word, and a full 64-bit row.
func TestSnapshotBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		histLen uint
		want    string
	}{
		{4, "48aaf848602d4b1946a26d56ee62597c92efea6b786ef3b1d3fb7d02165b92ba"},
		{9, "745bfd705af501b2449185ad0bfa1da0ea23e72e7bbe2a0f6b537636b6ecd2a5"},
		{13, "c8bcd2dd2e6c3237c4e4b47b8552265323a56a2b414ef8124f11243c94f59b45"},
		{24, "928553d7f6b4e5d7451824dd1b29aed7539bec06f48f2672814b3fac07304e18"},
		{57, "221797b26166a99f28d56cb22eef9c350611fce24b94c368980aded2fc89be2d"},
		{64, "bfd346b62d01527eda80796cf66479db804961a036022d98c013a274f2a51cea"},
	} {
		p := New(7, tc.histLen)
		driveSeeded(p, 40_000, 0x9e3779b97f4a7c15^uint64(tc.histLen))
		saturated, small := false, false
		for row := 0; row < p.pool; row++ {
			for j := 0; j < int(tc.histLen); j++ {
				w := laneGet(p.rowWordsOf(row), j)
				saturated = saturated || w == maxWeight || w == -maxWeight
				small = small || w > -8 && w < 8
			}
		}
		if !saturated || !small {
			t.Fatalf("histLen %d: saturated weights %v, near-zero weights %v; the stream must make both", tc.histLen, saturated, small)
		}
		sum := sha256.Sum256(snapshotBytes(p))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("histLen %d: snapshot sha256 %s, want %s", tc.histLen, got, tc.want)
		}
	}
}
