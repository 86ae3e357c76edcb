package tagtable

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"prophetcritic/internal/bitutil"
	"prophetcritic/internal/checkpoint"
)

// driveSeeded runs a fixed, seeded mix of the critic's access pattern
// over t: a lookup, then an update on a hit or (on a simulated prophet
// mispredict) an allocate on a miss, with occasional stray updates on a
// miss and re-allocations of a present context. Addresses and contexts
// are drawn from small pools so sets fill, hit and evict. It returns the
// number of lookups that hit.
func driveSeeded(t *Table, rounds int, seed uint64) (hits int) {
	x := seed
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < rounds; i++ {
		r := next()
		addr := 0x40_0000 + (r%31)*4
		hist := next() % 24
		taken := r>>20&1 == 1
		_, hit := t.Lookup(addr, hist)
		if hit {
			hits++
		}
		switch {
		case hit && r>>24%7 == 0:
			t.Allocate(addr, hist, taken)
		case hit:
			t.Update(addr, hist, taken)
		case r>>24%3 == 0:
			t.Allocate(addr, hist, taken)
		case r>>24%5 == 1:
			t.Update(addr, hist, taken)
		}
	}
	return hits
}

func snapshotBytes(t *Table) []byte {
	enc := checkpoint.NewEncoder()
	t.Snapshot(enc)
	return enc.Bytes()
}

// TestSnapshotBytesPinned pins the checkpoint encoding of a tagged-gshare-
// shaped table (6-way, 2-bit counters) and a filter-shaped table (3-way,
// no counters), full and evicting, and of a sparsely filled table whose
// invalid entries are encoded too, after a fixed sequence of lookups,
// updates and allocations. The hashes were recorded from the array-of-structs layout
// the table used before its entries were split into parallel arrays; any
// change to the replacement policy, the hashes or the snapshot format
// shows up here.
func TestSnapshotBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		tab  *Table
		want string
	}{
		{"tagged-gshare-6way", New(5, 6, 8, 18, true), "da7ce3ad7c8406f24ef1e2f875e58d22a3748bee572b114d27c4436b0e0eab14"},
		{"filter-3way", New(4, 3, 9, 18, false), "11fc2bce2088f884b6ebd21049ac69cb86f105a007224fd112d579eb8539f969"},
		{"tagged-gshare-sparse", New(10, 6, 8, 18, true), "8c730993b329b51075589578a5c0d5167b8f151c8243473cd50e729ce20f9c3f"},
	} {
		const rounds = 20_000
		if hits := driveSeeded(tc.tab, rounds, 0x9e3779b97f4a7c15); hits < rounds/20 || hits == rounds {
			t.Fatalf("%s: %d of %d lookups hit; the sequence no longer mixes hits and misses", tc.name, hits, rounds)
		}
		sum := sha256.Sum256(snapshotBytes(tc.tab))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: snapshot sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestRestoreRejectsDirtyInvalidEntry: the table never writes an invalid
// entry with a tag, counter or timestamp, and its key layout cannot hold
// one, so Restore refuses such a snapshot instead of dropping the fields.
func TestRestoreRejectsDirtyInvalidEntry(t *testing.T) {
	for _, dirty := range []struct {
		name          string
		tag, ctr, use uint64
	}{{"tag", 5, 0, 0}, {"counter", 0, 2, 0}, {"timestamp", 0, 0, 9}} {
		enc := checkpoint.NewEncoder()
		enc.Section("tagtable")
		enc.Uvarint(4)
		enc.Uvarint(2)
		enc.Uvarint(10)
		for i := 0; i < 4; i++ {
			if i == 3 {
				enc.Bool(false)
				enc.Uvarint(dirty.tag)
				enc.Uvarint(dirty.ctr)
				enc.Uvarint(dirty.use)
				continue
			}
			enc.Bool(true)
			enc.Uvarint(uint64(i))
			enc.Uvarint(1)
			enc.Uvarint(uint64(i + 1))
		}
		tab := New(1, 2, 8, 18, true)
		if err := tab.Restore(checkpoint.NewDecoder(enc.Bytes())); err == nil {
			t.Errorf("an invalid entry with a non-zero %s must be rejected", dirty.name)
		}
		if tab.Occupancy() != 0 {
			t.Errorf("a rejected restore (%s) changed the table", dirty.name)
		}
	}
}

// TestHashMatchesIndexAndTagHash: the table's Folder-based hash is
// bitutil.IndexHash and bitutil.TagHash, and the memo returns the same
// set and key as a fresh hash whatever the access order.
func TestHashMatchesIndexAndTagHash(t *testing.T) {
	x := uint64(0x853c49e6748fea9b)
	for _, g := range []struct {
		setBits, tagBits, histLen uint
		ways                      int
	}{{0, 1, 18, 1}, {5, 8, 18, 6}, {10, 9, 18, 3}, {12, 16, 63, 4}, {17, 8, 64, 1}} {
		tab := New(g.setBits, g.ways, g.tagBits, g.histLen, true)
		for i := 0; i < 5000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			addr, hist := x*0x9e3779b97f4a7c15, x
			if i%3 == 0 {
				addr = tab.mAddr // revisit the memoised context
			}
			h := hist & tab.histMask
			wantBase := int(bitutil.IndexHash(addr, h, g.setBits)) * g.ways
			wantKey := keyValid | uint32(bitutil.TagHash(addr, h, g.tagBits))
			if base, key := tab.locate(addr, hist); base != wantBase || key != wantKey {
				t.Fatalf("geometry %+v: locate(%#x, %#x) = (%d, %#x), want (%d, %#x)", g, addr, hist, base, key, wantBase, wantKey)
			}
		}
	}
}
