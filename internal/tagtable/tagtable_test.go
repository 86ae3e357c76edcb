package tagtable

import (
	"testing"
	"testing/quick"
)

func TestMissOnColdTable(t *testing.T) {
	tt := New(6, 4, 9, 18, true)
	if _, hit := tt.Lookup(0x400, 0x155); hit {
		t.Fatal("cold table must miss")
	}
}

func TestAllocateThenHit(t *testing.T) {
	tt := New(6, 4, 9, 18, true)
	tt.Allocate(0x400, 0x155, true)
	taken, hit := tt.Lookup(0x400, 0x155)
	if !hit {
		t.Fatal("allocated entry must hit")
	}
	if !taken {
		t.Fatal("entry allocated toward taken must predict taken")
	}
}

func TestAllocateInitialisesWeakly(t *testing.T) {
	tt := New(6, 4, 9, 18, true)
	tt.Allocate(0x400, 0x155, true)
	// One opposing update must flip a weakly-initialised counter.
	tt.Update(0x400, 0x155, false)
	taken, hit := tt.Lookup(0x400, 0x155)
	if !hit || taken {
		t.Fatal("weak init: one opposing update should flip the prediction")
	}
}

func TestDifferentContextsSeparate(t *testing.T) {
	tt := New(8, 4, 10, 18, true)
	addr := uint64(0x8000)
	tt.Allocate(addr, 0b1010, true)
	tt.Allocate(addr, 0b0101, false)
	t1, h1 := tt.Lookup(addr, 0b1010)
	t2, h2 := tt.Lookup(addr, 0b0101)
	if !h1 || !h2 {
		t.Fatal("both contexts must be present")
	}
	if !t1 || t2 {
		t.Fatal("contexts must keep independent counters")
	}
}

func TestUpdateMissIsNoop(t *testing.T) {
	tt := New(6, 4, 9, 18, true)
	if tt.Update(0x999, 0x3, true) {
		t.Fatal("Update on a missing entry must report false")
	}
	if _, hit := tt.Lookup(0x999, 0x3); hit {
		t.Fatal("Update must not allocate")
	}
}

func TestLRUReplacement(t *testing.T) {
	// 1 set, 2 ways: the least recently used entry must be the victim.
	tt := New(0, 2, 12, 18, true)
	// Find three contexts with pairwise-distinct tags (white-box: use the
	// table's own tag function so the test is deterministic).
	ctxs := make([]uint64, 0, 3)
	seen := map[uint32]bool{}
	for h := uint64(0); len(ctxs) < 3 && h < 1000; h++ {
		_, key := tt.locate(0x40, h)
		if !seen[key] {
			seen[key] = true
			ctxs = append(ctxs, h)
		}
	}
	if len(ctxs) < 3 {
		t.Fatal("tag hash degenerate: fewer than 3 distinct tags in 1000 contexts")
	}
	a, b, c := ctxs[0], ctxs[1], ctxs[2]
	tt.Allocate(0x40, a, true)
	tt.Allocate(0x40, b, true)
	// Touch a so b becomes LRU.
	tt.Update(0x40, a, true)
	tt.Allocate(0x40, c, true)
	if _, hit := tt.Lookup(0x40, a); !hit {
		t.Fatal("recently used entry must survive")
	}
	if _, hit := tt.Lookup(0x40, c); !hit {
		t.Fatal("new entry must be present")
	}
	if _, hit := tt.Lookup(0x40, b); hit {
		t.Fatal("LRU entry must have been evicted")
	}
}

func TestReallocateExistingRefreshes(t *testing.T) {
	tt := New(4, 2, 10, 18, true)
	tt.Allocate(0x10, 7, true)
	for i := 0; i < 3; i++ {
		tt.Update(0x10, 7, true) // saturate
	}
	tt.Allocate(0x10, 7, false) // re-allocate same context, now not-taken
	taken, hit := tt.Lookup(0x10, 7)
	if !hit || taken {
		t.Fatal("re-allocation must re-initialise the counter toward the outcome")
	}
}

func TestSizeBits(t *testing.T) {
	withCtr := New(10, 6, 8, 18, true) // 1024 sets * 6 ways * 10 bits
	if withCtr.SizeBits() != 1024*6*10 {
		t.Fatalf("SizeBits = %d, want %d", withCtr.SizeBits(), 1024*6*10)
	}
	bare := New(9, 3, 8, 18, false) // 512*3*8
	if bare.SizeBits() != 512*3*8 {
		t.Fatalf("filter SizeBits = %d, want %d", bare.SizeBits(), 512*3*8)
	}
	// Table 3: the 8KB tagged gshare is 1024 sets × 6 ways and must fit
	// 8KB with its tags and counters.
	if withCtr.SizeBits() > 8*8192 {
		t.Fatalf("8KB tagged gshare config overflows budget: %d bits", withCtr.SizeBits())
	}
}

func TestOccupancyGrows(t *testing.T) {
	tt := New(6, 4, 9, 18, true)
	if tt.Occupancy() != 0 {
		t.Fatal("cold table occupancy must be 0")
	}
	for i := uint64(0); i < 100; i++ {
		tt.Allocate(i*68, i*977, i%2 == 0)
	}
	if tt.Occupancy() <= 0 {
		t.Fatal("occupancy must grow after allocations")
	}
}

func TestLookupIsPure(t *testing.T) {
	f := func(addr, hist uint64) bool {
		tt := New(5, 3, 9, 18, true)
		tt.Allocate(addr, hist, true)
		r1, h1 := tt.Lookup(addr, hist)
		for i := 0; i < 10; i++ {
			tt.Lookup(addr, hist)
		}
		r2, h2 := tt.Lookup(addr, hist)
		return r1 == r2 && h1 == h2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: allocate(x) then lookup(x) always hits (the entry may only be
// displaced by *other* allocations).
func TestAllocateLookupRoundTrip(t *testing.T) {
	f := func(addr, hist uint64, dir bool) bool {
		tt := New(6, 4, 9, 18, true)
		tt.Allocate(addr, hist, dir)
		taken, hit := tt.Lookup(addr, hist)
		return hit && taken == dir
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(40, 4, 9, 18, true) },
		func() { New(6, 0, 9, 18, true) },
		func() { New(6, 4, 0, 18, true) },
		func() { New(6, 4, 17, 18, true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad config must panic")
				}
			}()
			f()
		}()
	}
}
