package history

import (
	"testing"
	"testing/quick"

	"prophetcritic/internal/checkpoint"
)

func TestPushShiftsNewestToBit0(t *testing.T) {
	r := New(4)
	r.Push(true)  // T
	r.Push(false) // N
	r.Push(true)  // T
	if r.Value() != 0b101 {
		t.Fatalf("value = %#b, want 0b101", r.Value())
	}
	if !r.Bit(0) || r.Bit(1) || !r.Bit(2) {
		t.Fatal("bit order wrong: newest must be bit 0")
	}
}

func TestPushDiscardsOldest(t *testing.T) {
	r := New(2)
	r.Push(true)
	r.Push(true)
	r.Push(false)
	if r.Value() != 0b10 {
		t.Fatalf("value = %#b, want 0b10 after oldest bit dropped", r.Value())
	}
}

func TestLenClamped(t *testing.T) {
	r := New(200)
	if r.Len() != MaxLen {
		t.Fatalf("Len = %d, want %d", r.Len(), MaxLen)
	}
}

func TestZeroLengthRegister(t *testing.T) {
	r := New(0)
	r.Push(true)
	if r.Value() != 0 {
		t.Fatal("zero-length register must stay zero")
	}
	if r.String() != "" {
		t.Fatal("zero-length register renders empty")
	}
}

func TestPushBitsOrdering(t *testing.T) {
	r := New(8)
	r.PushN(0b1101, 4) // oldest-first: 1,1,0,1 -> newest bit is 1
	if r.Value() != 0b1101 {
		t.Fatalf("value = %#b, want 0b1101", r.Value())
	}
	// Pushing 4 more shifts the old ones up.
	r.PushN(0b0010, 4)
	if r.Value() != 0b11010010 {
		t.Fatalf("value = %#b, want 0b11010010", r.Value())
	}
}

func TestWindow(t *testing.T) {
	r := New(8)
	r.PushN(0b10110100, 8)
	if got := r.Window(0, 4); got != 0b0100 {
		t.Errorf("Window(0,4) = %#b, want 0b0100", got)
	}
	if got := r.Window(4, 4); got != 0b1011 {
		t.Errorf("Window(4,4) = %#b, want 0b1011", got)
	}
	if got := r.Window(6, 4); got != 0b10 {
		t.Errorf("Window(6,4) reads past end = %#b, want 0b10", got)
	}
}

func TestSnapshotRestore(t *testing.T) {
	r := New(16)
	r.PushN(0xABC, 12)
	enc := checkpoint.NewEncoder()
	r.Snapshot(enc)
	r.PushN(0xFFF, 12)
	if r.Value() == 0xABC {
		t.Fatal("register should have diverged from snapshot")
	}
	if err := r.Restore(checkpoint.NewDecoder(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	if r.Value() != 0xABC {
		t.Fatalf("restore failed: %#x != %#x", r.Value(), 0xABC)
	}
}

func TestRestoreLengthMismatchErrors(t *testing.T) {
	a := New(8)
	b := New(16)
	enc := checkpoint.NewEncoder()
	a.Snapshot(enc)
	if err := b.Restore(checkpoint.NewDecoder(enc.Bytes())); err == nil {
		t.Fatal("restoring a snapshot of different length must error")
	}
}

func TestBitOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bit out of range must panic")
		}
	}()
	New(4).Bit(4)
}

func TestValueCopyIsIndependent(t *testing.T) {
	r := New(8)
	r.PushN(0b1010, 4)
	c := r
	c.Push(true)
	if r.Value() == c.Value() {
		t.Fatal("a value copy must not share state with the original")
	}
}

func TestString(t *testing.T) {
	r := New(4)
	r.Push(false)
	r.Push(true)
	r.Push(false)
	r.Push(true)
	// Oldest-first rendering: N T N T.
	if got := r.String(); got != "NTNT" {
		t.Fatalf("String = %q, want NTNT", got)
	}
}

func TestReset(t *testing.T) {
	r := New(8)
	r.PushN(0xFF, 8)
	r.Reset()
	if r.Value() != 0 {
		t.Fatal("Reset must clear the register")
	}
}

// Property: value never exceeds the length mask.
func TestValueStaysMasked(t *testing.T) {
	f := func(n uint8, pushes []bool) bool {
		r := New(uint(n % 65))
		for _, p := range pushes {
			r.Push(p)
		}
		if r.Len() == 64 {
			return true
		}
		return r.Value()>>r.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: PushN(v, n) is n single Pushes of v's low n bits, oldest
// first, for every register length and every n up to 64.
func TestPushNMatchesPushes(t *testing.T) {
	f := func(l, n uint8, start, v uint64) bool {
		a := New(uint(l % 65))
		a.PushN(start, 64)
		b := a
		k := uint(n % 65)
		a.PushN(v, k)
		for i := int(k) - 1; i >= 0; i-- {
			b.Push(v>>uint(i)&1 == 1)
		}
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: snapshot/restore round-trips under arbitrary interleaving.
func TestSnapshotRoundTrip(t *testing.T) {
	f := func(n uint8, before, after []bool) bool {
		r := New(uint(n%64) + 1)
		for _, p := range before {
			r.Push(p)
		}
		want := r.Value()
		enc := checkpoint.NewEncoder()
		r.Snapshot(enc)
		for _, p := range after {
			r.Push(p)
		}
		if err := r.Restore(checkpoint.NewDecoder(enc.Bytes())); err != nil {
			return false
		}
		return r.Value() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: pushing k bits then reading Window(0,k) returns those bits.
func TestPushBitsWindowRoundTrip(t *testing.T) {
	f := func(v uint16) bool {
		r := New(32)
		r.PushN(uint64(v), 16)
		return r.Window(0, 16) == uint64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
