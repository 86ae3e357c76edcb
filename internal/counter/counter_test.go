package counter

import (
	"testing"
	"testing/quick"
)

func TestSat2ColdState(t *testing.T) {
	c := NewSat2()
	if c.Value() != 1 {
		t.Fatalf("cold 2-bit counter = %d, want 1 (weakly not-taken)", c.Value())
	}
	if c.Taken() {
		t.Fatal("cold 2-bit counter should predict not-taken")
	}
}

func TestSatSaturatesHigh(t *testing.T) {
	c := NewSat2()
	for i := 0; i < 10; i++ {
		c.Update(true)
	}
	if c.Value() != 3 {
		t.Fatalf("after 10 taken updates, counter = %d, want 3", c.Value())
	}
	if !c.Taken() {
		t.Fatal("saturated-high counter should predict taken")
	}
}

func TestSatSaturatesLow(t *testing.T) {
	c := NewSat2()
	for i := 0; i < 10; i++ {
		c.Update(false)
	}
	if c.Value() != 0 {
		t.Fatalf("after 10 not-taken updates, counter = %d, want 0", c.Value())
	}
	if c.Taken() {
		t.Fatal("saturated-low counter should predict not-taken")
	}
}

func TestSatHysteresis(t *testing.T) {
	// A strongly-taken 2-bit counter survives one not-taken outcome.
	c := NewSat(2, 3)
	c.Update(false)
	if !c.Taken() {
		t.Fatal("one not-taken from strong-taken should still predict taken")
	}
	c.Update(false)
	if c.Taken() {
		t.Fatal("two not-taken from strong-taken should predict not-taken")
	}
}

func TestSatWidths(t *testing.T) {
	for width := uint(1); width <= 8; width++ {
		c := NewSat(width, 0)
		want := uint8((uint16(1) << width) - 1)
		if c.Max() != want {
			t.Errorf("width %d: Max = %d, want %d", width, c.Max(), want)
		}
		for i := 0; i < 300; i++ {
			c.Update(true)
		}
		if c.Value() != want {
			t.Errorf("width %d: saturation at %d, want %d", width, c.Value(), want)
		}
	}
}

func TestSatWidthClamping(t *testing.T) {
	c := NewSat(0, 0)
	if c.Max() != 1 {
		t.Errorf("width 0 should clamp to 1 bit, Max=%d", c.Max())
	}
	c = NewSat(20, 0)
	if c.Max() != 255 {
		t.Errorf("width 20 should clamp to 8 bits, Max=%d", c.Max())
	}
}

func TestSatSetClamps(t *testing.T) {
	c := NewSat(2, 9)
	if c.Value() != 3 {
		t.Errorf("Set beyond max should clamp: got %d want 3", c.Value())
	}
}

func TestSat2Weak(t *testing.T) {
	if v := Sat2Weak(true); v != 2 || !Sat2Taken(v) {
		t.Errorf("Sat2Weak(true) = %d, want 2 (weakly taken)", v)
	}
	if v := Sat2Weak(false); v != Sat2Cold || Sat2Taken(v) {
		t.Errorf("Sat2Weak(false) = %d, want %d (weakly not-taken)", v, Sat2Cold)
	}
}

func TestReinforce(t *testing.T) {
	c := NewSat(2, 2) // weakly taken
	c.Reinforce(false)
	if c.Value() != 2 {
		t.Error("Reinforce in disagreeing direction must be a no-op")
	}
	c.Reinforce(true)
	if c.Value() != 3 {
		t.Error("Reinforce in agreeing direction must strengthen")
	}
}

// Property: counter value always stays in range under arbitrary update
// sequences.
func TestSatAlwaysInRange(t *testing.T) {
	f := func(width uint8, init uint8, ups []bool) bool {
		w := uint(width%8) + 1
		c := NewSat(w, init)
		for _, u := range ups {
			c.Update(u)
			if c.Value() > c.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: after enough consistent updates the counter predicts that
// direction (training always converges).
func TestSatConverges(t *testing.T) {
	f := func(width uint8, init uint8, dir bool) bool {
		w := uint(width%8) + 1
		c := NewSat(w, init)
		for i := 0; i < 256; i++ {
			c.Update(dir)
		}
		saturated := c.Value() == 0
		if dir {
			saturated = c.Value() == c.Max()
		}
		return c.Taken() == dir && saturated
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
